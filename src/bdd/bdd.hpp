#pragma once

/// \file bdd.hpp
/// A compact ROBDD package (unique table + memoized ITE, fixed variable
/// order, no complement edges) — the third independent verification
/// engine next to simulation and SAT.  BDDs are canonical: two functions
/// are equal iff their node indices are equal, which makes equivalence
/// checking a pointer comparison once the diagrams are built.

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace bg::bdd {

/// Thrown when a diagram exceeds the manager's node limit (the classic
/// BDD failure mode; callers degrade to SAT or simulation).
class BddOverflow : public std::runtime_error {
public:
    explicit BddOverflow(std::size_t limit)
        : std::runtime_error("BDD node limit exceeded (" +
                             std::to_string(limit) + ")") {}
};

/// Thrown out of a running operation when the manager's interrupt hook
/// fires (see BddManager::set_interrupt).
class BddInterrupted : public std::runtime_error {
public:
    BddInterrupted() : std::runtime_error("BDD operation interrupted") {}
};

class BddManager {
public:
    using Ref = std::uint32_t;
    static constexpr Ref bdd_false = 0;
    static constexpr Ref bdd_true = 1;

    explicit BddManager(unsigned num_vars,
                        std::size_t node_limit = 2'000'000);

    unsigned num_vars() const { return num_vars_; }
    /// Live node count, terminals included.
    std::size_t num_nodes() const { return nodes_.size(); }

    /// Projection variable i (ordered by index: smaller index = higher).
    Ref var(unsigned i);
    Ref nvar(unsigned i) { return not_(var(i)); }

    /// if f then g else h — the universal connective.  The ITE memo is
    /// cleared before an operation once it holds node_limit / 4 entries;
    /// unbounded, it was most of a blown-up manager's memory.
    Ref ite(Ref f, Ref g, Ref h);

    /// Poll `stop` every 4096 ITE expansions; once it returns true, the
    /// running operation throws BddInterrupted.  A single operation on a
    /// blown-up diagram can run for seconds, so callers that must give
    /// up promptly (a losing portfolio engine) need a poll this fine.
    /// The manager stays consistent, but the interrupted result is lost.
    void set_interrupt(std::function<bool()> stop) {
        interrupt_ = std::move(stop);
    }

    Ref and_(Ref a, Ref b) { return ite(a, b, bdd_false); }
    Ref or_(Ref a, Ref b) { return ite(a, bdd_true, b); }
    Ref xor_(Ref a, Ref b) { return ite(a, not_(b), b); }
    Ref not_(Ref a) { return ite(a, bdd_false, bdd_true); }

    /// Evaluate under a complete assignment (indexed by variable).
    bool evaluate(Ref f, const std::vector<bool>& assignment) const;

    /// One satisfying assignment of `f` over all num_vars() variables
    /// (variables off f's support default to false); empty when
    /// f == bdd_false.  Exists for every other node: in a reduced diagram
    /// only bdd_false denotes the unsatisfiable function, so a greedy
    /// walk away from it always reaches bdd_true.  The BDD CEC engine
    /// uses this to turn a differing output pair into a counterexample.
    std::vector<bool> find_satisfying(Ref f) const;

    /// Number of satisfying assignments over all num_vars() variables
    /// (exact as long as it fits a double's integer range).
    double count_minterms(Ref f);

    /// Structural size of one function's diagram (reachable nodes).
    std::size_t size_of(Ref f) const;

private:
    struct Node {
        unsigned var = 0;  ///< terminals use var = num_vars_
        Ref low = 0;
        Ref high = 0;
    };

    Ref ite_rec(Ref f, Ref g, Ref h);
    Ref make_node(unsigned v, Ref low, Ref high);
    unsigned top_var(Ref f) const { return nodes_[f].var; }

    unsigned num_vars_;
    std::size_t node_limit_;
    std::vector<Node> nodes_;
    std::unordered_map<std::uint64_t, Ref> unique_;
    std::unordered_map<std::uint64_t, Ref> ite_cache_;
    std::unordered_map<Ref, double> count_cache_;
    std::function<bool()> interrupt_;
    std::uint32_t expansions_ = 0;
};

}  // namespace bg::bdd
