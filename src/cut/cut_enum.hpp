#pragma once

/// \file cut_enum.hpp
/// K-feasible cut enumeration and cone-function computation.  Rewriting
/// consumes 4-feasible cuts; refactoring and resubstitution consume one
/// reconvergence-driven cut per node (ABC's Abc_NodeFindCut heuristic).

#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "aig/visited.hpp"
#include "tt/truth_table.hpp"

namespace bg::cut {

/// A cut of some root node: the sorted leaf variables plus the root's
/// function expressed over those leaves (leaf i = variable i).
struct Cut {
    std::vector<aig::Var> leaves;
    tt::TruthTable function;
};

/// Enumerate the k-feasible cuts of `root` (excluding the trivial cut
/// {root}) by leaf-expansion closure.  At most `max_cuts` cuts are
/// returned, discovered in BFS order (small cuts first).  Functions are
/// computed for every returned cut.
std::vector<Cut> enumerate_cuts(const aig::Aig& g, aig::Var root, unsigned k,
                                std::size_t max_cuts);

/// Grow one reconvergence-driven cut of `root` with at most `max_leaves`
/// leaves: repeatedly expand the leaf whose expansion adds the fewest new
/// leaves.  Returns an empty vector when the root cannot be expanded at
/// all (e.g. root is a PI).
std::vector<aig::Var> reconv_cut(const aig::Aig& g, aig::Var root,
                                 unsigned max_leaves);

/// Truth table of `root` over the given leaves (leaf i maps to variable
/// i).  Every path from root to a PI must cross a leaf; violations throw.
tt::TruthTable cone_function(const aig::Aig& g, aig::Var root,
                             std::span<const aig::Var> leaves);

/// Truth tables of every node in the cone of `root` bounded by `leaves`
/// (inclusive of leaves and root), over the leaf variables, packed into
/// one flat word table: entry e holds var(e)'s function in words
/// [e * words(), (e + 1) * words()).  A window is reusable scratch:
/// build() starts over with an epoch-stamped var -> entry index, so a
/// thread_local instance walks windows without allocating once warm.
class ConeWindow {
public:
    /// Replace the contents with the cone of `root` bounded by `leaves`
    /// (at most 16).  Every path from root to a PI must cross a leaf;
    /// violations throw.
    void build(const aig::Aig& g, aig::Var root,
               std::span<const aig::Var> leaves);

    /// Words per function.
    std::size_t words() const { return words_; }
    /// Number of entries.
    std::size_t size() const { return vars_.size(); }
    aig::Var var(std::size_t e) const { return vars_[e]; }
    bool contains(aig::Var v) const { return index_.contains(v); }
    /// Entry of `v`; `v` must be contained.
    std::size_t index(aig::Var v) const { return index_.at(v); }
    /// Entry e's words.  Valid until the next add_and() or build().
    const std::uint64_t* function(std::size_t e) const {
        return &table_[e * words_];
    }
    tt::TruthTable to_tt(std::size_t e) const;

    /// Append `v` = f0 & f1 as a new entry; its fanin vars must be
    /// contained.
    void add_and(aig::Var v, aig::NodeRef f0, aig::NodeRef f1);

private:
    unsigned num_vars_ = 0;
    std::size_t words_ = 1;
    std::vector<aig::Var> vars_;
    std::vector<std::uint64_t> table_;
    aig::EpochMap<std::uint32_t> index_;
    std::vector<aig::Var> stack_;
};

}  // namespace bg::cut
