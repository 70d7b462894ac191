#include "bdd/bdd.hpp"

#include <cmath>
#include <functional>

#include "util/contracts.hpp"

namespace bg::bdd {

BddManager::BddManager(unsigned num_vars, std::size_t node_limit)
    : num_vars_(num_vars), node_limit_(node_limit) {
    BG_EXPECTS(num_vars <= 4096, "unreasonable BDD variable count");
    // Terminals: index 0 = FALSE, 1 = TRUE; var = num_vars_ sorts last.
    nodes_.push_back(Node{num_vars_, 0, 0});
    nodes_.push_back(Node{num_vars_, 1, 1});
}

BddManager::Ref BddManager::make_node(unsigned v, Ref low, Ref high) {
    if (low == high) {
        return low;  // redundant test elimination
    }
    const std::uint64_t key = (static_cast<std::uint64_t>(v) << 48) ^
                              (static_cast<std::uint64_t>(low) << 24) ^
                              high;
    const auto it = unique_.find(key);
    if (it != unique_.end()) {
        return it->second;
    }
    if (nodes_.size() >= node_limit_) {
        throw BddOverflow(node_limit_);
    }
    nodes_.push_back(Node{v, low, high});
    const Ref r = static_cast<Ref>(nodes_.size() - 1);
    unique_.emplace(key, r);
    return r;
}

BddManager::Ref BddManager::var(unsigned i) {
    BG_EXPECTS(i < num_vars_, "BDD variable out of range");
    return make_node(i, bdd_false, bdd_true);
}

BddManager::Ref BddManager::ite(Ref f, Ref g, Ref h) {
    // Bound the memo between operations, never inside one: a clear in
    // the middle of a recursion would recompute its shared subproblems,
    // while a clear here only drops reuse across operations.  Node ids
    // do not depend on it (a recomputed ITE finds every node it needs in
    // the unique table).
    if (ite_cache_.size() >= node_limit_ / 4) {
        ite_cache_.clear();
    }
    return ite_rec(f, g, h);
}

BddManager::Ref BddManager::ite_rec(Ref f, Ref g, Ref h) {
    // Terminal cases.
    if (f == bdd_true) {
        return g;
    }
    if (f == bdd_false) {
        return h;
    }
    if (g == h) {
        return g;
    }
    if (g == bdd_true && h == bdd_false) {
        return f;
    }

    const std::uint64_t key = (static_cast<std::uint64_t>(f) << 42) ^
                              (static_cast<std::uint64_t>(g) << 21) ^ h;
    if (const auto it = ite_cache_.find(key); it != ite_cache_.end()) {
        return it->second;
    }

    if (interrupt_ && (++expansions_ & 4095U) == 0 && interrupt_()) {
        throw BddInterrupted();
    }
    const unsigned v = std::min({top_var(f), top_var(g), top_var(h)});
    const auto cof = [&](Ref x, bool hi) {
        if (top_var(x) != v) {
            return x;
        }
        return hi ? nodes_[x].high : nodes_[x].low;
    };
    const Ref hi = ite_rec(cof(f, true), cof(g, true), cof(h, true));
    const Ref lo = ite_rec(cof(f, false), cof(g, false), cof(h, false));
    const Ref r = make_node(v, lo, hi);
    ite_cache_.emplace(key, r);
    return r;
}

bool BddManager::evaluate(Ref f, const std::vector<bool>& assignment) const {
    BG_EXPECTS(assignment.size() >= num_vars_,
               "assignment must cover every variable");
    while (f > bdd_true) {
        const auto& n = nodes_[f];
        f = assignment[n.var] ? n.high : n.low;
    }
    return f == bdd_true;
}

std::vector<bool> BddManager::find_satisfying(Ref f) const {
    if (f == bdd_false) {
        return {};
    }
    std::vector<bool> assignment(num_vars_, false);
    while (f > bdd_true) {
        const auto& n = nodes_[f];
        // Reduced diagram: any child other than bdd_false is satisfiable.
        if (n.high != bdd_false) {
            assignment[n.var] = true;
            f = n.high;
        } else {
            f = n.low;
        }
    }
    return assignment;
}

double BddManager::count_minterms(Ref f) {
    // count(f) relative to the full space of num_vars_ variables: each
    // node's count scales by 2^(child_var - var - 1) skipped levels.
    std::unordered_map<Ref, double>& memo = count_cache_;
    const std::function<double(Ref)> walk = [&](Ref r) -> double {
        if (r == bdd_false) {
            return 0.0;
        }
        if (r == bdd_true) {
            return 1.0;
        }
        if (const auto it = memo.find(r); it != memo.end()) {
            return it->second;
        }
        const auto& n = nodes_[r];
        const double lo = walk(n.low) *
                          std::exp2(static_cast<double>(
                              top_var(n.low) - n.var - 1));
        const double hi = walk(n.high) *
                          std::exp2(static_cast<double>(
                              top_var(n.high) - n.var - 1));
        const double total = lo + hi;
        memo.emplace(r, total);
        return total;
    };
    // Normalize the root: it may not start at variable 0.
    return walk(f) * std::exp2(static_cast<double>(top_var(f)));
}

std::size_t BddManager::size_of(Ref f) const {
    std::vector<Ref> stack{f};
    std::unordered_map<Ref, bool> seen;
    std::size_t count = 0;
    while (!stack.empty()) {
        const Ref r = stack.back();
        stack.pop_back();
        if (r <= bdd_true || seen[r]) {
            continue;
        }
        seen[r] = true;
        ++count;
        stack.push_back(nodes_[r].low);
        stack.push_back(nodes_[r].high);
    }
    return count;
}

}  // namespace bg::bdd
