#include "opt/transform.hpp"

#include <algorithm>
#include <utility>

#include "aig/visited.hpp"
#include "util/contracts.hpp"

namespace bg::opt {

using aig::Aig;
using aig::Lit;
using aig::Var;

int op_index(OpKind op) {
    return static_cast<int>(op);
}

OpKind op_from_index(int idx) {
    BG_EXPECTS(idx >= 0 && idx <= 3, "operation index out of range");
    return static_cast<OpKind>(idx);
}

void OptParams::validate() const {
    BG_EXPECTS(rewrite_cut_size >= 2 && rewrite_cut_size <= 4,
               "rewrite_cut_size must lie in [2, 4]: the NPN rewrite "
               "library covers exactly the 4-input functions");
    BG_EXPECTS(rewrite_max_cuts >= 1,
               "rewrite_max_cuts of 0 would enumerate no cut at all");
    BG_EXPECTS(refactor_max_leaves >= 2 &&
                   refactor_max_leaves <= max_window_leaves,
               "refactor_max_leaves must lie in [2, 16]: windows below 2 "
               "leaves are degenerate, above 16 the truth tables explode");
    BG_EXPECTS(resub_max_leaves >= 2 && resub_max_leaves <= max_window_leaves,
               "resub_max_leaves must lie in [2, 16]: windows below 2 "
               "leaves are degenerate, above 16 the truth tables explode");
    BG_EXPECTS(resub_max_divisors >= 1,
               "resub_max_divisors of 0 leaves nothing to substitute");
}

std::string to_string(OpKind op) {
    switch (op) {
        case OpKind::Rewrite:
            return "rw";
        case OpKind::Resub:
            return "rs";
        case OpKind::Refactor:
            return "rf";
        case OpKind::None:
            return "none";
    }
    return "?";
}

// ---------------------------------------------------------------------------
// RecipeBuilder
// ---------------------------------------------------------------------------

Lit RecipeBuilder::operand(std::size_t i, bool compl_edge) const {
    BG_EXPECTS(i < num_operands_, "operand index out of range");
    return Candidate::operand_lit(i, compl_edge);
}

Lit RecipeBuilder::add_and(Lit a, Lit b) {
    // Recipe-space constant folding mirrors Aig::and_.
    if (a == 0 || b == 0) {
        return 0;
    }
    if (a == 1) {
        return b;
    }
    if (b == 1) {
        return a;
    }
    if (a == b) {
        return a;
    }
    if (a == aig::lit_not(b)) {
        return 0;
    }
    if (a > b) {
        std::swap(a, b);
    }
    const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
    for (std::size_t i = 0; i < keys_.size(); ++i) {
        if (keys_[i] == key) {
            return aig::make_lit(
                static_cast<Var>(num_operands_ + 1 + i));
        }
    }
    steps_.push_back(Candidate::Step{a, b});
    keys_.push_back(key);
    return aig::make_lit(
        static_cast<Var>(num_operands_ + 1 + steps_.size() - 1));
}

Candidate RecipeBuilder::build(std::vector<Var> operands, Lit out) && {
    BG_EXPECTS(operands.size() == num_operands_,
               "operand count changed between builder and build()");
    Candidate c;
    c.operands = std::move(operands);
    c.steps = std::move(steps_);
    c.out = out;
    return c;
}

// ---------------------------------------------------------------------------
// Dry-run gain accounting
// ---------------------------------------------------------------------------

namespace {

/// Extended literal: either a concrete graph literal or a virtual node id
/// for recipe steps that do not exist yet.
struct ExtLit {
    Lit lit = aig::null_lit;  ///< concrete when != null_lit
    std::uint32_t virt = 0;   ///< virtual literal otherwise

    bool concrete() const { return lit != aig::null_lit; }
    std::uint64_t key() const {
        return concrete() ? static_cast<std::uint64_t>(lit)
                          : (1ULL << 40) | virt;
    }
    ExtLit complemented(bool c) const {
        ExtLit e = *this;
        if (!c) {
            return e;
        }
        if (e.concrete()) {
            e.lit = aig::lit_not(e.lit);
        } else {
            e.virt ^= 1U;
        }
        return e;
    }
};

}  // namespace

int count_added_nodes(const Aig& g, Var root, const Candidate& cand,
                      const MffcResult& dying) {
    // Epoch-stamped scratch replaces the per-call hash sets; checks run
    // once per node per op and, in the parallel orchestrator, on many
    // threads at once — thread_local keeps each walk's marks private.
    thread_local aig::EpochMarks dying_set;
    thread_local aig::EpochMarks revived;
    dying_set.reset(g.num_slots());
    revived.reset(g.num_slots());
    for (const Var v : dying.nodes) {
        dying_set.set(v);
    }
    int added = 0;
    std::uint32_t next_virtual = 2;  // virtual var ids start at 1
    // Virtual strash over recipe steps: recipes are tiny (cut leaves plus
    // factored steps), so a flat vector with a linear probe beats any
    // node-based map on this hot path.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> virtual_keys;
    std::vector<ExtLit> virtual_vals;

    std::vector<ExtLit> value(1 + cand.operands.size() + cand.steps.size());
    value[0] = ExtLit{aig::lit_false, 0};
    for (std::size_t i = 0; i < cand.operands.size(); ++i) {
        value[1 + i] = ExtLit{aig::make_lit(cand.operands[i]), 0};
    }

    const auto resolve = [&](Lit rl) {
        const Var idx = aig::lit_var(rl);
        BG_ASSERT(idx < value.size(), "recipe literal out of range");
        return value[idx].complemented(aig::lit_is_compl(rl));
    };
    const auto is_const0 = [](const ExtLit& e) {
        return e.concrete() && e.lit == aig::lit_false;
    };
    const auto is_const1 = [](const ExtLit& e) {
        return e.concrete() && e.lit == aig::lit_true;
    };

    for (std::size_t s = 0; s < cand.steps.size(); ++s) {
        ExtLit a = resolve(cand.steps[s].in0);
        ExtLit b = resolve(cand.steps[s].in1);
        auto& slot = value[1 + cand.operands.size() + s];
        // Constant folding in extended-literal space.
        if (is_const0(a) || is_const0(b)) {
            slot = ExtLit{aig::lit_false, 0};
            continue;
        }
        if (is_const1(a)) {
            slot = b;
            continue;
        }
        if (is_const1(b)) {
            slot = a;
            continue;
        }
        if (a.key() == b.key()) {
            slot = a;
            continue;
        }
        if (a.key() == b.complemented(true).key()) {
            slot = ExtLit{aig::lit_false, 0};
            continue;
        }
        if (a.concrete() && b.concrete()) {
            const Lit hit = g.lookup_and(a.lit, b.lit);
            if (hit != aig::null_lit) {
                slot = ExtLit{hit, 0};
                const Var hv = aig::lit_var(hit);
                if (g.is_and(hv) && dying_set.test(hv) &&
                    revived.insert(hv)) {
                    ++added;  // reuse keeps a dying node alive
                }
                continue;
            }
        }
        if (a.key() > b.key()) {
            std::swap(a, b);
        }
        const auto key = std::make_pair(a.key(), b.key());
        const auto it =
            std::find(virtual_keys.begin(), virtual_keys.end(), key);
        if (it != virtual_keys.end()) {
            slot = virtual_vals[static_cast<std::size_t>(
                it - virtual_keys.begin())];
            continue;
        }
        ++added;
        slot = ExtLit{aig::null_lit, next_virtual};
        next_virtual += 2;
        virtual_keys.push_back(key);
        virtual_vals.push_back(slot);
    }

    const ExtLit out = resolve(cand.out);
    if (out.concrete() && aig::lit_var(out.lit) == root) {
        return -1;  // the recipe rebuilds the root itself: no-op
    }
    return added;
}

int estimate_depth_delta(const Aig& g, Var root, const Candidate& cand) {
    // Recipe-space levels: index 0 (const) at 0, operands at their graph
    // levels, each step one above its deepest input.  Complement edges are
    // free, exactly as in Aig::update_levels.  Recipes are small (cut
    // leaves + factored steps), so a stack buffer covers the hot path —
    // this runs once per applicable check inside the static-feature scan.
    const std::size_t n = 1 + cand.operands.size() + cand.steps.size();
    std::uint32_t stack_levels[64];
    std::vector<std::uint32_t> heap_levels;
    std::uint32_t* levels = stack_levels;
    if (n > std::size(stack_levels)) {
        heap_levels.resize(n);
        levels = heap_levels.data();
    }
    levels[0] = 0;
    for (std::size_t i = 0; i < cand.operands.size(); ++i) {
        levels[1 + i] = g.level(cand.operands[i]);
    }
    for (std::size_t s = 0; s < cand.steps.size(); ++s) {
        const auto lv = [&](aig::Lit l) { return levels[aig::lit_var(l)]; };
        levels[1 + cand.operands.size() + s] =
            1 + std::max(lv(cand.steps[s].in0), lv(cand.steps[s].in1));
    }
    return static_cast<int>(g.level(root)) -
           static_cast<int>(levels[aig::lit_var(cand.out)]);
}

// ---------------------------------------------------------------------------
// Apply
// ---------------------------------------------------------------------------

Gain apply_candidate(Aig& g, Var root, const Candidate& cand) {
    BG_EXPECTS(g.is_and(root) && !g.is_dead(root),
               "apply target must be a live AND node");
    // The depth estimate needs the pre-apply levels; replace() invalidates
    // them.
    const int depth_est = estimate_depth_delta(g, root, cand);
    const auto before = static_cast<int>(g.num_ands());

    std::vector<Lit> value(1 + cand.operands.size() + cand.steps.size(),
                           aig::null_lit);
    value[0] = aig::lit_false;
    for (std::size_t i = 0; i < cand.operands.size(); ++i) {
        const Var ov = cand.operands[i];
        BG_EXPECTS(!g.is_dead(ov), "candidate operand is dead");
        value[1 + i] = aig::make_lit(ov);
    }
    const auto resolve = [&](Lit rl) {
        const Lit base = value[aig::lit_var(rl)];
        BG_ASSERT(base != aig::null_lit, "recipe resolved out of order");
        return aig::lit_not_cond(base, aig::lit_is_compl(rl));
    };

    std::vector<Var> created;
    for (std::size_t s = 0; s < cand.steps.size(); ++s) {
        const auto slots_before = g.num_slots();
        const Lit r = g.and_(resolve(cand.steps[s].in0),
                             resolve(cand.steps[s].in1));
        if (g.num_slots() > slots_before) {
            created.push_back(aig::lit_var(r));
        }
        value[1 + cand.operands.size() + s] = r;
    }
    const Lit out = resolve(cand.out);

    const auto cleanup_created = [&] {
        for (auto it = created.rbegin(); it != created.rend(); ++it) {
            g.delete_unreferenced(*it);
        }
    };

    if (aig::lit_var(out) == root) {
        cleanup_created();
        return {};
    }
    g.replace(root, out);
    cleanup_created();  // defensive: recipe steps not reachable from out
    return Gain{before - static_cast<int>(g.num_ands()), depth_est};
}

CheckResult check_op(const Aig& g, Var v, OpKind op, const OptParams& params) {
    switch (op) {
        case OpKind::Rewrite:
            return check_rewrite(g, v, params);
        case OpKind::Resub:
            return check_resub(g, v, params);
        case OpKind::Refactor:
            return check_refactor(g, v, params);
        case OpKind::None:
            return {};
    }
    return {};
}

}  // namespace bg::opt
