#include "opt/mffc.hpp"

#include <algorithm>

#include "aig/visited.hpp"
#include "util/contracts.hpp"

namespace bg::opt {

using aig::Aig;
using aig::Lit;
using aig::Var;

bool MffcResult::contains(Var v) const {
    return std::find(nodes.begin(), nodes.end(), v) != nodes.end();
}

namespace {

// Per-thread walk scratch (epoch-stamped, so each call clears in O(1)
// instead of rebuilding hash sets).  thread_local keeps concurrent
// checks independent.
struct MffcScratch {
    aig::EpochMarks leaf_set;
    aig::EpochMap<std::uint32_t> deficit;
};

MffcScratch& scratch() {
    thread_local MffcScratch s;
    return s;
}

void deref_rec(const Aig& g, Var v, MffcScratch& s, std::vector<Var>& out) {
    out.push_back(v);
    for (const aig::NodeRef f : g.fanin_refs(v)) {
        const Var u = f.index();
        const std::uint32_t d = ++s.deficit.slot(u);
        BG_ASSERT(d <= g.ref_count(u), "MFFC deficit exceeds reference count");
        if (d == g.ref_count(u) && g.is_and(u) && !s.leaf_set.test(u)) {
            deref_rec(g, u, s, out);
        }
    }
}

}  // namespace

MffcResult mffc(const Aig& g, Var root, std::span<const Var> leaves) {
    BG_EXPECTS(g.is_and(root), "MFFC is defined for AND nodes");
    BG_EXPECTS(!g.is_dead(root), "MFFC of a dead node");
    MffcScratch& s = scratch();
    s.leaf_set.reset(g.num_slots());
    s.deficit.reset(g.num_slots());
    for (const Var l : leaves) {
        s.leaf_set.set(l);
    }
    BG_EXPECTS(!s.leaf_set.test(root), "root cannot be its own leaf");
    MffcResult res;
    deref_rec(g, root, s, res.nodes);
    return res;
}

MffcResult mffc(const Aig& g, Var root) {
    return mffc(g, root, {});
}

}  // namespace bg::opt
