#include "aig/aig.hpp"

#include <algorithm>
#include <sstream>

#include "aig/visited.hpp"

namespace bg::aig {

// ---------------------------------------------------------------------------
// FanoutArena
// ---------------------------------------------------------------------------

namespace detail {

void FanoutArena::push_back(Var v, Var f) {
    Head& h = heads_[v];
    if (h.size == h.cap) {
        // Repack first when the arena is mostly leaked blocks, so
        // replace()-heavy workloads cannot grow it without bound.
        if (arena_.size() >= 4096 && arena_.size() > 4 * (live_ + 1)) {
            repack();
        }
        Head& hh = heads_[v];  // repack() may have moved the block
        const std::uint32_t new_cap = std::max<std::uint32_t>(2, hh.cap * 2);
        const std::uint32_t new_off = static_cast<std::uint32_t>(
            arena_.size());
        arena_.resize(arena_.size() + new_cap);
        std::copy_n(arena_.begin() + hh.off, hh.size,
                    arena_.begin() + new_off);
        hh.off = new_off;
        hh.cap = new_cap;
        arena_[hh.off + hh.size++] = f;
        ++live_;
        return;
    }
    arena_[h.off + h.size++] = f;
    ++live_;
}

void FanoutArena::remove(Var v, Var f) {
    Head& h = heads_[v];
    Var* const begin = arena_.data() + h.off;
    Var* const end = begin + h.size;
    Var* const it = std::find(begin, end, f);
    BG_ASSERT(it != end, "fanout record missing during removal");
    *it = end[-1];  // swap-with-back, as the vector layout did
    --h.size;
    --live_;
}

void FanoutArena::validate() const {
    std::size_t live = 0;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> blocks;
    for (const Head& h : heads_) {
        BG_ASSERT(h.size <= h.cap, "fanout block size exceeds its capacity");
        BG_ASSERT(static_cast<std::size_t>(h.off) + h.cap <= arena_.size(),
                  "fanout block extends past the arena");
        live += h.size;
        if (h.cap > 0) {
            blocks.emplace_back(h.off, h.cap);
        }
    }
    BG_ASSERT(live == live_, "fanout live-slot accounting out of sync");
    // Allocated blocks (cap > 0) must never overlap; leaked regions from
    // tail-relocation are unowned and harmless.
    std::sort(blocks.begin(), blocks.end());
    for (std::size_t i = 0; i + 1 < blocks.size(); ++i) {
        BG_ASSERT(blocks[i].first + blocks[i].second <= blocks[i + 1].first,
                  "fanout arena blocks overlap");
    }
}

void FanoutArena::repack() {
    std::vector<Var> packed;
    packed.reserve(live_ + live_ / 2 + heads_.size());
    for (Head& h : heads_) {
        const std::uint32_t off = static_cast<std::uint32_t>(packed.size());
        packed.insert(packed.end(), arena_.begin() + h.off,
                      arena_.begin() + h.off + h.size);
        // A little headroom per list so the next push does not immediately
        // move the block back to the tail.
        const std::uint32_t cap =
            std::max<std::uint32_t>(2, h.size + h.size / 2);
        packed.resize(packed.size() + (cap - h.size));
        h.off = off;
        h.cap = cap;
    }
    arena_ = std::move(packed);
}

// ---------------------------------------------------------------------------
// StrashMap
// ---------------------------------------------------------------------------

Var StrashMap::find(std::uint64_t key) const {
    if (keys_.empty()) {
        return null_var;
    }
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = mix(key) & mask;
    while (true) {
        const std::uint64_t k = keys_[i];
        if (k == key) {
            return vals_[i];
        }
        if (k == k_empty) {
            return null_var;
        }
        i = (i + 1) & mask;
    }
}

void StrashMap::insert(std::uint64_t key, Var v) {
    if ((used_ + 1) * 2 > keys_.size()) {
        rehash(std::max<std::size_t>(16, (size_ + 1) * 4));
    }
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = mix(key) & mask;
    std::size_t slot = ~std::size_t{0};
    while (true) {
        const std::uint64_t k = keys_[i];
        BG_ASSERT(k != key, "strash insert over an existing key");
        if (k == k_tombstone && slot == ~std::size_t{0}) {
            slot = i;  // reuse the first tombstone on the probe path
        }
        if (k == k_empty) {
            if (slot == ~std::size_t{0}) {
                slot = i;
                ++used_;  // consuming a fresh slot, not a tombstone
            }
            break;
        }
        i = (i + 1) & mask;
    }
    keys_[slot] = key;
    vals_[slot] = v;
    ++size_;
}

void StrashMap::erase(std::uint64_t key) {
    BG_ASSERT(!keys_.empty(), "strash erase on an empty table");
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = mix(key) & mask;
    while (true) {
        const std::uint64_t k = keys_[i];
        if (k == key) {
            keys_[i] = k_tombstone;
            --size_;
            return;
        }
        BG_ASSERT(k != k_empty, "strash erase of a missing key");
        i = (i + 1) & mask;
    }
}

void StrashMap::reserve(std::size_t n) {
    std::size_t cap = 16;
    while (cap < n * 2) {
        cap *= 2;
    }
    if (cap > keys_.size()) {
        rehash(cap);
    }
}

void StrashMap::rehash(std::size_t new_cap) {
    std::size_t cap = 16;
    while (cap < new_cap) {
        cap *= 2;
    }
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<Var> old_vals = std::move(vals_);
    keys_.assign(cap, k_empty);
    vals_.assign(cap, null_var);
    const std::size_t mask = cap - 1;
    for (std::size_t j = 0; j < old_keys.size(); ++j) {
        const std::uint64_t k = old_keys[j];
        if (k == k_empty || k == k_tombstone) {
            continue;
        }
        std::size_t i = mix(k) & mask;
        while (keys_[i] != k_empty) {
            i = (i + 1) & mask;
        }
        keys_[i] = k;
        vals_[i] = old_vals[j];
    }
    used_ = size_;  // tombstones dropped
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Aig
// ---------------------------------------------------------------------------

Aig::Aig() {
    // Slot 0 is the constant-FALSE node.
    nodes_.emplace_back();
    fanouts_.add_node();
    po_ref_counts_.push_back(0);
}

Aig::MemoryStats Aig::memory_stats() const {
    MemoryStats m;
    m.node_array_bytes = nodes_.capacity() * sizeof(Node);
    m.fanout_bytes = fanouts_.bytes();
    m.strash_bytes = strash_.bytes();
    m.po_count_bytes = po_ref_counts_.capacity() * sizeof(std::uint32_t);
    return m;
}

void Aig::reserve(std::size_t nodes) {
    nodes_.reserve(nodes);
    po_ref_counts_.reserve(nodes);
    fanouts_.reserve(nodes, 2 * nodes);
    strash_.reserve(nodes);
}

Var Aig::new_node() {
    nodes_.emplace_back();
    fanouts_.add_node();
    po_ref_counts_.push_back(0);
    const Var v = static_cast<Var>(nodes_.size() - 1);
    return v;
}

Lit Aig::add_pi() {
    const Var v = new_node();
    nodes_[v].set_pi(true);
    pis_.push_back(v);
    return make_lit(v);
}

std::vector<Lit> Aig::add_pis(std::size_t n) {
    std::vector<Lit> lits;
    lits.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        lits.push_back(add_pi());
    }
    return lits;
}

std::size_t Aig::add_po(Lit l) {
    BG_EXPECTS(lit_var(l) < nodes_.size(), "PO literal out of range");
    BG_EXPECTS(!is_dead(lit_var(l)), "PO driven by a dead node");
    ref_var(lit_var(l));
    ++po_ref_counts_[lit_var(l)];
    pos_.push_back(l);
    return pos_.size() - 1;
}

Lit Aig::lookup_and(Lit a, Lit b) const {
    BG_EXPECTS(lit_var(a) < nodes_.size() && lit_var(b) < nodes_.size(),
               "AND fanin literal out of range");
    // Trivial simplifications mirror and_().
    if (a == lit_false || b == lit_false) {
        return lit_false;
    }
    if (a == lit_true) {
        return b;
    }
    if (b == lit_true) {
        return a;
    }
    if (a == b) {
        return a;
    }
    if (a == lit_not(b)) {
        return lit_false;
    }
    if (a > b) {
        std::swap(a, b);
    }
    const Var hit = strash_.find(strash_key(a, b));
    if (hit == null_var) {
        return null_lit;
    }
    return make_lit(hit);
}

Lit Aig::and_(Lit a, Lit b) {
    const Lit found = lookup_and(a, b);
    if (found != null_lit) {
        return found;
    }
    BG_EXPECTS(!is_dead(lit_var(a)) && !is_dead(lit_var(b)),
               "AND over a dead fanin");
    if (a > b) {
        std::swap(a, b);
    }
    const Var v = new_node();
    nodes_[v].fanin0 = NodeRef::from_lit(a);
    nodes_[v].fanin1 = NodeRef::from_lit(b);
    ref_var(lit_var(a));
    ref_var(lit_var(b));
    fanouts_.push_back(lit_var(a), v);
    fanouts_.push_back(lit_var(b), v);
    strash_.insert(strash_key(a, b), v);
    ++num_ands_;
    return make_lit(v);
}

Lit Aig::xor_(Lit a, Lit b) {
    // a ^ b = !(!(a & !b) & !(!a & b))
    const Lit t0 = and_(a, lit_not(b));
    const Lit t1 = and_(lit_not(a), b);
    return or_(t0, t1);
}

Lit Aig::mux_(Lit c, Lit t, Lit e) {
    const Lit t0 = and_(c, t);
    const Lit t1 = and_(lit_not(c), e);
    return or_(t0, t1);
}

Lit Aig::maj_(Lit a, Lit b, Lit c) {
    return or_(and_(a, b), or_(and_(a, c), and_(b, c)));
}

Lit Aig::and_reduce(std::span<const Lit> lits) {
    if (lits.empty()) {
        return lit_true;
    }
    std::vector<Lit> cur(lits.begin(), lits.end());
    while (cur.size() > 1) {
        std::vector<Lit> next;
        next.reserve((cur.size() + 1) / 2);
        for (std::size_t i = 0; i + 1 < cur.size(); i += 2) {
            next.push_back(and_(cur[i], cur[i + 1]));
        }
        if (cur.size() % 2 == 1) {
            next.push_back(cur.back());
        }
        cur = std::move(next);
    }
    return cur[0];
}

Lit Aig::or_reduce(std::span<const Lit> lits) {
    std::vector<Lit> inv;
    inv.reserve(lits.size());
    for (const Lit l : lits) {
        inv.push_back(lit_not(l));
    }
    return lit_not(and_reduce(inv));
}

void Aig::update_levels() {
    for (const Var v : topo_all()) {
        auto& n = nodes_[v];
        if (n.is_and()) {
            n.set_level(1 + std::max(nodes_[n.fanin0.index()].level(),
                                     nodes_[n.fanin1.index()].level()));
        } else {
            n.set_level(0);
        }
    }
}

std::uint32_t Aig::depth() {
    update_levels();
    std::uint32_t d = 0;
    for (const Lit po : pos_) {
        d = std::max(d, nodes_[lit_var(po)].level());
    }
    return d;
}

std::uint32_t Aig::depth() const {
    std::vector<std::uint32_t> levels(nodes_.size(), 0);
    for (const Var v : topo_all()) {
        const auto& n = nodes_[v];
        if (n.is_and()) {
            levels[v] = 1 + std::max(levels[n.fanin0.index()],
                                     levels[n.fanin1.index()]);
        }
    }
    std::uint32_t d = 0;
    for (const Lit po : pos_) {
        d = std::max(d, levels[lit_var(po)]);
    }
    return d;
}

std::vector<Var> Aig::topo_all() const {
    // Kahn's algorithm over live nodes; const and PIs lead.
    std::vector<Var> order;
    order.reserve(nodes_.size());
    std::vector<std::uint32_t> pending(nodes_.size(), 0);
    std::vector<Var> ready;
    for (Var v = 0; v < nodes_.size(); ++v) {
        if (nodes_[v].dead()) {
            continue;
        }
        if (nodes_[v].is_and()) {
            pending[v] = 2;
        } else {
            ready.push_back(v);
        }
    }
    while (!ready.empty()) {
        const Var v = ready.back();
        ready.pop_back();
        order.push_back(v);
        for (const Var f : fanouts_.list(v)) {
            if (nodes_[f].dead()) {
                continue;
            }
            // A node may appear twice in a fanout list only if both fanins
            // share the var, which and_() precludes; decrement once.
            BG_ASSERT(pending[f] > 0, "topological ordering underflow");
            if (--pending[f] == 0) {
                ready.push_back(f);
            }
        }
    }
    return order;
}

std::vector<Var> Aig::topo_ands() const {
    auto all = topo_all();
    std::vector<Var> ands;
    ands.reserve(all.size());
    for (const Var v : all) {
        if (nodes_[v].is_and()) {
            ands.push_back(v);
        }
    }
    return ands;
}

bool Aig::is_in_tfi(Var root, Var descendant) const {
    if (root == descendant) {
        return true;
    }
    // Epoch-marked scratch instead of a per-call vector<bool>: TFI walks
    // run per candidate.  Each thread owns its scratch, so concurrent
    // checks never share marks.
    thread_local EpochMarks seen;
    thread_local std::vector<Var> stack;
    seen.reset(nodes_.size());
    stack.clear();
    stack.push_back(root);
    seen.set(root);
    while (!stack.empty()) {
        const Var v = stack.back();
        stack.pop_back();
        if (!nodes_[v].is_and()) {
            continue;
        }
        for (const NodeRef f : fanin_refs(v)) {
            const Var u = f.index();
            if (u == descendant) {
                return true;
            }
            if (seen.insert(u)) {
                stack.push_back(u);
            }
        }
    }
    return false;
}

void Aig::delete_unreferenced(Var v) {
    auto& n = nodes_[v];
    if (n.dead() || !n.is_and() || n.ref > 0) {
        return;
    }
    n.set_dead(true);
    --num_ands_;
    strash_.erase(strash_key(n.fanin0.lit(), n.fanin1.lit()));
    for (const NodeRef f : {n.fanin0, n.fanin1}) {
        const Var u = f.index();
        fanouts_.remove(u, v);
        deref_var(u);
        delete_unreferenced(u);
    }
    fanouts_.clear(v);
}

void Aig::patch_fanout(Var fanout, Var v, Lit repl) {
    auto& fn = nodes_[fanout];
    BG_ASSERT(!fn.dead(), "patching a dead fanout");
    const bool on0 = fn.fanin0.index() == v;
    const bool on1 = fn.fanin1.index() == v;
    BG_ASSERT(on0 != on1, "fanout must reference v on exactly one fanin");

    const Lit other = on0 ? fn.fanin1.lit() : fn.fanin0.lit();
    const Lit mine = on0 ? fn.fanin0.lit() : fn.fanin1.lit();
    const Lit substituted = lit_not_cond(repl, lit_is_compl(mine));

    // Would the patched node be trivial or a duplicate?
    const Lit merged = lookup_and(substituted, other);
    if (merged != null_lit && lit_var(merged) != fanout) {
        // The fanout collapses to a constant / existing node: cascade.
        replace(fanout, merged);
        return;
    }

    // Physical in-place patch.
    strash_.erase(strash_key(fn.fanin0.lit(), fn.fanin1.lit()));
    Lit a = substituted;
    Lit b = other;
    if (a > b) {
        std::swap(a, b);
    }
    fn.fanin0 = NodeRef::from_lit(a);
    fn.fanin1 = NodeRef::from_lit(b);
    strash_.insert(strash_key(a, b), fanout);
    fanouts_.remove(v, fanout);
    deref_var(v);
    fanouts_.push_back(lit_var(repl), fanout);
    ref_var(lit_var(repl));
}

void Aig::replace(Var v, Lit repl) {
    BG_EXPECTS(v < nodes_.size(), "replace: var out of range");
    BG_EXPECTS(!nodes_[v].dead(), "replace: v is dead");
    BG_EXPECTS(nodes_[v].is_and(), "replace: only AND nodes can be replaced");
    BG_EXPECTS(!nodes_[lit_var(repl)].dead(), "replace: repl is dead");
    BG_EXPECTS(lit_var(repl) != v, "replace: self-replacement");
    BG_EXPECTS(!is_in_tfi(lit_var(repl), v),
               "replace would create a combinational cycle");

    // Keep the replacement alive throughout, even if cascading merges
    // temporarily strip all its other references.
    const Var rv = lit_var(repl);
    ref_var(rv);

    // Patch AND fanouts one at a time; each patch removes exactly one
    // occurrence of v from its fanout list (possibly recursively).
    while (!fanouts_.empty(v)) {
        patch_fanout(fanouts_.front(v), v, repl);
    }

    // Patch PO references.
    for (auto& po : pos_) {
        if (lit_var(po) == v) {
            po = lit_not_cond(repl, lit_is_compl(po));
            --po_ref_counts_[v];
            ++po_ref_counts_[lit_var(po)];
            deref_var(v);
            ref_var(lit_var(po));
        }
    }

    delete_unreferenced(v);
    deref_var(rv);
    delete_unreferenced(rv);
}

Aig Aig::compact(std::vector<Lit>* old_to_new) const {
    Aig out;
    out.reserve(1 + num_pis() + num_ands());
    std::vector<Lit> map(nodes_.size(), null_lit);
    map[0] = lit_false;
    for (const Var v : pis_) {
        map[v] = out.add_pi();
    }
    for (const Var v : topo_ands()) {
        const Lit f0 = map[nodes_[v].fanin0.index()];
        const Lit f1 = map[nodes_[v].fanin1.index()];
        BG_ASSERT(f0 != null_lit && f1 != null_lit,
                  "compact: fanin not yet mapped");
        map[v] =
            out.and_(lit_not_cond(f0, nodes_[v].fanin0.complemented()),
                     lit_not_cond(f1, nodes_[v].fanin1.complemented()));
    }
    for (const Lit po : pos_) {
        const Lit m = map[lit_var(po)];
        BG_ASSERT(m != null_lit, "compact: PO driver not mapped");
        out.add_po(lit_not_cond(m, lit_is_compl(po)));
    }
    if (old_to_new != nullptr) {
        *old_to_new = std::move(map);
    }
    return out;
}

void Aig::check_integrity(CheckLevel level) const {
    if (level == CheckLevel::Strict) {
        // Arena/strash audits run first so their targeted diagnostics win
        // over the secondary symptoms (e.g. a duplicated fanout entry also
        // breaks the topological-order walk below).
        fanouts_.validate();
        BG_ASSERT(fanouts_.live_slots() == 2 * num_ands_,
                  "fanout arena live slots != 2 * live AND count");
        // Every per-node fanout list must equal (as a multiset — removal
        // is swap-with-back, so order is historical) the fanouts
        // recomputed from fanins.
        std::vector<std::vector<Var>> expected_fanouts(nodes_.size());
        for (Var v = 0; v < nodes_.size(); ++v) {
            const auto& n = nodes_[v];
            if (n.dead() || !n.is_and()) {
                continue;
            }
            expected_fanouts[n.fanin0.index()].push_back(v);
            expected_fanouts[n.fanin1.index()].push_back(v);
        }
        for (Var v = 0; v < nodes_.size(); ++v) {
            const auto list = fanouts_.list(v);
            std::vector<Var> got(list.begin(), list.end());
            std::sort(got.begin(), got.end());
            std::sort(expected_fanouts[v].begin(), expected_fanouts[v].end());
            BG_ASSERT(got == expected_fanouts[v],
                      "fanout list diverges from recomputed fanouts at var " +
                          std::to_string(v));
        }
        // Walk the whole strash table: every live entry must name a live
        // AND whose recomputed key matches — no stale or tombstoned hit
        // is reachable.
        std::size_t strash_entries = 0;
        strash_.for_each([&](std::uint64_t key, Var v) {
            ++strash_entries;
            BG_ASSERT(v < nodes_.size(), "strash entry names an unknown var");
            const auto& n = nodes_[v];
            BG_ASSERT(!n.dead() && n.is_and(),
                      "strash entry names a dead or non-AND node: var " +
                          std::to_string(v));
            BG_ASSERT(strash_key(n.fanin0.lit(), n.fanin1.lit()) == key,
                      "strash entry key diverges from its node's fanins: "
                      "var " +
                          std::to_string(v));
        });
        BG_ASSERT(strash_entries == num_ands_,
                  "strash live-entry walk count != live AND count");
    }
    std::vector<std::uint32_t> expected_refs(nodes_.size(), 0);
    std::vector<std::uint32_t> expected_po_refs(nodes_.size(), 0);
    std::size_t live_ands = 0;

    for (Var v = 0; v < nodes_.size(); ++v) {
        const auto& n = nodes_[v];
        if (n.dead()) {
            BG_ASSERT(fanouts_.list(v).empty(), "dead node retains fanouts");
            continue;
        }
        if (!n.is_and()) {
            continue;
        }
        ++live_ands;
        const Var u0 = n.fanin0.index();
        const Var u1 = n.fanin1.index();
        BG_ASSERT(u0 < nodes_.size() && u1 < nodes_.size(),
                  "fanin out of range");
        BG_ASSERT(!nodes_[u0].dead() && !nodes_[u1].dead(),
                  "live node references a dead fanin");
        BG_ASSERT(n.fanin0.lit() <= n.fanin1.lit(), "fanins not normalized");
        BG_ASSERT(u0 != u1, "fanins share a variable");
        ++expected_refs[u0];
        ++expected_refs[u1];
        // Fanout symmetry.
        for (const Var u : {u0, u1}) {
            const auto list = fanouts_.list(u);
            BG_ASSERT(std::find(list.begin(), list.end(), v) != list.end(),
                      "fanin lacks the fanout back-reference");
        }
        // Strash consistency.
        BG_ASSERT(strash_.find(strash_key(n.fanin0.lit(), n.fanin1.lit())) ==
                      v,
                  "strash table out of sync with node");
    }
    for (const Lit po : pos_) {
        BG_ASSERT(!nodes_[lit_var(po)].dead(), "PO references a dead node");
        ++expected_refs[lit_var(po)];
        ++expected_po_refs[lit_var(po)];
    }
    for (Var v = 0; v < nodes_.size(); ++v) {
        BG_ASSERT(po_ref_counts_[v] == expected_po_refs[v],
                  "PO reference count mismatch at var " + std::to_string(v));
        if (nodes_[v].dead()) {
            continue;
        }
        BG_ASSERT(nodes_[v].ref == expected_refs[v],
                  "reference count mismatch at var " + std::to_string(v));
        for (const Var f : fanouts_.list(v)) {
            BG_ASSERT(!nodes_[f].dead(), "fanout list references a dead node");
            BG_ASSERT(nodes_[f].fanin0.index() == v ||
                          nodes_[f].fanin1.index() == v,
                      "fanout back-reference without matching fanin");
        }
    }
    BG_ASSERT(live_ands == num_ands_, "live AND-node count out of sync");
    BG_ASSERT(strash_.size() == num_ands_, "strash size out of sync");
    // Acyclicity: a full topological order must exist.
    std::size_t live_total = 0;
    for (Var v = 0; v < nodes_.size(); ++v) {
        live_total += nodes_[v].dead() ? 0 : 1;
    }
    BG_ASSERT(topo_all().size() == live_total,
              "graph contains a combinational cycle");
}

void Aig::corrupt_for_test(Corrupt kind, Var v) {
    switch (kind) {
        case Corrupt::RefCount:
            ++nodes_[v].ref;
            break;
        case Corrupt::FanoutDup:
            BG_EXPECTS(!fanouts_.list(v).empty(),
                       "FanoutDup needs a node with fanouts");
            fanouts_.push_back(v, fanouts_.front(v));
            break;
        case Corrupt::StrashDrop:
            BG_EXPECTS(nodes_[v].is_and() && !nodes_[v].dead(),
                       "StrashDrop needs a live AND node");
            strash_.erase(
                strash_key(nodes_[v].fanin0.lit(), nodes_[v].fanin1.lit()));
            break;
    }
}

std::string Aig::to_string() const {
    std::ostringstream os;
    os << "aig: pis=" << num_pis() << " pos=" << num_pos()
       << " ands=" << num_ands();
    return os.str();
}

}  // namespace bg::aig
