#include "cut/cut_enum.hpp"

#include <algorithm>
#include <deque>

#include "aig/footprint.hpp"
#include "tt/word_ops.hpp"
#include "util/contracts.hpp"

namespace bg::cut {

using aig::Aig;
using aig::Lit;
using aig::Var;
using tt::TruthTable;

std::vector<Cut> enumerate_cuts(const Aig& g, Var root, unsigned k,
                                std::size_t max_cuts) {
    BG_EXPECTS(k >= 2 && k <= 8, "cut size must be in [2, 8]");
    BG_EXPECTS(g.is_and(root), "cuts are enumerated for AND nodes");

    aig::fp_touch(root, aig::Read::Struct);
    std::vector<Cut> out;
    // Seen leaf-sets: the expansion budget keeps this small (a few
    // hundred short sorted vectors), so a flat vector with linear lookup
    // replaces the old node-based std::set on this per-candidate path.
    std::vector<std::vector<Var>> seen;
    std::deque<std::vector<Var>> frontier;
    frontier.push_back({root});
    seen.push_back({root});

    // Bound the total expansion work independently of max_cuts.
    std::size_t budget = std::max<std::size_t>(max_cuts * 8, 256);

    while (!frontier.empty() && out.size() < max_cuts && budget-- > 0) {
        const auto cut = frontier.front();
        frontier.pop_front();
        // Try expanding each AND leaf.
        for (std::size_t i = 0; i < cut.size(); ++i) {
            const Var leaf = cut[i];
            aig::fp_touch(leaf, aig::Read::Struct);
            if (!g.is_and(leaf)) {
                continue;
            }
            std::vector<Var> next;
            next.reserve(cut.size() + 1);
            for (std::size_t j = 0; j < cut.size(); ++j) {
                if (j != i) {
                    next.push_back(cut[j]);
                }
            }
            for (const aig::NodeRef f : g.fanin_refs(leaf)) {
                const Var u = f.index();
                aig::fp_touch(u, aig::Read::Struct);
                if (u != 0 &&
                    std::find(next.begin(), next.end(), u) == next.end()) {
                    next.push_back(u);
                }
            }
            if (next.size() > k) {
                continue;
            }
            std::sort(next.begin(), next.end());
            if (std::find(seen.begin(), seen.end(), next) != seen.end()) {
                continue;
            }
            seen.push_back(next);
            frontier.push_back(next);
            // The trivial cut {root} is skipped; everything else is real.
            if (!(next.size() == 1 && next[0] == root)) {
                Cut c;
                c.leaves = next;
                c.function = cone_function(g, root, c.leaves);
                out.push_back(std::move(c));
                if (out.size() >= max_cuts) {
                    break;
                }
            }
        }
    }
    return out;
}

std::vector<Var> reconv_cut(const Aig& g, Var root, unsigned max_leaves) {
    BG_EXPECTS(max_leaves >= 2, "a cut needs at least two leaves");
    aig::fp_touch(root, aig::Read::Struct);
    if (!g.is_and(root)) {
        return {};
    }
    std::vector<Var> leaves{root};

    const auto expansion_cost = [&](Var leaf) {
        aig::fp_touch(leaf, aig::Read::Struct);
        int fresh = 0;
        for (const aig::NodeRef f : g.fanin_refs(leaf)) {
            const Var u = f.index();
            aig::fp_touch(u, aig::Read::Struct);
            if (u != 0 &&
                std::find(leaves.begin(), leaves.end(), u) == leaves.end()) {
                ++fresh;
            }
        }
        return fresh - 1;  // removing the leaf itself
    };

    while (true) {
        Var best = aig::null_var;
        int best_cost = 1000;
        for (const Var leaf : leaves) {
            if (!g.is_and(leaf)) {
                continue;
            }
            const int cost = expansion_cost(leaf);
            if (cost < best_cost) {
                best_cost = cost;
                best = leaf;
            }
        }
        if (best == aig::null_var) {
            break;  // all leaves are PIs
        }
        if (leaves.size() + static_cast<std::size_t>(
                                std::max(best_cost, 0)) > max_leaves &&
            best_cost > 0) {
            break;
        }
        // Expand `best`.
        leaves.erase(std::find(leaves.begin(), leaves.end(), best));
        for (const aig::NodeRef f : g.fanin_refs(best)) {
            const Var u = f.index();
            aig::fp_touch(u, aig::Read::Struct);
            if (u != 0 &&
                std::find(leaves.begin(), leaves.end(), u) == leaves.end()) {
                leaves.push_back(u);
            }
        }
        BG_ASSERT(leaves.size() <= max_leaves, "cut expansion overflow");
    }
    if (leaves.size() == 1 && leaves[0] == root) {
        return {};
    }
    std::sort(leaves.begin(), leaves.end());
    return leaves;
}

void ConeWindow::build(const Aig& g, Var root,
                       std::span<const Var> leaves) {
    BG_EXPECTS(leaves.size() <= 16, "cone function capped at 16 leaves");
    num_vars_ = static_cast<unsigned>(leaves.size());
    words_ = tt::words::word_count(num_vars_);
    vars_.clear();
    table_.clear();
    index_.reset(g.num_slots());
    for (unsigned i = 0; i < num_vars_; ++i) {
        index_.slot(leaves[i]) = static_cast<std::uint32_t>(vars_.size());
        vars_.push_back(leaves[i]);
        // The projection x_i, as TruthTable::nth_var lays it out.
        for (std::size_t w = 0; w < words_; ++w) {
            const bool high = i >= 6 && ((w >> (i - 6)) & 1U) != 0;
            table_.push_back(i < 6 ? ~tt::words::var0_mask[i]
                                   : (high ? ~0ULL : 0ULL));
        }
    }
    // Iterative post-order evaluation from the root.
    aig::fp_touch(root, aig::Read::Struct);
    stack_.assign(1, root);
    while (!stack_.empty()) {
        const Var v = stack_.back();
        if (index_.contains(v)) {
            stack_.pop_back();
            continue;
        }
        BG_ASSERT(g.is_and(v),
                  "cone walk escaped the cut (leaves do not form a cut)");
        const auto [f0, f1] = g.fanin_refs(v);
        aig::fp_touch(v, aig::Read::Struct);
        const Var u0 = f0.index();
        const Var u1 = f1.index();
        aig::fp_touch(u0, aig::Read::Struct);
        aig::fp_touch(u1, aig::Read::Struct);
        const bool need0 = u0 != 0 && !index_.contains(u0);
        const bool need1 = u1 != 0 && !index_.contains(u1);
        if (need0) {
            stack_.push_back(u0);
        }
        if (need1) {
            stack_.push_back(u1);
        }
        if (need0 || need1) {
            continue;
        }
        stack_.pop_back();
        add_and(v, f0, f1);
    }
}

void ConeWindow::add_and(Var v, aig::NodeRef f0, aig::NodeRef f1) {
    const std::size_t e = vars_.size();
    index_.slot(v) = static_cast<std::uint32_t>(e);
    vars_.push_back(v);
    table_.resize(table_.size() + words_);
    // The constant var is never an entry: it reads as all-zero words.
    const auto word = [&](aig::NodeRef r, std::size_t w) -> std::uint64_t {
        const std::uint64_t x =
            r.index() == 0 ? 0 : table_[index_.at(r.index()) * words_ + w];
        return r.complemented() ? ~x : x;
    };
    for (std::size_t w = 0; w < words_; ++w) {
        table_[e * words_ + w] = word(f0, w) & word(f1, w);
    }
}

TruthTable ConeWindow::to_tt(std::size_t e) const {
    TruthTable t(num_vars_);
    std::copy_n(function(e), words_, t.words().begin());
    return t;
}

TruthTable cone_function(const Aig& g, Var root,
                         std::span<const Var> leaves) {
    thread_local ConeWindow window;
    window.build(g, root, leaves);
    return window.to_tt(window.index(root));
}

}  // namespace bg::cut
