#include "tt/factor.hpp"

#include <algorithm>
#include <bit>
#include <functional>

#include "util/contracts.hpp"

namespace bg::tt {

bool FactorForm::is_constant() const {
    if (root_ < 0) {
        return true;
    }
    const auto k = nodes_[static_cast<std::size_t>(root_)].kind;
    return k == FactorNode::Kind::Const0 || k == FactorNode::Kind::Const1;
}

int FactorForm::add_const(bool one) {
    FactorNode n;
    n.kind = one ? FactorNode::Kind::Const1 : FactorNode::Kind::Const0;
    nodes_.push_back(n);
    return static_cast<int>(nodes_.size()) - 1;
}

int FactorForm::add_lit(unsigned var, bool negated) {
    BG_EXPECTS(var < num_vars_, "literal variable out of range");
    FactorNode n;
    n.kind = FactorNode::Kind::Lit;
    n.var = var;
    n.negated = negated;
    nodes_.push_back(n);
    return static_cast<int>(nodes_.size()) - 1;
}

int FactorForm::add_and(int left, int right) {
    const auto kind_of = [&](int i) {
        return nodes_[static_cast<std::size_t>(i)].kind;
    };
    if (kind_of(left) == FactorNode::Kind::Const0 ||
        kind_of(right) == FactorNode::Kind::Const0) {
        return add_const(false);
    }
    if (kind_of(left) == FactorNode::Kind::Const1) {
        return right;
    }
    if (kind_of(right) == FactorNode::Kind::Const1) {
        return left;
    }
    FactorNode n;
    n.kind = FactorNode::Kind::And;
    n.left = left;
    n.right = right;
    nodes_.push_back(n);
    return static_cast<int>(nodes_.size()) - 1;
}

int FactorForm::add_or(int left, int right) {
    const auto kind_of = [&](int i) {
        return nodes_[static_cast<std::size_t>(i)].kind;
    };
    if (kind_of(left) == FactorNode::Kind::Const1 ||
        kind_of(right) == FactorNode::Kind::Const1) {
        return add_const(true);
    }
    if (kind_of(left) == FactorNode::Kind::Const0) {
        return right;
    }
    if (kind_of(right) == FactorNode::Kind::Const0) {
        return left;
    }
    FactorNode n;
    n.kind = FactorNode::Kind::Or;
    n.left = left;
    n.right = right;
    nodes_.push_back(n);
    return static_cast<int>(nodes_.size()) - 1;
}

std::size_t FactorForm::literal_count() const {
    std::size_t n = 0;
    std::function<void(int)> walk = [&](int i) {
        if (i < 0) {
            return;
        }
        const auto& node = nodes_[static_cast<std::size_t>(i)];
        if (node.kind == FactorNode::Kind::Lit) {
            ++n;
        } else if (node.kind == FactorNode::Kind::And ||
                   node.kind == FactorNode::Kind::Or) {
            walk(node.left);
            walk(node.right);
        }
    };
    walk(root_);
    return n;
}

std::size_t FactorForm::aig_node_count() const {
    std::size_t n = 0;
    std::function<void(int)> walk = [&](int i) {
        if (i < 0) {
            return;
        }
        const auto& node = nodes_[static_cast<std::size_t>(i)];
        if (node.kind == FactorNode::Kind::And ||
            node.kind == FactorNode::Kind::Or) {
            ++n;
            walk(node.left);
            walk(node.right);
        }
    };
    walk(root_);
    return n;
}

std::size_t FactorForm::depth() const {
    std::function<std::size_t(int)> walk = [&](int i) -> std::size_t {
        if (i < 0) {
            return 0;
        }
        const auto& node = nodes_[static_cast<std::size_t>(i)];
        if (node.kind == FactorNode::Kind::And ||
            node.kind == FactorNode::Kind::Or) {
            return 1 + std::max(walk(node.left), walk(node.right));
        }
        return 0;
    };
    return walk(root_);
}

TruthTable FactorForm::to_tt() const {
    std::function<TruthTable(int)> eval = [&](int i) -> TruthTable {
        BG_ASSERT(i >= 0, "evaluating an empty factored form");
        const auto& node = nodes_[static_cast<std::size_t>(i)];
        switch (node.kind) {
            case FactorNode::Kind::Const0:
                return TruthTable::zeros(num_vars_);
            case FactorNode::Kind::Const1:
                return TruthTable::ones(num_vars_);
            case FactorNode::Kind::Lit: {
                auto t = TruthTable::nth_var(num_vars_, node.var);
                return node.negated ? ~t : t;
            }
            case FactorNode::Kind::And:
                return eval(node.left) & eval(node.right);
            case FactorNode::Kind::Or:
                return eval(node.left) | eval(node.right);
        }
        return TruthTable::zeros(num_vars_);
    };
    if (root_ < 0) {
        return TruthTable::zeros(num_vars_);
    }
    return eval(root_);
}

std::string FactorForm::to_string() const {
    const auto var_name = [](unsigned v) -> std::string {
        if (v < 26) {
            return std::string(1, static_cast<char>('a' + v));
        }
        return std::string(1, 'x').append(std::to_string(v));
    };
    std::function<std::string(int, bool)> render =
        [&](int i, bool parent_and) -> std::string {
        if (i < 0) {
            return "0";
        }
        const auto& node = nodes_[static_cast<std::size_t>(i)];
        switch (node.kind) {
            case FactorNode::Kind::Const0:
                return "0";
            case FactorNode::Kind::Const1:
                return "1";
            case FactorNode::Kind::Lit:
                return std::string(node.negated ? "!" : "")
                    .append(var_name(node.var));
            case FactorNode::Kind::And:
                return render(node.left, true) + render(node.right, true);
            case FactorNode::Kind::Or: {
                const std::string body = render(node.left, false) + " + " +
                                         render(node.right, false);
                return parent_and ? "(" + body + ")" : body;
            }
        }
        return "?";
    };
    return render(root_, false);
}

namespace {

/// Balanced tree reduction of a list of node indices.
int reduce_balanced(FactorForm& ff, std::vector<int> items, bool is_and) {
    BG_ASSERT(!items.empty(), "cannot reduce an empty list");
    while (items.size() > 1) {
        std::vector<int> next;
        next.reserve((items.size() + 1) / 2);
        for (std::size_t i = 0; i + 1 < items.size(); i += 2) {
            next.push_back(is_and ? ff.add_and(items[i], items[i + 1])
                                  : ff.add_or(items[i], items[i + 1]));
        }
        if (items.size() % 2 == 1) {
            next.push_back(items.back());
        }
        items = std::move(next);
    }
    return items[0];
}

/// Build a balanced AND of a cube's literals.
int build_cube(FactorForm& ff, const Cube& cube, unsigned num_vars) {
    std::vector<int> lits;
    for (unsigned v = 0; v < num_vars; ++v) {
        if ((cube.pos >> v) & 1U) {
            lits.push_back(ff.add_lit(v, false));
        } else if ((cube.neg >> v) & 1U) {
            lits.push_back(ff.add_lit(v, true));
        }
    }
    if (lits.empty()) {
        return ff.add_const(true);
    }
    return reduce_balanced(ff, std::move(lits), /*is_and=*/true);
}

/// Most frequent literal across the cover; returns false if no literal
/// appears in two or more cubes (the cover is then literal-disjoint).
bool best_literal(const std::vector<Cube>& cubes, unsigned num_vars,
                  unsigned& var, bool& positive) {
    std::size_t best = 1;  // need at least 2 occurrences to divide
    bool found = false;
    for (unsigned v = 0; v < num_vars; ++v) {
        std::size_t pos_n = 0;
        std::size_t neg_n = 0;
        for (const auto& c : cubes) {
            pos_n += (c.pos >> v) & 1U;
            neg_n += (c.neg >> v) & 1U;
        }
        if (pos_n > best) {
            best = pos_n;
            var = v;
            positive = true;
            found = true;
        }
        if (neg_n > best) {
            best = neg_n;
            var = v;
            positive = false;
            found = true;
        }
    }
    return found;
}

int factor_rec(FactorForm& ff, std::vector<Cube> cubes, unsigned num_vars) {
    BG_ASSERT(!cubes.empty(), "factoring an empty cover");
    // Constant-1 short circuit: an empty cube absorbs everything.
    for (const auto& c : cubes) {
        if (c.num_literals() == 0) {
            return ff.add_const(true);
        }
    }
    if (cubes.size() == 1) {
        return build_cube(ff, cubes[0], num_vars);
    }

    unsigned var = 0;
    bool positive = true;
    if (!best_literal(cubes, num_vars, var, positive)) {
        // No sharable literal: plain balanced OR of cube ANDs.
        std::vector<int> terms;
        terms.reserve(cubes.size());
        for (const auto& c : cubes) {
            terms.push_back(build_cube(ff, c, num_vars));
        }
        return reduce_balanced(ff, std::move(terms), /*is_and=*/false);
    }

    // Weak division by the literal: F = lit * Q + R.
    const std::uint32_t bit = 1U << var;
    std::vector<Cube> quotient;
    std::vector<Cube> remainder;
    for (auto c : cubes) {
        const bool in_q = positive ? ((c.pos & bit) != 0)
                                   : ((c.neg & bit) != 0);
        if (in_q) {
            if (positive) {
                c.pos &= ~bit;
            } else {
                c.neg &= ~bit;
            }
            quotient.push_back(c);
        } else {
            remainder.push_back(c);
        }
    }
    BG_ASSERT(quotient.size() >= 2, "division must strip >= 2 cubes");

    const int lit = ff.add_lit(var, !positive);
    const int q = factor_rec(ff, std::move(quotient), num_vars);
    const int lq = ff.add_and(lit, q);
    if (remainder.empty()) {
        return lq;
    }
    const int r = factor_rec(ff, std::move(remainder), num_vars);
    return ff.add_or(lq, r);
}

}  // namespace

FactorForm factor(const Sop& sop) {
    FactorForm ff(sop.num_vars());
    if (sop.empty()) {
        ff.set_root(ff.add_const(false));
        return ff;
    }
    ff.set_root(factor_rec(ff, sop.cubes(), sop.num_vars()));
    BG_ENSURES(ff.to_tt() == sop.to_tt(),
               "factored form must preserve the cover's function");
    return ff;
}

}  // namespace bg::tt
