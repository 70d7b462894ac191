#include "opt/orchestrate.hpp"

#include <charconv>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/contracts.hpp"
#include "util/csv.hpp"

namespace bg::opt {

using aig::Aig;
using aig::Var;

OrchestrationResult orchestrate(Aig& g, std::span<const OpKind> decisions,
                                const OptParams& params,
                                const Objective& objective) {
    BG_EXPECTS(decisions.size() >= g.num_slots(),
               "decision vector must cover every var id");
    params.validate();
    OrchestrationResult res;
    res.original_size = g.num_ands();
    res.original_depth = g.depth();  // freshens levels as a side effect
    res.applied.assign(g.num_slots(), OpKind::None);

    // Depth-aware objectives read each check's local depth delta, which is
    // only meaningful against fresh levels; refresh lazily after applies.
    const bool track_levels = objective.needs_depth();
    bool levels_stale = false;

    // Snapshot the traversal order; nodes created by transformations get
    // higher ids and are deliberately not revisited in this pass.
    const auto order = g.topo_ands();
    for (const Var v : order) {
        if (g.is_dead(v)) {
            continue;  // consumed by an earlier transformation
        }
        const OpKind op = decisions[v];
        if (op == OpKind::None) {
            continue;
        }
        poll_cancel(params.cancel, "orchestrate");
        ++res.num_checked;
        if (track_levels && levels_stale) {
            g.update_levels();
            levels_stale = false;
        }
        const CheckResult check = check_op(g, v, op, params);
        if (!check.applicable) {
            continue;
        }
        if (!objective.accepts(check.gain)) {
            ++res.num_rejected;
            continue;
        }
        apply_candidate(g, v, check.cand);
        levels_stale = true;
        res.applied[v] = op;
        ++res.num_applied;
    }
    res.final_size = g.num_ands();
    res.final_depth = g.depth();
    return res;
}

DecisionVector uniform_decisions(const Aig& g, OpKind op) {
    return DecisionVector(g.num_slots(), op);
}

void save_decisions_csv(const std::filesystem::path& path,
                        std::span<const OpKind> decisions) {
    CsvTable t;
    t.header = {"node", "decision"};
    for (std::size_t v = 0; v < decisions.size(); ++v) {
        t.rows.push_back(
            {std::to_string(v), std::to_string(op_index(decisions[v]))});
    }
    save_csv(path, t);
}

namespace {

/// The whole field as a decimal integer, or nullopt.  from_chars takes no
/// sign, whitespace or suffix that the field does not spell out, and
/// reports overflow instead of wrapping.
template <class T>
std::optional<T> parse_field(std::string_view text) {
    T value{};
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || end != text.data() + text.size()) {
        return std::nullopt;
    }
    return value;
}

}  // namespace

DecisionVector load_decisions_csv(const std::filesystem::path& path) {
    const auto t = load_csv(path, /*has_header=*/true);
    DecisionVector out;
    out.reserve(t.rows.size());
    for (const auto& row : t.rows) {
        const auto fail = [&](const std::string& what) {
            return std::runtime_error(path.string() + ": decision CSV row " +
                                      std::to_string(out.size() + 1) + ": " +
                                      what);
        };
        if (row.size() != 2) {
            throw fail("needs 2 columns, has " + std::to_string(row.size()));
        }
        const auto node = parse_field<std::size_t>(row[0]);
        if (!node) {
            throw fail("node '" + row[0] + "' is not a decimal integer");
        }
        if (*node != out.size()) {
            throw fail("node " + row[0] + " breaks the dense 0, 1, 2, ... "
                       "indexing");
        }
        const auto op = parse_field<int>(row[1]);
        if (!op || *op < 0 || *op > 3) {
            throw fail("decision '" + row[1] + "' is not one of 0, 1, 2, 3");
        }
        out.push_back(op_from_index(*op));
    }
    return out;
}

}  // namespace bg::opt
