#pragma once

/// \file orchestrate.hpp
/// Algorithm 1 of the paper: a single topological traversal of the AIG in
/// which every node carries its own manipulation decision D[v] from
/// {rw, rs, rf} (or none).  Each node is checked for transformability
/// w.r.t. its assigned operation and, when applicable, the transformation
/// is applied and the graph updated before moving to the next unseen node.

#include <filesystem>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "opt/objective.hpp"
#include "opt/transform.hpp"

namespace bg::opt {

/// Per-node decision vector; index = Var id of the graph at entry.
using DecisionVector = std::vector<OpKind>;

struct OrchestrationResult {
    std::size_t original_size = 0;   ///< AND count before the pass
    std::size_t final_size = 0;      ///< AND count after the pass
    std::uint32_t original_depth = 0;
    std::uint32_t final_depth = 0;
    /// Operation actually applied at each original var (None elsewhere) —
    /// this is exactly the paper's *dynamic* feature source.
    std::vector<OpKind> applied;
    std::size_t num_checked = 0;
    std::size_t num_applied = 0;
    /// Applicable candidates the objective vetoed (always 0 under the
    /// default SizeObjective, which accepts whatever the check accepts).
    std::size_t num_rejected = 0;

    int reduction() const {
        return static_cast<int>(original_size) -
               static_cast<int>(final_size);
    }
    int depth_reduction() const {
        return static_cast<int>(original_depth) -
               static_cast<int>(final_depth);
    }
};

/// Run Algorithm 1 in place.  `decisions` must cover every var id present
/// at entry (g.num_slots()); vars created during the pass are not visited
/// (they are "unseen" nodes in the paper's terminology).  The objective
/// gates which applicable candidates are committed: the default
/// SizeObjective applies every one (pre-objective behavior, bit-identical
/// results); depth-aware objectives keep the level annotation fresh so
/// each check's local depth delta is meaningful, and veto candidates
/// whose local gain they reject (counted in num_rejected).
OrchestrationResult orchestrate(aig::Aig& g,
                                std::span<const OpKind> decisions,
                                const OptParams& params = {},
                                const Objective& objective = size_objective());

/// Uniform decision vector (the same operation everywhere).
DecisionVector uniform_decisions(const aig::Aig& g, OpKind op);

/// Persist / load a decision vector in the paper's CSV form
/// (columns: node, decision; decision in {0, 1, 2, 3} = rw/rs/rf/none).
/// Loading throws std::runtime_error naming the offending row when a row
/// is malformed: a wrong column count, a field that is not wholly a
/// decimal integer, a node id out of sequence, or a decision outside
/// {0, 1, 2, 3}.
void save_decisions_csv(const std::filesystem::path& path,
                        std::span<const OpKind> decisions);
DecisionVector load_decisions_csv(const std::filesystem::path& path);

}  // namespace bg::opt
