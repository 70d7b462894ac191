#pragma once

/// The benchmark's own output oracle: bit-parallel random simulation of
/// two AIGs on shared input patterns.  It reads graphs only through the
/// Aig accessors (PIs, POs, fanins) and orders nodes with its own DFS, so
/// it shares no code with the library's simulation or CEC engines.

#include <cstdint>
#include <string>

#include "aig/aig.hpp"

namespace perfbench {

struct OracleVerdict {
    bool equal = false;
    std::string why;  ///< first mismatch found, empty when equal
};

/// Compare `a` and `b` output by output on 64 * `words` random patterns
/// drawn from `seed`.  Interface mismatches (PI/PO counts) fail too.
OracleVerdict simulate_equal(const bg::aig::Aig& a, const bg::aig::Aig& b,
                             std::uint64_t seed, std::size_t words = 64);

}  // namespace perfbench
