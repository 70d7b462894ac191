#pragma once

/// Shared helpers for the model parity tests.

#include "core/model.hpp"
#include "util/rng.hpp"

namespace bg::test {

/// Moves every parameter off its initial value, the way training does.
/// A fresh model's biases and BatchNorm shifts are exactly zero, which
/// would hide a kernel that reorders the bias add; eval-vs-train parity
/// checks should run on perturbed parameters.
inline void perturb_params(core::BoolGebraModel& model, bg::Rng& rng) {
    for (const auto& p : model.params()) {
        for (std::size_t i = 0; i < p.size; ++i) {
            p.value[i] += 0.2F * rng.next_float() - 0.1F;
        }
    }
}

}  // namespace bg::test
