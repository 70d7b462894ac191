#include "tt/sop.hpp"

#include <bit>

#include "util/contracts.hpp"

namespace bg::tt {

unsigned Cube::num_literals() const {
    return static_cast<unsigned>(std::popcount(pos) + std::popcount(neg));
}

std::size_t Sop::num_literals() const {
    std::size_t total = 0;
    for (const auto& c : cubes_) {
        total += c.num_literals();
    }
    return total;
}

TruthTable cube_to_tt(const Cube& c, unsigned num_vars) {
    BG_EXPECTS((c.pos & c.neg) == 0, "cube has contradictory literals");
    TruthTable t = TruthTable::ones(num_vars);
    for (unsigned v = 0; v < num_vars; ++v) {
        if ((c.pos >> v) & 1U) {
            t &= TruthTable::nth_var(num_vars, v);
        } else if ((c.neg >> v) & 1U) {
            t &= ~TruthTable::nth_var(num_vars, v);
        }
    }
    return t;
}

TruthTable Sop::to_tt() const {
    TruthTable t(num_vars_);
    for (const auto& c : cubes_) {
        t |= cube_to_tt(c, num_vars_);
    }
    return t;
}

std::size_t Sop::literal_occurrences(unsigned var, bool positive) const {
    std::size_t n = 0;
    for (const auto& c : cubes_) {
        const std::uint32_t mask = positive ? c.pos : c.neg;
        n += (mask >> var) & 1U;
    }
    return n;
}

std::string Sop::to_string() const {
    if (cubes_.empty()) {
        return "0";
    }
    const auto var_name = [](unsigned v) {
        if (v < 26) {
            return std::string(1, static_cast<char>('a' + v));
        }
        return std::string(1, 'x').append(std::to_string(v));
    };
    std::string out;
    for (std::size_t i = 0; i < cubes_.size(); ++i) {
        if (i > 0) {
            out += " + ";
        }
        const auto& c = cubes_[i];
        if (c.num_literals() == 0) {
            out += "1";
            continue;
        }
        for (unsigned v = 0; v < num_vars_; ++v) {
            if ((c.pos >> v) & 1U) {
                out += var_name(v);
            } else if ((c.neg >> v) & 1U) {
                out += '!';
                out += var_name(v);
            }
        }
    }
    return out;
}

}  // namespace bg::tt
