#pragma once

/// \file visited.hpp
/// Epoch-stamped traversal scratch: the inline visited-ID replacement for
/// the per-walk `std::vector<char>` / hash-set marks the MFFC, cut and
/// TFI walks used to allocate on every call.  A walk bumps the
/// epoch (O(1) clear), stamps nodes as it visits them, and the next walk
/// reuses the same backing array.  Intended to live in thread_local
/// storage at each call-site so concurrent checks never share scratch.

#include <cstdint>
#include <vector>

namespace bg::aig {

/// A reusable visited set over dense u32 keys.  `clear()` bumps the epoch
/// instead of touching the array; a stamp matches only when it equals the
/// current epoch.  On epoch wraparound (once per ~4 billion clears with
/// the default 32-bit epoch) the array is zero-filled and the epoch
/// restarts at 1, so stale stamps from the previous cycle can never read
/// as visited.  The epoch type is a template parameter so the wrap path
/// is unit-testable with a small type (test_visited.cpp pins it with
/// std::uint8_t); production call-sites use the `EpochMarks` alias.
template <typename Epoch = std::uint32_t>
class BasicEpochMarks {
public:
    /// Start a fresh walk over a key space of `n` keys.
    void reset(std::size_t n) {
        if (stamps_.size() < n) {
            stamps_.resize(n, 0);
        }
        if (++epoch_ == 0) {  // wrapped: stale stamps now ambiguous
            stamps_.assign(stamps_.size(), 0);
            epoch_ = 1;
        }
    }

    bool test(std::uint32_t key) const { return stamps_[key] == epoch_; }

    void set(std::uint32_t key) { stamps_[key] = epoch_; }

    /// Mark `key`; returns true when it was not yet marked this walk.
    bool insert(std::uint32_t key) {
        if (stamps_[key] == epoch_) {
            return false;
        }
        stamps_[key] = epoch_;
        return true;
    }

    /// The current epoch value — exposed so the wraparound tests can
    /// observe where in the cycle the instance is.
    Epoch epoch() const { return epoch_; }

private:
    std::vector<Epoch> stamps_;
    Epoch epoch_ = 0;
};

using EpochMarks = BasicEpochMarks<>;

/// An epoch-stamped map over dense u32 keys: the hash-map replacement for
/// per-walk `unordered_map<Var, T>` scratch (e.g. MFFC reference
/// deficits).  Values from earlier walks are treated as absent; `slot()`
/// lazily re-initializes a stale slot to `init` on first touch.  Same
/// wraparound contract and epoch-type parameter as BasicEpochMarks.
template <typename T, typename Epoch = std::uint32_t>
class EpochMap {
public:
    void reset(std::size_t n, T init = T{}) {
        init_ = init;
        if (values_.size() < n) {
            values_.resize(n, init_);
            stamps_.resize(n, 0);
        }
        if (++epoch_ == 0) {
            stamps_.assign(stamps_.size(), 0);
            epoch_ = 1;
        }
    }

    bool contains(std::uint32_t key) const { return stamps_[key] == epoch_; }

    /// The value slot for `key` this walk (fresh slots start at `init`).
    T& slot(std::uint32_t key) {
        if (stamps_[key] != epoch_) {
            stamps_[key] = epoch_;
            values_[key] = init_;
        }
        return values_[key];
    }

    /// Read-only access; `key` must be contained this walk.
    const T& at(std::uint32_t key) const { return values_[key]; }

    /// The current epoch value (see BasicEpochMarks::epoch).
    Epoch epoch() const { return epoch_; }

private:
    std::vector<T> values_;
    std::vector<Epoch> stamps_;
    Epoch epoch_ = 0;
    T init_{};
};

}  // namespace bg::aig
