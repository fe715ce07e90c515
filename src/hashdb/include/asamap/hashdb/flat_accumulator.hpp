#pragma once

/// \file flat_accumulator.hpp
/// The *native fast path* accumulator: an uninstrumented, cache-friendly
/// open-addressing map specialized for the begin/accumulate/finalize cycle
/// of FindBestCommunity and SpGEMM.
///
/// Everything else in hashdb/ exists to *model* hardware behaviour (every
/// probe emits sink events so the simulator can replay it).  FlatAccumulator
/// is the opposite: it is what you run when you just want the answer as fast
/// as the host CPU allows — the speed baseline the paper's simulated ASA
/// configurations are compared against, and the engine behind
/// `run_infomap` / `run_infomap_parallel` NullSink runs.
///
/// Design notes:
///   - Inline (key, epoch, pair-index) slots in one power-of-two array;
///     linear probing off a mix64 hash.  No per-slot allocation, no chains.
///   - Sparse reset: `begin()` bumps an epoch stamp instead of clearing the
///     table, so a fresh accumulation costs O(1) + O(pairs touched), never
///     O(capacity).  A vertex of degree d costs O(d) regardless of how big
///     the table grew on some earlier hub vertex.
///   - Pairs are materialized *during* accumulation into a contiguous
///     vector (each slot stores the pair's index), so `finalize()` is free
///     and returns first-touch-ordered pairs — the same pair order as the
///     DenseAccumulator, which the kernel's tie-breaking already makes
///     order-insensitive.
///   - No sink events, no simulated addresses: the concept's whole surface
///     compiles down to a handful of instructions per accumulate.
///   - Trail replay: `accumulate_traced()` also records which pair each call
///     landed in, and `replay()` adds a second row of values along that
///     trail with no probing.  The kernel uses it on a mirrored network,
///     where a vertex's in row is its out row: one hashed pass plus a replay
///     makes exactly the additions of two hashed passes, in the same order.

#include <cstdint>
#include <span>
#include <vector>

#include "asamap/hashdb/kv.hpp"
#include "asamap/support/hash.hpp"

namespace asamap::hashdb {

class FlatAccumulator {
 public:
  explicit FlatAccumulator(std::size_t initial_capacity = 256)
      : slots_(support::next_pow2(initial_capacity < 8 ? 8 : initial_capacity)) {
    pairs_.reserve(slots_.size());
  }

  /// Starts a fresh accumulation.  O(1): live entries from the previous
  /// cycle are invalidated by the epoch bump, not by touching memory.
  void begin() {
    pairs_.clear();
    trail_.clear();
    if (++epoch_ == 0) {  // epoch wrapped: stale stamps could alias
      for (Slot& s : slots_) s.epoch = 0;
      epoch_ = 1;
    }
  }

  /// key += value, inserting on first sight.
  void accumulate(std::uint32_t key, double value) { add(key, value); }

  /// accumulate(), also recording which pair `key` landed in, for replay().
  void accumulate_traced(std::uint32_t key, double value) {
    trail_.push_back(add(key, value));
  }

  /// Adds values[i] to the pair that the i-th accumulate_traced() call of
  /// this cycle landed in, for i in order: exactly the additions that
  /// accumulate(key_i, values[i]) would make once every key is present.
  /// `values` holds one entry per traced call.
  void replay(std::span<const double> values) noexcept {
    for (std::size_t i = 0; i < trail_.size(); ++i) {
      pairs_[trail_[i]].value += values[i];
    }
  }

  /// The accumulated (key, value) pairs in first-touch order.  Already
  /// contiguous — nothing to materialize.
  [[nodiscard]] std::span<const KeyValue> finalize() const noexcept {
    return pairs_;
  }

  [[nodiscard]] std::size_t distinct() const noexcept { return pairs_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  struct Slot {
    std::uint32_t key = 0;
    std::uint32_t epoch = 0;       ///< stamp of the cycle that owns this slot
    std::uint32_t pair_index = 0;  ///< where this key's running sum lives
  };

  /// key += value; returns the index of key's pair.
  std::uint32_t add(std::uint32_t key, double value) {
    std::size_t i = support::bucket_of(support::mix64(key), slots_.size());
    const std::size_t mask = slots_.size() - 1;
    for (;;) {
      Slot& s = slots_[i];
      if (s.epoch != epoch_) {  // empty this cycle: claim it
        const auto p = static_cast<std::uint32_t>(pairs_.size());
        s.key = key;
        s.epoch = epoch_;
        s.pair_index = p;
        pairs_.push_back(KeyValue{key, value});
        if (pairs_.size() * 2 >= slots_.size()) grow();
        return p;
      }
      if (s.key == key) {
        pairs_[s.pair_index].value += value;
        return s.pair_index;
      }
      i = (i + 1) & mask;
    }
  }

  /// Doubles the table, re-inserting only the current cycle's keys (the
  /// pairs vector *is* the touched list).  Pair indices, and so the trail,
  /// stay valid.
  void grow() {
    slots_.assign(slots_.size() * 2, Slot{});
    epoch_ = 1;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t p = 0; p < pairs_.size(); ++p) {
      std::size_t i =
          support::bucket_of(support::mix64(pairs_[p].key), slots_.size());
      while (slots_[i].epoch == epoch_) i = (i + 1) & mask;
      slots_[i] =
          Slot{pairs_[p].key, epoch_, static_cast<std::uint32_t>(p)};
    }
  }

  std::vector<Slot> slots_;       ///< power-of-two open-addressing table
  std::vector<KeyValue> pairs_;   ///< touched list + materialized output
  std::vector<std::uint32_t> trail_;  ///< pair index per traced call
  std::uint32_t epoch_ = 1;
};

}  // namespace asamap::hashdb
