// Parallel radix machinery (following Zagha & Blelloch). ParallelStableSplit
// is one parallel counting pass that splits items into buckets with
// sequential-write locality. ParallelRadixSort sorts fixed-size records with
// integer keys, `digit_bits` at a time (default 8, i.e. 256 buckets): a split
// on the most significant digit, then independent per-bucket LSD sorts; grids
// and range partitions use it. The radix CSR build (csr_builder.cc) sorts no
// records: it follows the split with a per-bucket placement straight into
// the CSR arrays.
#ifndef SRC_LAYOUT_RADIX_SORT_H_
#define SRC_LAYOUT_RADIX_SORT_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/parallel.h"

namespace egraph {

namespace radix_internal {

// Sequential LSD radix sort of records[lo, hi) over key bits [0, top_shift),
// used within a top-level bucket (the top digit is already equal).
template <typename Record, typename KeyFn>
void SortBucketLsd(std::vector<Record>& records, std::vector<Record>& scratch, size_t lo,
                   size_t hi, int top_shift, int digit_bits, const KeyFn& key) {
  const uint32_t radix = 1u << digit_bits;
  const uint32_t mask = radix - 1;
  std::vector<uint32_t> counts(radix);
  bool in_records = true;
  for (int shift = 0; shift < top_shift; shift += digit_bits) {
    std::fill(counts.begin(), counts.end(), 0u);
    const Record* src = (in_records ? records.data() : scratch.data());
    Record* dst = (in_records ? scratch.data() : records.data());
    for (size_t i = lo; i < hi; ++i) {
      ++counts[(key(src[i]) >> shift) & mask];
    }
    uint32_t running = 0;
    for (uint32_t d = 0; d < radix; ++d) {
      const uint32_t count = counts[d];
      counts[d] = running;
      running += count;
    }
    for (size_t i = lo; i < hi; ++i) {
      dst[lo + counts[(key(src[i]) >> shift) & mask]++] = src[i];
    }
    in_records = !in_records;
  }
  if (!in_records) {
    for (size_t i = lo; i < hi; ++i) {
      records[i] = scratch[i];
    }
  }
}

}  // namespace radix_internal

// Stable parallel split of items [0, n) into buckets [0, num_buckets): a
// per-chunk histogram of bucket(i), then a scatter that calls
// place(i, slot) with each item's destination slot. Slots within a bucket
// follow input order, so the split is stable at any thread count. Returns
// the bucket boundaries (num_buckets + 1 entries).
template <typename BucketFn, typename PlaceFn>
std::vector<uint64_t> ParallelStableSplit(size_t n, size_t num_buckets, const BucketFn& bucket,
                                          const PlaceFn& place) {
  const int num_chunks = ThreadPool::Current().num_threads() * 4;
  const size_t chunk_size = (n + num_chunks - 1) / num_chunks;
  // cursors[c][b]: write cursor of chunk c within bucket b (a stable,
  // race-free scatter).
  std::vector<std::vector<uint64_t>> cursors(static_cast<size_t>(num_chunks),
                                             std::vector<uint64_t>(num_buckets, 0));
  auto for_each_item = [&](const auto& body) {
    ParallelFor(0, num_chunks, [&](int64_t c) {
      const size_t lo = std::min(static_cast<size_t>(c) * chunk_size, n);
      const size_t hi = std::min(lo + chunk_size, n);
      std::vector<uint64_t>& cursor = cursors[static_cast<size_t>(c)];
      for (size_t i = lo; i < hi; ++i) {
        body(cursor, i);
      }
    });
  };
  for_each_item([&](std::vector<uint64_t>& count, size_t i) { ++count[bucket(i)]; });
  std::vector<uint64_t> bucket_start(num_buckets + 1, 0);
  uint64_t running = 0;
  for (size_t b = 0; b < num_buckets; ++b) {
    bucket_start[b] = running;
    for (std::vector<uint64_t>& cursor : cursors) {
      running += std::exchange(cursor[b], running);
    }
  }
  bucket_start[num_buckets] = running;
  for_each_item([&](std::vector<uint64_t>& cursor, size_t i) { place(i, cursor[bucket(i)]++); });
  return bucket_start;
}

// Sorts `records` by key(record), where keys lie in [0, num_keys).
// `digit_bits` in [1, 16] selects the radix (ablation knob; the paper uses 8).
template <typename Record, typename KeyFn>
void ParallelRadixSort(std::vector<Record>& records, uint64_t num_keys, const KeyFn& key,
                       int digit_bits = 8) {
  const size_t n = records.size();
  if (n < 2) {
    return;
  }
  const int key_bits = num_keys <= 1 ? 1 : std::bit_width(num_keys - 1);
  const uint32_t radix = 1u << digit_bits;
  const uint32_t mask = radix - 1;
  // Highest digit position covering the key range.
  const int top_shift = ((key_bits - 1) / digit_bits) * digit_bits;

  // --- Top-level parallel split on the most significant digit ---
  std::vector<Record> scratch(n);
  const std::vector<uint64_t> bucket_start = ParallelStableSplit(
      n, radix, [&](size_t i) { return (key(records[i]) >> top_shift) & mask; },
      [&](size_t i, uint64_t slot) { scratch[slot] = records[i]; });
  records.swap(scratch);
  if (top_shift == 0) {
    return;  // a single digit: the split sorted everything
  }

  // --- Per-bucket parallel recursion over the remaining digits ---
  ParallelForGrain(0, radix, /*grain=*/1, [&](int64_t d) {
    const size_t lo = bucket_start[static_cast<size_t>(d)];
    const size_t hi = bucket_start[static_cast<size_t>(d) + 1];
    if (hi - lo > 1) {
      radix_internal::SortBucketLsd(records, scratch, lo, hi, top_shift, digit_bits, key);
    }
  });
}

}  // namespace egraph

#endif  // SRC_LAYOUT_RADIX_SORT_H_
