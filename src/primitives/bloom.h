// Blocked Bloom filter for join-filter pushdown (sideways information
// passing). One key touches exactly one 64-byte block (a cache line /
// one DMEM word burst), setting one bit in each of the block's eight
// 64-bit lanes — the register-blocked design of Putze et al. as used
// by Impala/Kudu/Arrow.
//
// Hashing is the Mix64 family (common/mix64.h), deliberately
// independent of Crc32U64: CRC32 determines join bucket placement and
// partition fan-out, so reusing it would concentrate Bloom collisions
// on exactly the keys that already collide in the hash table. The
// Mix64 output is split: the high 32 bits select the block, the low
// 32 bits are salted per lane to pick the eight bit positions.
//
// Thread model: build is single-writer (one core builds the filter
// from the materialized build side); probes are lock-free concurrent
// reads. Both probe tiers (scalar/AVX2) compute the same exact
// integer function and are bit-identical.

#ifndef RAPID_PRIMITIVES_BLOOM_H_
#define RAPID_PRIMITIVES_BLOOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/mix64.h"

namespace rapid::primitives {

// Lane salts (odd multipliers from Impala's blocked Bloom); the top 6
// bits of (h32 * salt) index one bit within the lane's 64-bit word.
inline constexpr uint32_t kBloomSalt[8] = {
    0x47b6137bu, 0x44974d91u, 0x8824ad5bu, 0xa2b7289du,
    0x705495c7u, 0x2df1424bu, 0x9efc4947u, 0x5c6bfb31u};

inline constexpr size_t kBloomLanes = 8;
inline constexpr size_t kBloomBlockBytes = kBloomLanes * sizeof(uint64_t);

// Block index for a mixed hash (block count is a power of two).
inline size_t BloomBlockIndex(uint64_t h, uint32_t block_mask) {
  return static_cast<size_t>(static_cast<uint32_t>(h >> 32) & block_mask);
}

// Sets the key's eight bits in `block` (8 lanes).
inline void BloomBlockSet(uint64_t* block, uint32_t h32) {
  for (size_t lane = 0; lane < kBloomLanes; ++lane) {
    const uint32_t pos = (h32 * kBloomSalt[lane]) >> 26;
    block[lane] |= uint64_t{1} << pos;
  }
}

// True iff all eight of the key's bits are set in `block`.
inline bool BloomBlockTest(const uint64_t* block, uint32_t h32) {
  uint64_t hit = 1;
  for (size_t lane = 0; lane < kBloomLanes; ++lane) {
    const uint32_t pos = (h32 * kBloomSalt[lane]) >> 26;
    hit &= block[lane] >> pos;
  }
  return (hit & 1) != 0;
}

class BlockedBloomFilter {
 public:
  // Power-of-two block count for `ndv` distinct keys under a byte
  // budget: targets ~8 keys per 512-bit block (≈3.5e-8 false-positive
  // rate at that load), clamped to `max_bytes`. Returns 0 when the
  // budget cannot hold even one block (caller skips the filter).
  static size_t BlocksForNdv(size_t ndv, size_t max_bytes);

  // Expected false-positive rate of a filter with `num_blocks` blocks
  // holding `ndv` keys (per-block Poisson fill model).
  static double EstimatedFpr(size_t ndv, size_t num_blocks);

  BlockedBloomFilter() = default;
  // `num_blocks` must be a power of two (as from BlocksForNdv).
  explicit BlockedBloomFilter(size_t num_blocks)
      : words_(num_blocks * kBloomLanes, 0),
        block_mask_(static_cast<uint32_t>(num_blocks - 1)) {}

  void Insert(uint64_t key) {
    const uint64_t h = Mix64(key);
    uint64_t* block = words_.data() + BloomBlockIndex(h, block_mask_) * kBloomLanes;
    BloomBlockSet(block, static_cast<uint32_t>(h));
  }

  bool MayContain(uint64_t key) const {
    const uint64_t h = Mix64(key);
    const uint64_t* block =
        words_.data() + BloomBlockIndex(h, block_mask_) * kBloomLanes;
    return BloomBlockTest(block, static_cast<uint32_t>(h));
  }

  size_t num_blocks() const { return words_.size() / kBloomLanes; }
  size_t bytes() const { return words_.size() * sizeof(uint64_t); }
  bool empty() const { return words_.empty(); }
  const uint64_t* blocks() const { return words_.data(); }
  uint32_t block_mask() const { return block_mask_; }

 private:
  // num_blocks * 8 lane words, block-major.
  std::vector<uint64_t> words_;
  uint32_t block_mask_ = 0;
};

}  // namespace rapid::primitives

#endif  // RAPID_PRIMITIVES_BLOOM_H_
