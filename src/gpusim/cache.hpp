// Set-associative LRU cache simulator (models the GPU L2).
//
// Paper §4.3.2 argues that the weight-stationary gather/scatter order
// cannot reuse cached features (the working set N1 > 40MB vastly exceeds
// the 5.5MB L2 of an RTX 2080Ti, and indices per weight are unique), while
// the fused locality-aware order achieves near-perfect reuse. We replay
// the engines' actual feature-row access streams through this simulator to
// *measure* those hit rates instead of assuming them.
//
// Write handling matches GPU L2 semantics: a write miss allocates the line
// and marks it dirty without fetching from DRAM (streaming stores don't
// read-modify-write whole lines); DRAM write traffic is counted at
// eviction time as write-backs.
//
// This replay is the profiled hot path of every simulate_cache run (tens
// of millions of line touches per forward pass), so it is built for host
// speed. The modeled behavior — hits, misses, write-backs, DRAM bytes —
// is exactly that of a tick-based LRU scan; only the host cost differs.
//
// * Layout. Each set keeps its ways contiguously in most-recently-used-
//   first order: the LRU victim is simply the back slot, and a recency
//   update is a rotate of the slot prefix instead of per-way tick
//   counters. Dirty flags are one bitmask per set, rotated alongside.
//   Line/set arithmetic is shift/mask (line size and set count are
//   powers of two), and the per-line step is header-inline so replay
//   loops pay no call overhead.
// * Vector probe. For the modeled 16-way L2 on SSE2 targets, a lookup
//   compares the tag against all 16 ways at once (four
//   `_mm_cmpeq_epi32`, packed to one `movemask`) and takes the first set
//   bit as the hit slot. Valid tags are unique within a set, so at most
//   one bit is set. Other way counts and non-SSE2 targets use the scalar
//   prefix scan.
// * Range closed form. An access() spanning more than num_sets * ways
//   lines (the gather-buffer and psum slabs a matmul streams through)
//   is replayed set by set; sets are independent, so this reorders no
//   set's own touch sequence. In each set the first `ways` touches run
//   exactly. The set then holds only lines of this stream, so every
//   later touch is a miss that evicts the LRU slot: first the slots the
//   exact phase left (back to front, with their dirty bits), then the
//   stream's own lines (dirty iff the access writes). The set ends with
//   the stream's last `ways` lines, MRU first. The cost per set is
//   O(ways) however long the stream is.
#pragma once

#include <bit>
#include <cstdint>
#include <cstddef>
#include <cstring>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace ts {

class CacheSim {
 public:
  /// `capacity_bytes` is rounded down to a power-of-two number of sets.
  /// 128-byte lines match the GPU memory transaction size (`line_bytes`
  /// is rounded down to a power of two for shift addressing; `ways` is
  /// clamped to [1, 64] so a set's dirty flags fit one 64-bit mask).
  CacheSim(std::size_t capacity_bytes, int ways = 16,
           std::size_t line_bytes = 128);

  /// Touches [addr, addr+bytes). Returns the number of line misses (of
  /// either kind).
  std::size_t access(uint64_t addr, std::size_t bytes, bool is_write) {
    if (bytes == 0) return 0;
    const uint64_t first = addr >> line_shift_;
    const uint64_t last = (addr + bytes - 1) >> line_shift_;
    if (last - first >= num_sets_ * ways_)
      return access_range(first, last, is_write);
    std::size_t line_misses = 0;
    for (uint64_t l = first; l <= last; ++l)
      line_misses += access_line(l, is_write);
    return line_misses;
  }

  void reset();

  std::size_t hits() const { return hits_; }
  std::size_t read_misses() const { return read_misses_; }
  std::size_t write_misses() const { return write_misses_; }
  std::size_t writebacks() const { return writebacks_; }
  /// DRAM bytes moved: read-miss line fills plus dirty write-backs.
  double dram_bytes() const {
    return static_cast<double>((read_misses_ + writebacks_) * line_bytes_);
  }
  std::size_t line_bytes() const { return line_bytes_; }
  double hit_rate() const {
    const std::size_t total = hits_ + read_misses_ + write_misses_;
    return total ? static_cast<double>(hits_) / static_cast<double>(total)
                 : 0.0;
  }

 private:
  /// Stored tags are (line_addr >> set_shift_) + 1, so 0 can mean
  /// "invalid way". Tags are kept in 32 bits to halve the scan traffic:
  /// the simulated slabs live below 2^42, so real tags stay far below
  /// 2^32 (an overflowing tag throws — see access_line). Invalid slots
  /// only ever sink toward the back of the MRU order, which reproduces
  /// the invalid-way-first victim preference.
  static constexpr uint32_t kInvalidTag = 0;

  std::size_t access_line(uint64_t line_addr, bool is_write) {
    const std::size_t set =
        static_cast<std::size_t>(line_addr) & (num_sets_ - 1);
    uint32_t* tags = tags_.data() + set * ways_;
    uint64_t& dirty = dirty_[set];
    const uint64_t wide_tag = (line_addr >> set_shift_) + 1;
    // Always-on guard (a never-taken, perfectly predicted branch): a
    // truncated tag would silently alias distinct lines and corrupt the
    // modeled hit/miss counts, so overflow must be loud in Release too.
    if (wide_tag > 0xffffffffull) throw_tag_overflow(line_addr);
    const uint32_t tag = static_cast<uint32_t>(wide_tag);
    const uint64_t wbit = is_write ? 1 : 0;
    const std::size_t ways = ways_;

    // Hit: prefix scan in MRU order (hot lines sit near the front), then
    // rotate slots [0, p] one step so the hit line becomes slot 0.
    if (tags[0] == tag) {  // repeat touch of the most recent line
      dirty |= wbit;
      ++hits_;
      return 0;
    }
    const std::size_t p = find_way(tags, tag);
    if (p == ways) return install_line(tags, dirty, tag, is_write);
    std::memmove(tags + 1, tags, p * sizeof(uint32_t));
    tags[0] = tag;
    const uint64_t low = dirty & ((uint64_t{1} << p) - 1);
    const uint64_t hit_dirty = (dirty >> p) & 1;
    dirty = (dirty & ~((uint64_t{2} << p) - 1)) | (low << 1) |
            (hit_dirty | wbit);
    ++hits_;
    return 0;
  }

  /// Slot of `tag` in the set starting at `tags` (slot 0 already checked
  /// by the caller), or ways_ when absent.
  std::size_t find_way(const uint32_t* tags, uint32_t tag) const {
#if defined(__SSE2__)
    if (ways_ == 16) {
      const __m128i key = _mm_set1_epi32(static_cast<int>(tag));
      const auto* v = reinterpret_cast<const __m128i*>(tags);
      const __m128i lo = _mm_packs_epi32(
          _mm_cmpeq_epi32(_mm_loadu_si128(v), key),
          _mm_cmpeq_epi32(_mm_loadu_si128(v + 1), key));
      const __m128i hi = _mm_packs_epi32(
          _mm_cmpeq_epi32(_mm_loadu_si128(v + 2), key),
          _mm_cmpeq_epi32(_mm_loadu_si128(v + 3), key));
      const auto mask = static_cast<unsigned>(
          _mm_movemask_epi8(_mm_packs_epi16(lo, hi)));
      return mask != 0 ? static_cast<std::size_t>(std::countr_zero(mask))
                       : ways_;
    }
#endif
    for (std::size_t p = 1; p < ways_; ++p)
      if (tags[p] == tag) return p;
    return ways_;
  }

  std::size_t install_line(uint32_t* tags, uint64_t& dirty, uint32_t tag,
                           bool is_write);
  /// Lines [first, last] when they outnumber the cache's lines: the
  /// per-set closed form described in the header comment.
  std::size_t access_range(uint64_t first, uint64_t last, bool is_write);
  [[noreturn]] void throw_tag_overflow(uint64_t line_addr) const;

  std::size_t line_bytes_;
  unsigned line_shift_ = 7;  // log2(line_bytes_)
  std::size_t num_sets_;
  unsigned set_shift_ = 0;   // log2(num_sets_)
  std::size_t ways_;
  std::vector<uint32_t> tags_;   // [num_sets_ * ways_], MRU-first per set
  std::vector<uint64_t> dirty_;  // [num_sets_], bit w = slot w dirty
  std::size_t hits_ = 0;
  std::size_t read_misses_ = 0;
  std::size_t write_misses_ = 0;
  std::size_t writebacks_ = 0;
};

}  // namespace ts
