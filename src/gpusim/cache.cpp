#include "gpusim/cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

namespace ts {

namespace {

/// Largest power of two <= v (v >= 1).
std::size_t floor_pow2(std::size_t v) {
  std::size_t s = 1;
  while (s * 2 <= v) s *= 2;
  return s;
}

unsigned log2_exact(std::size_t v) {
  unsigned n = 0;
  while ((std::size_t(1) << n) < v) ++n;
  return n;
}

}  // namespace

CacheSim::CacheSim(std::size_t capacity_bytes, int ways,
                   std::size_t line_bytes)
    : line_bytes_(floor_pow2(std::max<std::size_t>(line_bytes, 1))),
      ways_(static_cast<std::size_t>(std::clamp(ways, 1, 64))) {
  line_shift_ = log2_exact(line_bytes_);
  num_sets_ = std::max<std::size_t>(1, capacity_bytes / (line_bytes_ * ways_));
  // Power-of-two sets for cheap indexing.
  num_sets_ = floor_pow2(num_sets_);
  set_shift_ = log2_exact(num_sets_);
  tags_.assign(num_sets_ * ways_, kInvalidTag);
  dirty_.assign(num_sets_, 0);
}

void CacheSim::reset() {
  std::fill(tags_.begin(), tags_.end(), kInvalidTag);
  std::fill(dirty_.begin(), dirty_.end(), uint64_t{0});
  hits_ = read_misses_ = write_misses_ = writebacks_ = 0;
}

// Miss path (out of line; the inline header scan handles hits): the
// victim is the back slot — the least recently used way, or an invalid
// way (invalid tags only ever sink backward, so any invalid way reaches
// the back before a valid one is evicted).
std::size_t CacheSim::install_line(uint32_t* tags, uint64_t& dirty,
                                   uint32_t tag, bool is_write) {
  const uint64_t wbit = is_write ? 1 : 0;
  if (is_write) {
    ++write_misses_;  // allocate without fill (streaming store)
  } else {
    ++read_misses_;
  }
  const std::size_t back = ways_ - 1;
  if (tags[back] != kInvalidTag && ((dirty >> back) & 1)) ++writebacks_;
  std::memmove(tags + 1, tags, back * sizeof(uint32_t));
  tags[0] = tag;
  dirty = ((dirty << 1) | wbit) &
          (ways_ == 64 ? ~uint64_t{0} : (uint64_t{1} << ways_) - 1);
  return 1;
}

std::size_t CacheSim::access_range(uint64_t first, uint64_t last,
                                   bool is_write) {
  // Tags grow with the line address, so one check against the highest
  // covers the whole range (and leaves the state untouched on overflow).
  if ((last >> set_shift_) + 1 > 0xffffffffull) throw_tag_overflow(last);
  const uint64_t n = last - first + 1;  // > num_sets_ * ways_
  const std::size_t ways = ways_;
  const uint64_t all = ways == 64 ? ~uint64_t{0} : (uint64_t{1} << ways) - 1;
  std::size_t line_misses = 0;
  // Set j-th from `first` holds lines first + j + k * num_sets_, whose
  // tags are consecutive: (first + j) >> set_shift_ plus k, plus 1.
  for (std::size_t j = 0; j < num_sets_; ++j) {
    const uint64_t l0 = first + j;
    const uint64_t n_s = (n - j + num_sets_ - 1) >> set_shift_;
    for (std::size_t k = 0; k < ways; ++k)  // n_s >= ways: n > sets * ways
      line_misses += access_line(l0 + (uint64_t{k} << set_shift_), is_write);
    // The remaining r touches all miss. The first min(r, ways) evict the
    // slots the exact phase left, back to front; any further ones evict
    // this stream's own lines, dirty iff is_write.
    const uint64_t r = n_s - ways;
    if (r == 0) continue;
    const std::size_t set = static_cast<std::size_t>(l0) & (num_sets_ - 1);
    uint32_t* tags = tags_.data() + set * ways;
    uint64_t& dirty = dirty_[set];
    const std::size_t left = r < ways ? ways - static_cast<std::size_t>(r) : 0;
    writebacks_ += static_cast<std::size_t>(
        std::popcount(dirty & ~((uint64_t{1} << left) - 1)));
    if (is_write) {
      if (r > ways) writebacks_ += static_cast<std::size_t>(r - ways);
      write_misses_ += static_cast<std::size_t>(r);
    } else {
      read_misses_ += static_cast<std::size_t>(r);
    }
    line_misses += static_cast<std::size_t>(r);
    // Final contents: the stream's last `ways` lines, MRU first. A write
    // stream leaves every one dirty (its exact-phase touches set their
    // bits too); a read stream leaves only the `left` surviving
    // exact-phase slots with their bits, shifted back behind r clean ones.
    const uint32_t last_tag =
        static_cast<uint32_t>((l0 >> set_shift_) + n_s);
    for (std::size_t w = 0; w < ways; ++w)
      tags[w] = last_tag - static_cast<uint32_t>(w);
    if (is_write) {
      dirty = all;
    } else {
      dirty = left == 0 ? 0 : (dirty << (ways - left)) & all;
    }
  }
  return line_misses;
}

void CacheSim::throw_tag_overflow(uint64_t line_addr) const {
  throw std::runtime_error(
      "CacheSim: line address " + std::to_string(line_addr) +
      " exceeds the 32-bit tag range for a " +
      std::to_string(num_sets_) + "-set cache (address/capacity "
      "combination outside the simulated slab layout)");
}

}  // namespace ts
