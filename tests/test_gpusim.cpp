// GPU cost-model substrate tests: cache simulator, transaction coalescing,
// matmul utilization, device specs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "gpusim/cache.hpp"
#include "gpusim/coalesce.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/device.hpp"
#include "gpusim/timeline.hpp"

namespace ts {
namespace {

TEST(CacheSim, ColdMissThenHit) {
  CacheSim c(1 << 16);
  EXPECT_EQ(c.access(0, 4, false), 1u);
  EXPECT_EQ(c.access(0, 4, false), 0u);
  EXPECT_EQ(c.access(64, 4, false), 0u);  // same 128B line
  EXPECT_EQ(c.access(128, 4, false), 1u);  // next line
  EXPECT_EQ(c.hits(), 2u);
  EXPECT_EQ(c.read_misses(), 2u);
}

TEST(CacheSim, MultiLineAccessCountsEachLine) {
  CacheSim c(1 << 16);
  EXPECT_EQ(c.access(0, 512, false), 4u);  // 4 lines of 128B
  EXPECT_EQ(c.access(0, 512, false), 0u);
}

TEST(CacheSim, WriteMissDoesNotFetchButWritebackCounts) {
  CacheSim c(1024, /*ways=*/2);  // tiny: 4 sets x 2 ways
  c.access(0, 4, true);          // write miss: no DRAM fill
  EXPECT_EQ(c.dram_bytes(), 0.0);
  // Evict the dirty line by filling its set.
  for (uint64_t i = 1; i <= 8; ++i) c.access(i * 1024, 4, false);
  EXPECT_GT(c.writebacks(), 0u);
  EXPECT_GT(c.dram_bytes(), 0.0);
}

TEST(CacheSim, LruEvictsOldest) {
  CacheSim c(2 * 128, /*ways=*/2, /*line=*/128);  // 1 set, 2 ways
  c.access(0, 1, false);
  c.access(128, 1, false);
  c.access(0, 1, false);      // refresh line 0
  c.access(256, 1, false);    // evicts line 128 (LRU)
  EXPECT_EQ(c.access(0, 1, false), 0u);   // still cached
  EXPECT_EQ(c.access(128, 1, false), 1u); // was evicted
}

TEST(CacheSim, WorkingSetLargerThanCapacityThrashes) {
  // The §4.3.2 argument: a > L2 working set streamed twice has ~0 reuse.
  CacheSim c(64 * 1024);
  const std::size_t n = 4096;  // 512 KB >> 64 KB
  for (int pass = 0; pass < 2; ++pass)
    for (std::size_t i = 0; i < n; ++i) c.access(i * 128, 128, false);
  EXPECT_LT(c.hit_rate(), 0.01);
}

TEST(CacheSim, WorkingSetFittingInCapacityReuses) {
  CacheSim c(1 << 20);
  const std::size_t n = 1024;  // 128 KB << 1 MB
  for (int pass = 0; pass < 4; ++pass)
    for (std::size_t i = 0; i < n; ++i) c.access(i * 128, 128, false);
  EXPECT_GT(c.hit_rate(), 0.74);  // 3 of 4 passes hit
}

TEST(CacheSim, ResetClearsState) {
  CacheSim c(1 << 16);
  c.access(0, 256, true);
  c.reset();
  EXPECT_EQ(c.hits() + c.read_misses() + c.write_misses(), 0u);
  EXPECT_EQ(c.dram_bytes(), 0.0);
}

// --- CacheSim against a plain tick-based LRU reference. ---

/// The textbook model CacheSim must reproduce: per way a (line, dirty,
/// last-use tick) record; a miss fills an invalid way if there is one,
/// else evicts the smallest tick, writing it back when dirty. Same set
/// count rule as CacheSim (power of two, rounded down).
class RefLru {
 public:
  RefLru(std::size_t capacity, std::size_t ways, std::size_t line = 128)
      : ways_(ways), line_(line) {
    const std::size_t want = std::max<std::size_t>(1, capacity / (line * ways));
    while (sets_ * 2 <= want) sets_ *= 2;
    slots_.assign(sets_ * ways_, Way{});
  }

  std::size_t access(uint64_t addr, std::size_t bytes, bool is_write) {
    if (bytes == 0) return 0;
    std::size_t misses = 0;
    for (uint64_t l = addr / line_; l <= (addr + bytes - 1) / line_; ++l)
      misses += touch(l, is_write);
    return misses;
  }

  std::size_t lines() const { return sets_ * ways_; }
  std::size_t hits = 0, read_misses = 0, write_misses = 0, writebacks = 0;

 private:
  struct Way {
    uint64_t line = 0;
    bool valid = false;
    bool dirty = false;
    uint64_t tick = 0;
  };

  std::size_t touch(uint64_t l, bool is_write) {
    Way* set = slots_.data() + (l % sets_) * ways_;
    ++tick_;
    for (std::size_t w = 0; w < ways_; ++w) {
      if (set[w].valid && set[w].line == l) {
        set[w].tick = tick_;
        set[w].dirty = set[w].dirty || is_write;
        ++hits;
        return 0;
      }
    }
    Way* victim = set;
    for (std::size_t w = 0; w < ways_; ++w) {
      if (!set[w].valid) {
        victim = set + w;
        break;
      }
      if (set[w].tick < victim->tick) victim = set + w;
    }
    if (victim->valid && victim->dirty) ++writebacks;
    ++(is_write ? write_misses : read_misses);
    *victim = Way{l, true, is_write, tick_};
    return 1;
  }

  std::size_t ways_;
  std::size_t line_;
  std::size_t sets_ = 1;
  std::vector<Way> slots_;
  uint64_t tick_ = 0;
};

void expect_same_counters(const CacheSim& c, const RefLru& r) {
  ASSERT_EQ(c.hits(), r.hits);
  ASSERT_EQ(c.read_misses(), r.read_misses);
  ASSERT_EQ(c.write_misses(), r.write_misses);
  ASSERT_EQ(c.writebacks(), r.writebacks);
}

/// Seeded mix of single-line, multi-line and larger-than-capacity reads
/// and writes over a window of ~4x the cache, checked after every call,
/// then a flush whose write-backs expose any leftover set state.
void run_differential(std::size_t capacity, int ways, uint64_t seed) {
  SCOPED_TRACE("capacity " + std::to_string(capacity) + ", ways " +
               std::to_string(ways) + ", seed " + std::to_string(seed));
  constexpr std::size_t kLine = 128;
  constexpr int kCalls = 2000;
  CacheSim c(capacity, ways, kLine);
  RefLru r(capacity, static_cast<std::size_t>(ways), kLine);
  const std::size_t lines = r.lines();
  const uint64_t window = 4 * lines + 64;  // in lines
  // Keep the reference's work bounded at the megabyte capacities.
  const double p_large = std::min(0.1, 4e5 / (kCalls * 2.0 * lines));
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int call = 0; call < kCalls; ++call) {
    const uint64_t addr = rng() % (window * kLine);
    const double kind = unit(rng);
    std::size_t bytes;
    if (kind < p_large) {  // around and above the whole cache
      const std::size_t lo = lines > 2 ? lines - 2 : 1;
      bytes = (lo + rng() % (2 * lines + 6)) * kLine - rng() % kLine;
    } else if (kind < 0.3) {
      bytes = 1 + rng() % (16 * kLine);
    } else {
      bytes = 1 + rng() % kLine;
    }
    const bool is_write = unit(rng) < 0.4;
    ASSERT_EQ(c.access(addr, bytes, is_write), r.access(addr, bytes, is_write))
        << "call " << call << ": addr " << addr << ", bytes " << bytes
        << (is_write ? ", write" : ", read");
    SCOPED_TRACE("after call " + std::to_string(call));
    expect_same_counters(c, r);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // `lines` fresh consecutive lines fill every set once over.
  const uint64_t flush = 16 * window * kLine;
  ASSERT_EQ(c.access(flush, lines * kLine, false),
            r.access(flush, lines * kLine, false));
  expect_same_counters(c, r);
  EXPECT_EQ(c.dram_bytes(),
            static_cast<double>((r.read_misses + r.writebacks) * kLine));
}

TEST(CacheSim, MatchesTickLruReference) {
  const std::size_t capacities[] = {128,     1024,    4096,   64 << 10,
                                    1 << 20, 5767168};  // 5.5 MB: the L2
  uint64_t seed = 1;
  for (const int ways : {1, 2, 4, 8, 16, 64}) {
    for (const std::size_t capacity : capacities) {
      run_differential(capacity, ways, seed++);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(CacheSim, LongWriteStreamKeepsItsLastLines) {
  CacheSim c(5767168);  // 2048 sets x 16 ways
  const std::size_t lines = 2048 * 16;
  EXPECT_EQ(c.access(0, 3 * lines * 128, true), 3 * lines);
  EXPECT_EQ(c.write_misses(), 3 * lines);
  EXPECT_EQ(c.writebacks(), 2 * lines);  // all but the last pass evicted
  EXPECT_EQ(c.access(2 * lines * 128, lines * 128, false), 0u);
  EXPECT_EQ(c.hits(), lines);
  EXPECT_EQ(c.read_misses(), 0u);
}

TEST(CacheSim, TagOverflowThrowsOnLinesAndRanges) {
  // 4 sets: stored tags (line >> 2) + 1 overflow 32 bits from line
  // 2^34 - 4 on.
  CacheSim c(1024, /*ways=*/2);
  const uint64_t limit = ((uint64_t{1} << 34) - 4) * 128;
  EXPECT_EQ(c.access(limit - 128, 128, false), 1u);  // highest valid line
  EXPECT_THROW(c.access(limit, 1, false), std::runtime_error);
  // A ranged access (> sets * ways lines) ending past the limit throws
  // before touching any set.
  const std::size_t before = c.hits() + c.read_misses() + c.write_misses();
  EXPECT_THROW(c.access(limit - 64 * 128, 128 * 128, true),
               std::runtime_error);
  EXPECT_EQ(c.hits() + c.read_misses() + c.write_misses(), before);
}

// --- Transaction coalescing (paper Fig. 8). ---

TEST(Coalesce, Fp32ScalarIsFullyUtilized) {
  EXPECT_EQ(transactions_per_row(32, Precision::kFP32, false), 1u);
  EXPECT_EQ(transactions_per_row(256, Precision::kFP32, false), 8u);
  EXPECT_EQ(transaction_utilization(Precision::kFP32, false), 1.0);
}

TEST(Coalesce, Fp16ScalarSameCountHalfUtilization) {
  // The paper's key observation: scalar FP16 issues the same NUMBER of
  // transactions as FP32 at 50% utilization.
  for (std::size_t c : {32u, 64u, 128u, 256u}) {
    EXPECT_EQ(transactions_per_row(c, Precision::kFP16, false),
              transactions_per_row(c, Precision::kFP32, false))
        << c;
  }
  EXPECT_EQ(transaction_utilization(Precision::kFP16, false), 0.5);
}

TEST(Coalesce, Fp16VectorizedHalvesTransactions) {
  for (std::size_t c : {64u, 128u, 256u}) {
    EXPECT_EQ(transactions_per_row(c, Precision::kFP16, true) * 2,
              transactions_per_row(c, Precision::kFP16, false))
        << c;
  }
  EXPECT_EQ(transaction_utilization(Precision::kFP16, true), 1.0);
}

TEST(Coalesce, Int8VectorizedQuartersTransactions) {
  EXPECT_EQ(transactions_per_row(256, Precision::kINT8, true), 2u);
  EXPECT_EQ(transactions_per_row(256, Precision::kINT8, false), 8u);
  EXPECT_EQ(transaction_utilization(Precision::kINT8, false), 0.25);
}

TEST(Coalesce, PartialRowsRoundUp) {
  EXPECT_EQ(transactions_per_row(1, Precision::kFP32, false), 1u);
  EXPECT_EQ(transactions_per_row(33, Precision::kFP32, false), 2u);
}

// --- Matmul utilization / kernel cost. ---

TEST(CostModel, UtilizationIncreasesWithEveryDimension) {
  const CostModel cm(rtx2080ti());
  const Precision p = Precision::kFP16;
  EXPECT_LT(cm.mm_utilization(1000, 64, 64, p),
            cm.mm_utilization(50000, 64, 64, p));
  EXPECT_LT(cm.mm_utilization(50000, 16, 64, p),
            cm.mm_utilization(50000, 64, 64, p));
  EXPECT_LT(cm.mm_utilization(50000, 64, 16, p),
            cm.mm_utilization(50000, 64, 64, p));
  EXPECT_LE(cm.mm_utilization(1e9, 1e9, 1e9, p), rtx2080ti().max_mm_util);
}

TEST(CostModel, Table2UtilizationAnchors) {
  // Calibration anchors from the paper's Table 2 (2080Ti, FP16):
  // separate per-offset GEMMs run at ~30% utilization, adaptive grouping
  // at ~44% — a ~1.4-1.5x ratio. The absolute fractions here sit slightly
  // above the paper's (to keep narrow-channel layers at credible absolute
  // TFLOP/s); the ratio is the anchor that must hold.
  const CostModel cm(rtx2080ti());
  const double separate = cm.mm_utilization(1e4, 64, 64, Precision::kFP16);
  const double grouped = cm.mm_utilization(1e5, 64, 64, Precision::kFP16);
  EXPECT_NEAR(separate, 0.38, 0.10);
  EXPECT_NEAR(grouped, 0.56, 0.12);
  EXPECT_GT(grouped / separate, 1.3);
  EXPECT_LT(grouped / separate, 1.7);
}

TEST(CostModel, Fp16UtilizationFractionBelowFp32AtSameShape) {
  // A faster unit needs a bigger workload to saturate: at the same GEMM
  // shape the FP16 utilization *fraction* is lower (the achieved TFLOP/s
  // is still never lower).
  const CostModel cm(rtx2080ti());
  const double u32 = cm.mm_utilization(2e4, 64, 64, Precision::kFP32);
  const double u16 = cm.mm_utilization(2e4, 64, 64, Precision::kFP16);
  EXPECT_LT(u16, u32);
  EXPECT_GE(u16 * cm.peak_tflops(Precision::kFP16),
            u32 * cm.peak_tflops(Precision::kFP32) * 0.999);
}

TEST(CostModel, SmallGemmFp16GivesAlmostNoSpeedup) {
  // Why the 1080Ti loses only ~11% of the speedup (§5.2): small irregular
  // GEMMs can't exploit the tensor-core peak.
  const CostModel cm(rtx2080ti());
  const double t32 = cm.mm(2000, 32, 32, Precision::kFP32).seconds;
  const double t16 = cm.mm(2000, 32, 32, Precision::kFP16).seconds;
  EXPECT_LT(t32 / t16, 1.35);
  // Large regular GEMMs do benefit substantially.
  const double b32 = cm.mm(500000, 256, 256, Precision::kFP32).seconds;
  const double b16 = cm.mm(500000, 256, 256, Precision::kFP16).seconds;
  EXPECT_GT(b32 / b16, 1.5);
}

TEST(CostModel, SmallGemmsAreLaunchBound) {
  const CostModel cm(rtx2080ti());
  const KernelCost kc = cm.mm(16, 16, 16, Precision::kFP16);
  EXPECT_GT(kc.seconds, cm.launch_seconds() * 0.99);
  EXPECT_LT(kc.seconds, cm.launch_seconds() * 1.5);
}

TEST(CostModel, BmmOneBatchEqualsMm) {
  const CostModel cm(rtx3090());
  const KernelCost a = cm.mm(5000, 64, 64, Precision::kFP16);
  const KernelCost b = cm.bmm(1, 5000, 64, 64, Precision::kFP16);
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
  EXPECT_DOUBLE_EQ(a.flops, b.flops);
}

TEST(CostModel, BatchingSmallGemmsBeatsSeparate) {
  // The heart of Fig. 7: 8 equal small GEMMs run faster as one bmm.
  const CostModel cm(rtx2080ti());
  const double separate =
      8 * cm.mm(2000, 64, 64, Precision::kFP16).seconds;
  const double batched = cm.bmm(8, 2000, 64, 64, Precision::kFP16).seconds;
  EXPECT_LT(batched, separate);
}

TEST(CostModel, PaddingWasteCanMakeBmmLose) {
  // One huge problem + 7 tiny ones padded to it: bmm wastes ~7x FLOPs.
  const CostModel cm(rtx2080ti());
  double separate = cm.mm(400000, 128, 128, Precision::kFP16).seconds;
  for (int i = 0; i < 7; ++i)
    separate += cm.mm(2000, 128, 128, Precision::kFP16).seconds;
  const double batched =
      cm.bmm(8, 400000, 128, 128, Precision::kFP16).seconds;
  EXPECT_GT(batched, separate);
}

TEST(CostModel, Fp16PeaksOnlyOnTensorCoreDevices) {
  EXPECT_GT(CostModel(rtx2080ti()).peak_tflops(Precision::kFP16),
            CostModel(rtx2080ti()).peak_tflops(Precision::kFP32));
  EXPECT_EQ(CostModel(gtx1080ti()).peak_tflops(Precision::kFP16),
            CostModel(gtx1080ti()).peak_tflops(Precision::kFP32));
}

TEST(CostModel, FlopsAccountPadding) {
  const CostModel cm(rtx3090());
  const KernelCost kc = cm.bmm(4, 1000, 32, 32, Precision::kFP32);
  EXPECT_DOUBLE_EQ(kc.flops, 2.0 * 4 * 1000 * 32 * 32);
}

TEST(CostModel, ZeroSizedKernelsAreFree) {
  const CostModel cm(rtx3090());
  EXPECT_EQ(cm.mm(0, 64, 64, Precision::kFP32).seconds, 0.0);
  EXPECT_EQ(cm.bmm(0, 10, 64, 64, Precision::kFP32).seconds, 0.0);
}

TEST(DeviceSpecs, PaperOrderingsHold) {
  // Bandwidth and compute both increase 1080Ti -> 2080Ti -> 3090.
  const auto d1 = gtx1080ti(), d2 = rtx2080ti(), d3 = rtx3090();
  EXPECT_LT(d1.dram_bandwidth_gbps, d2.dram_bandwidth_gbps);
  EXPECT_LT(d2.dram_bandwidth_gbps, d3.dram_bandwidth_gbps);
  EXPECT_LT(d1.peak_fp32_tflops, d2.peak_fp32_tflops);
  EXPECT_FALSE(d1.has_fp16_tensor_cores);
  EXPECT_TRUE(d2.has_fp16_tensor_cores);
  // 2080Ti L2 is 5.5MB (the paper quotes this).
  EXPECT_DOUBLE_EQ(d2.l2_bytes, 5.5 * 1024 * 1024);
}

TEST(Timeline, AccumulatesAndAggregates) {
  Timeline t;
  t.add(Stage::kGather, 0.001);
  t.add(Stage::kScatter, 0.002);
  t.add(Stage::kMatMul, 0.004);
  t.add_flops(8e9);
  EXPECT_DOUBLE_EQ(t.data_movement_seconds(), 0.003);
  EXPECT_DOUBLE_EQ(t.total_seconds(), 0.007);
  EXPECT_NEAR(t.matmul_tflops(), 2.0, 1e-9);
  Timeline u;
  u.add(Stage::kGather, 0.001);
  t += u;
  EXPECT_DOUBLE_EQ(t.stage_seconds(Stage::kGather), 0.002);
  EXPECT_NEAR(t.fps(), 1.0 / 0.008, 1e-9);
}

}  // namespace
}  // namespace ts
