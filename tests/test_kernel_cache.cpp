// KernelCache (inference/kernel_cache.hpp): exact-key memoization of range
// kernels, stable addresses, bit-equality with direct construction, thread
// safety of concurrent lookups, and one cache per grid run.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "core/grid_bncl.hpp"
#include "deploy/scenario.hpp"
#include "inference/kernel_cache.hpp"
#include "obs/telemetry.hpp"

namespace bnloc {
namespace {

GridShape test_shape() {
  return {Aabb{{0.0, 0.0}, {1.0, 1.0}}, 48};
}

RangingSpec test_ranging() {
  RangingSpec r;
  r.type = RangingType::log_normal;
  r.noise_factor = 0.1;
  r.range = 0.15;
  return r;
}

TEST(KernelCache, SharesExactRepeatsOnly) {
  KernelCache cache(test_ranging(), test_shape());
  const RangeKernel* a = cache.range(0.1);
  const RangeKernel* b = cache.range(0.1);
  EXPECT_EQ(a, b);
  EXPECT_EQ(cache.stats().built, 1u);
  EXPECT_EQ(cache.stats().shared, 1u);

  // One ULP away is a different key: no quantization, ever.
  const double nudged = std::nextafter(0.1, 1.0);
  const RangeKernel* c = cache.range(nudged);
  EXPECT_NE(a, c);
  EXPECT_EQ(cache.stats().built, 2u);
  EXPECT_EQ(cache.stats().shared, 1u);
}

TEST(KernelCache, MatchesDirectConstructionBitForBit) {
  const GridShape shape = test_shape();
  const RangingSpec ranging = test_ranging();
  KernelCache cache(ranging, shape);

  SparseBelief src;
  src.cells = {0, 517, 1200, 48 * 48 - 1};
  src.mass = {0.4F, 0.3F, 0.2F, 0.1F};

  for (const double d : {0.03, 0.1, 0.14999}) {
    const RangeKernel direct = RangeKernel::make_range(d, ranging, shape);
    const RangeKernel* cached = cache.range(d);
    ASSERT_EQ(cached->stamp_count(), direct.stamp_count());
    std::vector<double> out_direct(shape.cell_count(), 0.0);
    std::vector<double> out_cached(shape.cell_count(), 0.0);
    direct.accumulate(src, out_direct, shape.side);
    cached->accumulate(src, out_cached, shape.side);
    for (std::size_t c = 0; c < out_direct.size(); ++c)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(out_direct[c]),
                std::bit_cast<std::uint64_t>(out_cached[c]))
          << "cell " << c << " at d=" << d;
  }
}

TEST(KernelCache, PointersStayValidAsCacheGrows) {
  KernelCache cache(test_ranging(), test_shape());
  const RangeKernel* first = cache.range(0.05);
  const std::size_t first_stamps = first->stamp_count();
  std::set<std::uint64_t> keys{std::bit_cast<std::uint64_t>(0.05)};
  for (int k = 0; k < 500; ++k) {
    const double d = 0.01 + 0.0002 * static_cast<double>(k);
    keys.insert(std::bit_cast<std::uint64_t>(d));
    cache.range(d);
  }
  EXPECT_EQ(cache.range(0.05), first);
  EXPECT_EQ(first->stamp_count(), first_stamps);
  EXPECT_EQ(cache.stats().built, keys.size());  // one kernel per exact key
}

// Scanline-run storage must reproduce the naive per-stamp accumulation:
// replay a kernel against a border-hugging source so runs get clipped on
// every side, and check mass conservation properties that only hold when
// clipping is correct.
TEST(KernelCache, RunClippingStaysInsideGrid) {
  const GridShape shape = test_shape();
  const RangeKernel k =
      RangeKernel::make_range(0.12, test_ranging(), shape);
  EXPECT_GT(k.stamp_count(), 0u);
  EXPECT_LE(k.run_count(), k.stamp_count());

  SparseBelief corner;
  corner.cells = {0};  // bottom-left corner: maximal clipping
  corner.mass = {1.0F};
  std::vector<double> out(shape.cell_count(), 0.0);
  k.accumulate(corner, out, shape.side);
  double total = 0.0;
  for (const double v : out) {
    EXPECT_GE(v, 0.0);
    total += v;
  }
  EXPECT_GT(total, 0.0);  // some of the annulus lands inside
}

// The cache is internally synchronized, so one instance may be shared
// across threads. Hammer one cache from many threads over an overlapping
// distance set (this is the test the threaded-sanitizer CI job runs under
// TSan): same distance must yield the same kernel pointer everywhere, and
// the hit/miss ledger must balance.
TEST(KernelCache, ConcurrentLookupsShareKernelsWithoutRacing) {
  KernelCache cache(test_ranging(), test_shape());
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kDistances = 32;
  constexpr std::size_t kRounds = 25;

  std::vector<std::vector<const RangeKernel*>> seen(
      kThreads, std::vector<const RangeKernel*>(kDistances, nullptr));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t d = 0; d < kDistances; ++d) {
          const double dist = 0.02 + 0.004 * static_cast<double>(d);
          const RangeKernel* k = cache.range(dist);
          if (seen[t][d] == nullptr)
            seen[t][d] = k;
          else
            ASSERT_EQ(seen[t][d], k);  // stable address per distance
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Every thread resolved every distance to the one shared kernel.
  for (std::size_t t = 1; t < kThreads; ++t)
    for (std::size_t d = 0; d < kDistances; ++d)
      EXPECT_EQ(seen[0][d], seen[t][d]);
  // Each distinct distance was built exactly once, ever; the ledger adds up.
  const KernelCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.built, kDistances);
  EXPECT_EQ(stats.built + stats.shared, kThreads * kRounds * kDistances);
}

// Kernels live and die with the grid run that built them: a run never
// finds kernels an earlier run left behind, even one that measured the
// same world. Repeating a run in one process therefore rebuilds the same
// kernels and reproduces every output bit, with a run over another radio
// in between.
TEST(KernelCache, EachGridRunBuildsItsOwnKernels) {
  ScenarioConfig scenario_config;
  scenario_config.node_count = 30;
  scenario_config.anchor_fraction = 0.2;
  scenario_config.radio = make_radio(0.3, RangingType::log_normal, 0.1);
  scenario_config.seed = 21;
  const Scenario scenario = build_scenario(scenario_config);
  ScenarioConfig other_config = scenario_config;
  other_config.radio = make_radio(0.3, RangingType::log_normal, 0.2);
  const Scenario other = build_scenario(other_config);

  GridBnclConfig config;
  config.grid_side = 16;
  config.pyramid_levels = 1;
  config.iteration.max_iterations = 5;
  const GridBncl engine(config);

  struct Run {
    LocalizationResult result;
    std::uint64_t built = 0;
    std::uint64_t shared = 0;
  };
  const auto run = [&engine](const Scenario& world) {
    obs::Telemetry sink;
    Run out;
    {
      const obs::TelemetryScope scope(&sink);
      Rng rng(7);
      out.result = engine.localize(world, rng);
    }
    out.built = sink.registry.counter("grid.kernels.built");
    out.shared = sink.registry.counter("grid.kernels.shared");
    return out;
  };

  const Run first = run(scenario);
  ASSERT_GT(first.built, 0u);
  EXPECT_GT(run(other).built, 0u);
  const Run again = run(scenario);
  EXPECT_EQ(again.built, first.built);
  EXPECT_EQ(again.shared, first.shared);

  ASSERT_EQ(first.result.estimates.size(), again.result.estimates.size());
  for (std::size_t i = 0; i < first.result.estimates.size(); ++i) {
    ASSERT_EQ(first.result.estimates[i].has_value(),
              again.result.estimates[i].has_value());
    if (!first.result.estimates[i]) continue;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(first.result.estimates[i]->x),
              std::bit_cast<std::uint64_t>(again.result.estimates[i]->x));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(first.result.estimates[i]->y),
              std::bit_cast<std::uint64_t>(again.result.estimates[i]->y));
  }
  EXPECT_EQ(first.result.iterations, again.result.iterations);
  EXPECT_EQ(first.result.transport_hash, again.result.transport_hash);
}

}  // namespace
}  // namespace bnloc
