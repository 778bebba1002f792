// Unit tests for the Monte-Carlo experiment runner (eval/experiment.hpp).
#include "eval/experiment.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <set>
#include <string>

#include "baselines/centroid.hpp"
#include "core/grid_bncl.hpp"
#include "support/config.hpp"

namespace bnloc {
namespace {

ScenarioConfig small_config() {
  ScenarioConfig cfg;
  cfg.node_count = 60;
  cfg.seed = 100;
  return cfg;
}

TEST(Experiment, AggregatesAcrossTrials) {
  const CentroidLocalizer algo;
  const AggregateRow row = run_algorithm(algo, small_config(), 4);
  EXPECT_EQ(row.algo, "centroid");
  EXPECT_EQ(row.trials, 4u);
  EXPECT_GT(row.error.count, 0u);
  EXPECT_GT(row.coverage, 0.0);
  EXPECT_GT(row.msgs_per_node, 0.0);
}

TEST(Experiment, SecondsTimeTheLocalizeCallPerTrial) {
  // The harness times each algo.localize() itself: a positive mean that
  // never exceeds the wall time of the whole trial batch.
  const GridBncl algo;
  const AggregateRow row = run_algorithm(algo, small_config(), 2, RunOptions{});
  EXPECT_GT(row.seconds, 0.0);
  EXPECT_LE(row.seconds, row.wall_seconds);
}

TEST(Experiment, DeterministicAcrossRuns) {
  const CentroidLocalizer algo;
  const AggregateRow a = run_algorithm(algo, small_config(), 3);
  const AggregateRow b = run_algorithm(algo, small_config(), 3);
  EXPECT_DOUBLE_EQ(a.error.mean, b.error.mean);
  EXPECT_DOUBLE_EQ(a.coverage, b.coverage);
  EXPECT_DOUBLE_EQ(a.penalized_mean, b.penalized_mean);
}

TEST(Experiment, DifferentBaseSeedsGiveDifferentScenarios) {
  const CentroidLocalizer algo;
  ScenarioConfig cfg = small_config();
  const AggregateRow a = run_algorithm(algo, cfg, 3);
  cfg.seed = 999;
  const AggregateRow b = run_algorithm(algo, cfg, 3);
  EXPECT_NE(a.error.mean, b.error.mean);
}

TEST(Experiment, AlgoRngIsStablePerNameAndSeed) {
  Rng a = make_algo_rng("bncl-grid", 5);
  Rng b = make_algo_rng("bncl-grid", 5);
  Rng c = make_algo_rng("centroid", 5);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Experiment, DefaultSuiteHasUniqueNamesAndExpectedMembers) {
  const auto suite = default_suite();
  EXPECT_GE(suite.size(), 9u);
  std::set<std::string> names;
  for (const auto& algo : suite) names.insert(algo->name());
  EXPECT_EQ(names.size(), suite.size());
  EXPECT_TRUE(names.count("bncl-grid"));
  EXPECT_TRUE(names.count("bncl-particle"));
  EXPECT_TRUE(names.count("bncl-gauss"));
  EXPECT_TRUE(names.count("dv-hop"));
  EXPECT_TRUE(names.count("mds-map"));
}

TEST(Experiment, RunSuiteReturnsOneRowPerAlgorithm) {
  std::vector<std::unique_ptr<Localizer>> algos;
  algos.push_back(std::make_unique<CentroidLocalizer>());
  algos.push_back(std::make_unique<CentroidLocalizer>(
      CentroidConfig{.distance_weighted = true}));
  const auto rows = run_suite(algos, small_config(), 2);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].algo, "centroid");
  EXPECT_EQ(rows[1].algo, "w-centroid");
}

// Exact equality of every thread-count-invariant aggregate field (all but
// the wall-clock ones; those legitimately vary run to run).
void expect_identical_rows(const AggregateRow& a, const AggregateRow& b) {
  EXPECT_EQ(a.algo, b.algo);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.error.count, b.error.count);
  EXPECT_EQ(a.error.mean, b.error.mean);
  EXPECT_EQ(a.error.stddev, b.error.stddev);
  EXPECT_EQ(a.error.min, b.error.min);
  EXPECT_EQ(a.error.q25, b.error.q25);
  EXPECT_EQ(a.error.median, b.error.median);
  EXPECT_EQ(a.error.q75, b.error.q75);
  EXPECT_EQ(a.error.q90, b.error.q90);
  EXPECT_EQ(a.error.max, b.error.max);
  EXPECT_EQ(a.error.rmse, b.error.rmse);
  EXPECT_EQ(a.trial_mean_sem, b.trial_mean_sem);
  EXPECT_EQ(a.penalized_mean, b.penalized_mean);
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.msgs_per_node, b.msgs_per_node);
  EXPECT_EQ(a.bytes_per_node, b.bytes_per_node);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(Experiment, ParallelTrialsBitIdenticalToSerial) {
  const CentroidLocalizer algo;
  const AggregateRow serial =
      run_algorithm(algo, small_config(), 6, RunOptions{1});
  const AggregateRow threaded =
      run_algorithm(algo, small_config(), 6, RunOptions{4});
  expect_identical_rows(serial, threaded);
}

TEST(Experiment, ParallelTrialsWithFaultSpecBitIdentical) {
  GridBnclConfig gc;
  gc.grid_side = 16;
  gc.iteration.max_iterations = 6;
  const GridBncl algo(gc);
  ScenarioConfig cfg = small_config();
  cfg.node_count = 40;
  cfg.faults.outlier_fraction = 0.2;
  cfg.faults.faulty_anchor_fraction = 0.2;
  cfg.faults.crash_fraction = 0.1;
  const AggregateRow serial = run_algorithm(algo, cfg, 4, RunOptions{1});
  const AggregateRow threaded = run_algorithm(algo, cfg, 4, RunOptions{4});
  expect_identical_rows(serial, threaded);
}

TEST(Experiment, RunSuiteHonorsRunOptions) {
  std::vector<std::unique_ptr<Localizer>> algos;
  algos.push_back(std::make_unique<CentroidLocalizer>());
  const auto serial = run_suite(algos, small_config(), 3, RunOptions{1});
  const auto threaded = run_suite(algos, small_config(), 3, RunOptions{3});
  ASSERT_EQ(serial.size(), threaded.size());
  expect_identical_rows(serial[0], threaded[0]);
}

TEST(RunOptions, FromEnvReadsThreads) {
  ::setenv("BNLOC_THREADS", "3", 1);
  EXPECT_EQ(RunOptions::from_env().threads, 3u);
  ::unsetenv("BNLOC_THREADS");
  EXPECT_EQ(RunOptions::from_env().threads, 1u);
}

TEST(BenchConfig, EnvOverrides) {
  ::setenv("BNLOC_TRIALS", "5", 1);
  ::setenv("BNLOC_NODES", "77", 1);
  ::setenv("BNLOC_THREADS", "2", 1);
  const BenchConfig cfg = BenchConfig::from_env();
  EXPECT_EQ(cfg.trials, 5u);
  EXPECT_EQ(cfg.nodes, 77u);
  EXPECT_EQ(cfg.threads, 2u);
  ::unsetenv("BNLOC_TRIALS");
  ::unsetenv("BNLOC_NODES");
  ::unsetenv("BNLOC_THREADS");
}

TEST(BenchConfig, FastModeShrinksDefaults) {
  ::setenv("BNLOC_FAST", "1", 1);
  const BenchConfig cfg = BenchConfig::from_env();
  EXPECT_LE(cfg.trials, 5u);
  EXPECT_LE(cfg.nodes, 120u);
  ::unsetenv("BNLOC_FAST");
}

TEST(EnvHelpers, ParseAndFallback) {
  ::setenv("BNLOC_TEST_N", "12", 1);
  EXPECT_EQ(env_size_t("BNLOC_TEST_N", 3), 12u);
  EXPECT_EQ(env_size_t("BNLOC_TEST_MISSING", 3), 3u);
  // Anything but plain digits within std::size_t falls back: garbage, a
  // negative count (strtoull would wrap it to 2^64 - 1) and an overflow.
  for (const char* bad : {"garbage", "", "-1", "+4", " 4", "4x",
                          "99999999999999999999999"}) {
    SCOPED_TRACE(bad);
    ::setenv("BNLOC_TEST_N", bad, 1);
    EXPECT_EQ(env_size_t("BNLOC_TEST_N", 3), 3u);
  }
  ::setenv("BNLOC_TEST_F", "yes", 1);
  EXPECT_TRUE(env_flag("BNLOC_TEST_F"));
  ::setenv("BNLOC_TEST_F", "0", 1);
  EXPECT_FALSE(env_flag("BNLOC_TEST_F"));
  EXPECT_EQ(env_string("BNLOC_TEST_MISSING", "dflt"), "dflt");
  ::unsetenv("BNLOC_TEST_N");
  ::unsetenv("BNLOC_TEST_F");
}

// parse_count is the one count reader behind env_size_t and bnloc_serve's
// --threads/--repeat: plain decimal digits, the whole std::size_t range.
TEST(ParseCount, AcceptsPlainDigitsUpToSizeMax) {
  constexpr std::size_t max = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(parse_count("0"), std::optional<std::size_t>{0});
  EXPECT_EQ(parse_count("7"), std::optional<std::size_t>{7});
  EXPECT_EQ(parse_count("007"), std::optional<std::size_t>{7});
  EXPECT_EQ(parse_count(std::to_string(max)), std::optional<std::size_t>{max});
}

TEST(ParseCount, RejectsSignsSpacesSuffixesAndOverflow) {
  // One past std::size_t's maximum: its decimal form ends in 5 on both 32-
  // and 64-bit targets, so bumping the last digit cannot carry.
  std::string past_max =
      std::to_string(std::numeric_limits<std::size_t>::max());
  ++past_max.back();
  for (const char* bad : {"", "-1", "-0", "+4", " 4", "4 ", "4x", "0x10", "1e3",
                          "4.0", past_max.c_str()}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(parse_count(bad).has_value());
  }
}

}  // namespace
}  // namespace bnloc
