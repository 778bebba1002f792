// Unit tests for CSV export (eval/export.hpp).
#include "eval/export.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "baselines/centroid.hpp"

namespace bnloc {
namespace {

Scenario small_scenario() {
  ScenarioConfig cfg;
  cfg.node_count = 30;
  cfg.seed = 9;
  return build_scenario(cfg);
}

std::size_t count_lines(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line)) ++n;
  return n;
}

TEST(Export, PositionsCsvHasOneRowPerNode) {
  const Scenario s = small_scenario();
  const CentroidLocalizer algo;
  Rng rng(1);
  const auto result = algo.localize(s, rng);
  const std::string path = ::testing::TempDir() + "/bnloc_positions.csv";
  ASSERT_TRUE(export_positions_csv(path, s, result));
  EXPECT_EQ(count_lines(path), s.node_count() + 1);  // header + rows
  // Header spot check.
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("error_over_range"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Export, PositionsCsvLeavesUnlocalizedCellsEmpty) {
  const Scenario s = small_scenario();
  const LocalizationResult skeleton = make_result_skeleton(s);
  const std::string path = ::testing::TempDir() + "/bnloc_positions2.csv";
  ASSERT_TRUE(export_positions_csv(path, s, skeleton));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  bool saw_empty_estimate = false;
  while (std::getline(in, line)) {
    if (line.find("unknown") != std::string::npos)
      saw_empty_estimate |= line.find(",,") != std::string::npos;
  }
  EXPECT_TRUE(saw_empty_estimate);
  std::remove(path.c_str());
}

TEST(Export, LinksCsvHasOneRowPerUndirectedLink) {
  const Scenario s = small_scenario();
  const std::string path = ::testing::TempDir() + "/bnloc_links.csv";
  ASSERT_TRUE(export_links_csv(path, s));
  EXPECT_EQ(count_lines(path), s.graph.edge_count() + 1);
  std::remove(path.c_str());
}

TEST(Export, AggregateCsvRoundTrip) {
  const CentroidLocalizer algo;
  ScenarioConfig cfg;
  cfg.node_count = 40;
  cfg.seed = 2;
  std::vector<AggregateRow> rows = {run_algorithm(algo, cfg, 2)};
  const std::string path = ::testing::TempDir() + "/bnloc_agg.csv";
  ASSERT_TRUE(export_aggregate_csv(path, rows));
  EXPECT_EQ(count_lines(path), 2u);
  std::ifstream in(path);
  std::string header, data;
  std::getline(in, header);
  std::getline(in, data);
  EXPECT_EQ(data.substr(0, 9), "centroid,");
  std::remove(path.c_str());
}

TEST(Export, AggregateCsvRoundTripsWallSeconds) {
  AggregateRow row;
  row.algo = "demo";
  row.trials = 3;
  row.seconds = 0.5;
  row.wall_seconds = 1.25;
  const std::string path = ::testing::TempDir() + "/bnloc_agg_wall.csv";
  ASSERT_TRUE(export_aggregate_csv(path, {row}));
  std::ifstream in(path);
  std::string header, data;
  std::getline(in, header);
  std::getline(in, data);
  std::remove(path.c_str());
  // The harness wall-clock column must survive the round trip (it used to
  // be silently dropped), and the header must stay aligned with the data.
  EXPECT_NE(header.find("wall_seconds"), std::string::npos);
  const auto commas = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  EXPECT_EQ(commas(header), commas(data));
  EXPECT_NE(data.find("1.25"), std::string::npos);
}

TEST(Export, BadPathsReturnFalse) {
  const Scenario s = small_scenario();
  const LocalizationResult skeleton = make_result_skeleton(s);
  EXPECT_FALSE(export_positions_csv("/no-such-dir-xyz/a.csv", s, skeleton));
  EXPECT_FALSE(export_links_csv("/no-such-dir-xyz/b.csv", s));
  EXPECT_FALSE(export_aggregate_csv("/no-such-dir-xyz/c.csv", {}));

  // A full device accepts the open and the buffered write and fails at the
  // flush on close.
  if (!std::filesystem::exists("/dev/full")) return;
  EXPECT_FALSE(export_positions_csv("/dev/full", s, skeleton));
  EXPECT_FALSE(export_links_csv("/dev/full", s));
  EXPECT_FALSE(export_aggregate_csv("/dev/full", {}));
}

}  // namespace
}  // namespace bnloc
