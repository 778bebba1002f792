// Result export: CSV dumps for external plotting/GIS tools.
#pragma once

#include <string>
#include <vector>

#include "core/localizer.hpp"
#include "deploy/scenario.hpp"
#include "eval/experiment.hpp"

namespace bnloc {

/// One row per node: id, role, true position, estimate (if any), error,
/// reported sigma (if any). Each exporter returns false when the file
/// cannot be opened, written or closed.
bool export_positions_csv(const std::string& path, const Scenario& scenario,
                          const LocalizationResult& result);

/// One row per (source, target) measured link with true and measured
/// distance — the raw material of the inference problem.
bool export_links_csv(const std::string& path, const Scenario& scenario);

/// Aggregate rows as produced by run_algorithm/run_suite.
bool export_aggregate_csv(const std::string& path,
                          const std::vector<AggregateRow>& rows);

}  // namespace bnloc
