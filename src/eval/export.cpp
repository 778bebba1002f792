#include "eval/export.hpp"

#include <cmath>

#include "obs/json.hpp"
#include "support/table.hpp"

namespace bnloc {

bool export_positions_csv(const std::string& path, const Scenario& scenario,
                          const LocalizationResult& result) {
  CsvWriter csv;
  csv.write_row({"node", "role", "true_x", "true_y", "est_x", "est_y",
                 "error", "error_over_range", "sigma"});
  for (std::size_t i = 0; i < scenario.node_count(); ++i) {
    std::vector<std::string> row;
    row.push_back(std::to_string(i));
    row.push_back(scenario.is_anchor[i] ? "anchor" : "unknown");
    row.push_back(AsciiTable::fmt(scenario.true_positions[i].x, 6));
    row.push_back(AsciiTable::fmt(scenario.true_positions[i].y, 6));
    if (i < result.estimates.size() && result.estimates[i]) {
      const Vec2 est = *result.estimates[i];
      const double err = distance(est, scenario.true_positions[i]);
      row.push_back(AsciiTable::fmt(est.x, 6));
      row.push_back(AsciiTable::fmt(est.y, 6));
      row.push_back(AsciiTable::fmt(err, 6));
      row.push_back(AsciiTable::fmt(err / scenario.radio.range, 6));
    } else {
      row.insert(row.end(), {"", "", "", ""});
    }
    if (i < result.covariances.size() && result.covariances[i]) {
      row.push_back(AsciiTable::fmt(result.covariances[i]->rms_radius(), 6));
    } else {
      row.push_back("");
    }
    csv.write_row(row);
  }
  return obs::write_text_file(path, csv.str());
}

bool export_links_csv(const std::string& path, const Scenario& scenario) {
  CsvWriter csv;
  csv.write_row({"u", "v", "true_distance", "measured_distance"});
  for (std::size_t u = 0; u < scenario.node_count(); ++u) {
    for (const Neighbor& nb : scenario.graph.neighbors(u)) {
      if (nb.node < u) continue;  // one row per undirected link
      csv.write_row({std::to_string(u), std::to_string(nb.node),
                     AsciiTable::fmt(
                         distance(scenario.true_positions[u],
                                  scenario.true_positions[nb.node]), 6),
                     AsciiTable::fmt(nb.weight, 6)});
    }
  }
  return obs::write_text_file(path, csv.str());
}

bool export_aggregate_csv(const std::string& path,
                          const std::vector<AggregateRow>& rows) {
  CsvWriter csv;
  csv.write_row({"algorithm", "trials", "mean", "median", "rmse", "q90",
                 "coverage", "penalized_mean", "msgs_per_node",
                 "bytes_per_node", "iterations", "seconds", "wall_seconds"});
  for (const AggregateRow& r : rows) {
    csv.write_row({r.algo, std::to_string(r.trials),
                   AsciiTable::fmt(r.error.mean, 6),
                   AsciiTable::fmt(r.error.median, 6),
                   AsciiTable::fmt(r.error.rmse, 6),
                   AsciiTable::fmt(r.error.q90, 6),
                   AsciiTable::fmt(r.coverage, 6),
                   AsciiTable::fmt(r.penalized_mean, 6),
                   AsciiTable::fmt(r.msgs_per_node, 3),
                   AsciiTable::fmt(r.bytes_per_node, 1),
                   AsciiTable::fmt(r.iterations, 2),
                   AsciiTable::fmt(r.seconds, 5),
                   AsciiTable::fmt(r.wall_seconds, 5)});
  }
  return obs::write_text_file(path, csv.str());
}

}  // namespace bnloc
