#include "obs/trace.hpp"

#include <limits>
#include <utility>

#include "deploy/scenario.hpp"
#include "obs/telemetry.hpp"

namespace bnloc::obs {

void ConvergenceTrace::begin(std::string algo) {
  const std::lock_guard<std::mutex> lock(mutex_);
  algo_ = std::move(algo);
  last_ = CommStats{};
  last_crashed_ = 0;
  rows_.clear();
}

void ConvergenceTrace::record(std::size_t round, double residual,
                              double mean_error, std::size_t localized,
                              const CommStats& cumulative,
                              const RobustActivity& robust) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TraceRound row;
  row.round = round;
  row.residual = residual;
  row.mean_error = mean_error;
  row.localized = localized;
  row.msgs_sent = cumulative.messages_sent - last_.messages_sent;
  row.msgs_received = cumulative.messages_received - last_.messages_received;
  row.bytes_sent = cumulative.bytes_sent - last_.bytes_sent;
  // Under the async transport "received" means "delivered and accepted";
  // the delta pair makes retry amplification readable per round.
  row.delivered = row.msgs_received;
  row.retried = cumulative.messages_retried - last_.messages_retried;
  row.dropped = cumulative.messages_dropped - last_.messages_dropped;
  row.duplicates =
      cumulative.duplicates_rejected - last_.duplicates_rejected;
  row.crashed_delta = static_cast<std::int64_t>(robust.crashed_nodes) -
                      static_cast<std::int64_t>(last_crashed_);
  row.robust = robust;
  last_ = cumulative;
  last_crashed_ = robust.crashed_nodes;
  rows_.push_back(row);
}

std::vector<TraceRound> ConvergenceTrace::rows() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return rows_;
}

std::string ConvergenceTrace::algo() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return algo_;
}

bool ConvergenceTrace::empty() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return rows_.empty();
}

bool trace_active() noexcept {
  const Telemetry* t = current();
  return t && t->trace_enabled;
}

void trace_begin(const std::string& algo) {
  Telemetry* t = current();
  if (!t || !t->trace_enabled) return;
  t->trace.begin(algo);
}

void record_round(const Scenario& scenario, std::size_t round,
                  double residual,
                  std::span<const std::optional<Vec2>> estimates,
                  const CommStats& cumulative,
                  const RobustActivity& robust) {
  Telemetry* t = current();
  if (!t || !t->trace_enabled) return;
  double err = 0.0;
  std::size_t localized = 0;
  for (std::size_t i = 0; i < scenario.node_count(); ++i) {
    if (scenario.is_anchor[i]) continue;
    if (i >= estimates.size() || !estimates[i]) continue;
    err += distance(*estimates[i], scenario.true_positions[i]) /
           scenario.radio.range;
    ++localized;
  }
  const double mean_error =
      localized ? err / static_cast<double>(localized)
                : std::numeric_limits<double>::quiet_NaN();
  t->trace.record(round, residual, mean_error, localized, cumulative, robust);
}

}  // namespace bnloc::obs
