#include "obs/registry.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace bnloc::obs {

const char* to_string(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::counter: return "counter";
    case MetricKind::gauge: return "gauge";
    case MetricKind::timer: return "timer";
    case MetricKind::histogram: return "histogram";
  }
  return "?";
}

Registry::Slot& Registry::slot(std::string_view name, MetricKind kind) {
  const auto it = index_.find(name);
  if (it != index_.end()) {
    Slot& s = slots_[it->second];
    BNLOC_ASSERT(s.kind == kind, "metric re-registered with a different kind");
    return s;
  }
  const std::size_t id = slots_.size();
  names_.emplace_back(name);
  slots_.emplace_back();
  slots_.back().kind = kind;
  index_.emplace(names_.back(), id);
  return slots_.back();
}

const Registry::Slot* Registry::find(std::string_view name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : &slots_[it->second];
}

void Registry::count(std::string_view name, std::uint64_t delta) {
  const std::lock_guard<std::mutex> lock(mutex_);
  slot(name, MetricKind::counter).count += delta;
}

void Registry::gauge(std::string_view name, double value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Slot& s = slot(name, MetricKind::gauge);
  s.value = value;
  ++s.count;
}

void Registry::time_ns(std::string_view name, std::uint64_t ns) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Slot& s = slot(name, MetricKind::timer);
  s.ticks_ns += ns;
  ++s.count;
}

void Registry::observe(std::string_view name, std::uint64_t value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Slot& s = slot(name, MetricKind::histogram);
  if (!s.hist) s.hist = std::make_unique<LogHistogram>();
  s.hist->observe(value);
  ++s.count;
}

void Registry::merge(const Registry& other) {
  if (&other == this) return;
  const std::scoped_lock lock(mutex_, other.mutex_);
  for (std::size_t i = 0; i < other.slots_.size(); ++i) {
    const Slot& src = other.slots_[i];
    Slot& dst = slot(other.names_[i], src.kind);
    switch (src.kind) {
      case MetricKind::counter:
        dst.count += src.count;
        break;
      case MetricKind::gauge:
        if (src.count > 0) dst.value = src.value;
        dst.count += src.count;
        break;
      case MetricKind::timer:
        dst.ticks_ns += src.ticks_ns;
        dst.count += src.count;
        break;
      case MetricKind::histogram:
        if (src.hist) {
          if (!dst.hist) dst.hist = std::make_unique<LogHistogram>();
          dst.hist->merge(*src.hist);
        }
        dst.count += src.count;
        break;
    }
  }
}

std::vector<MetricEntry> Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricEntry> out;
  out.reserve(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    MetricEntry e;
    e.name = names_[i];
    e.kind = slots_[i].kind;
    e.count = slots_[i].count;
    e.value = slots_[i].kind == MetricKind::timer
                  ? static_cast<double>(slots_[i].ticks_ns) * 1e-9
                  : slots_[i].value;
    if (slots_[i].kind == MetricKind::histogram && slots_[i].hist) {
      e.hist_sum = slots_[i].hist->sum();
      e.buckets = slots_[i].hist->buckets();
    }
    out.push_back(std::move(e));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricEntry& a, const MetricEntry& b) {
              return a.name < b.name;
            });
  return out;
}

std::uint64_t Registry::counter(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Slot* s = find(name);
  return s ? s->count : 0;
}

double Registry::gauge_value(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Slot* s = find(name);
  return s ? s->value : 0.0;
}

double Registry::timer_seconds(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Slot* s = find(name);
  return s ? static_cast<double>(s->ticks_ns) * 1e-9 : 0.0;
}

std::uint64_t Registry::timer_calls(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Slot* s = find(name);
  return s ? s->count : 0;
}

std::uint64_t Registry::histogram_count(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Slot* s = find(name);
  return s && s->hist ? s->hist->count() : 0;
}

std::uint64_t Registry::histogram_sum(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Slot* s = find(name);
  return s && s->hist ? s->hist->sum() : 0;
}

std::uint64_t Registry::histogram_quantile(std::string_view name,
                                           double q) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Slot* s = find(name);
  return s && s->hist ? s->hist->quantile(q) : 0;
}

bool Registry::empty() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return slots_.empty();
}

void Registry::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  names_.clear();
  slots_.clear();
  index_.clear();
}

}  // namespace bnloc::obs
