#include "obs/prometheus.hpp"

#include <cstdio>

#include "obs/json.hpp"

namespace bnloc::obs {

namespace {

bool name_char_ok(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == ':';
}

std::string sanitize_family(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) out += name_char_ok(c) ? c : '_';
  if (out.empty() || (out[0] >= '0' && out[0] <= '9'))
    out.insert(out.begin(), '_');
  return out;
}

/// Split `name` into the family part and the `k="v",...` label body (empty
/// when the name carries no labels).
void split_name(std::string_view name, std::string& family,
                std::string& labels) {
  const std::size_t brace = name.find('{');
  if (brace == std::string_view::npos || name.back() != '}') {
    family = sanitize_family(name);
    labels.clear();
    return;
  }
  family = sanitize_family(name.substr(0, brace));
  labels.assign(name.substr(brace + 1, name.size() - brace - 2));
}

void append_labels(std::string& out, const std::string& labels,
                   std::string_view extra = {}) {
  if (labels.empty() && extra.empty()) return;
  out += '{';
  out += labels;
  if (!labels.empty() && !extra.empty()) out += ',';
  out += extra;
  out += '}';
}

void append_value(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void type_header(std::string& out, std::string& last_family,
                 const std::string& family, const char* type) {
  if (family == last_family) return;
  last_family = family;
  out += "# TYPE ";
  out += family;
  out += ' ';
  out += type;
  out += '\n';
}

}  // namespace

std::string prometheus_escape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string labeled(
    std::string_view family,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels) {
  std::string out(family);
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += prometheus_escape(v);
    out += '"';
  }
  out += '}';
  return out;
}

std::string prometheus_text(const Registry& registry) {
  const std::vector<MetricEntry> entries = registry.snapshot();
  std::string out;
  // Snapshot order is name-sorted, so every labeled variant of a family is
  // adjacent ('{' sorts after the name characters) — one TYPE header each.
  std::string last_counter, last_gauge, last_timer_s, last_timer_c,
      last_hist;
  std::string family, labels;
  for (const MetricEntry& e : entries) {
    split_name(e.name, family, labels);
    switch (e.kind) {
      case MetricKind::counter: {
        type_header(out, last_counter, family + "_total", "counter");
        out += family;
        out += "_total";
        append_labels(out, labels);
        out += ' ';
        out += std::to_string(e.count);
        out += '\n';
        break;
      }
      case MetricKind::gauge: {
        type_header(out, last_gauge, family, "gauge");
        out += family;
        append_labels(out, labels);
        out += ' ';
        append_value(out, e.value);
        out += '\n';
        break;
      }
      case MetricKind::timer: {
        type_header(out, last_timer_s, family + "_seconds_total", "counter");
        out += family;
        out += "_seconds_total";
        append_labels(out, labels);
        out += ' ';
        append_value(out, e.value);
        out += '\n';
        type_header(out, last_timer_c, family + "_calls_total", "counter");
        out += family;
        out += "_calls_total";
        append_labels(out, labels);
        out += ' ';
        out += std::to_string(e.count);
        out += '\n';
        break;
      }
      case MetricKind::histogram: {
        type_header(out, last_hist, family, "histogram");
        std::uint64_t cum = 0;
        for (std::size_t b = 0; b < e.buckets.size(); ++b) {
          if (e.buckets[b] == 0) continue;
          cum += e.buckets[b];
          std::string le = "le=\"";
          le += std::to_string(
              LogHistogram::bucket_upper(static_cast<std::uint32_t>(b)));
          le += '"';
          out += family;
          out += "_bucket";
          append_labels(out, labels, le);
          out += ' ';
          out += std::to_string(cum);
          out += '\n';
        }
        out += family;
        out += "_bucket";
        append_labels(out, labels, "le=\"+Inf\"");
        out += ' ';
        out += std::to_string(e.count);
        out += '\n';
        out += family;
        out += "_sum";
        append_labels(out, labels);
        out += ' ';
        out += std::to_string(e.hist_sum);
        out += '\n';
        out += family;
        out += "_count";
        append_labels(out, labels);
        out += ' ';
        out += std::to_string(e.count);
        out += '\n';
        break;
      }
    }
  }
  return out;
}

bool export_prometheus(const std::string& path, const Registry& registry) {
  return write_text_file(path, prometheus_text(registry));
}

}  // namespace bnloc::obs
