// Minimal streaming JSON writer for the telemetry exporters.
//
// Deliberately tiny: objects, arrays, string/number/bool values, correct
// escaping, and nothing else — enough for machine-readable run reports and
// JSONL traces without pulling a JSON dependency into the build. Numbers
// are emitted with enough digits to round-trip a double; non-finite doubles
// become null (JSON has no NaN).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace bnloc::obs {

[[nodiscard]] std::string json_escape(std::string_view raw);

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view k);
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(bool v);

  // Convenience key/value pairs. The const char* overload matters: without
  // it a literal would convert to bool (a standard conversion) before
  // string_view (user-defined) and serialize as true/false.
  JsonWriter& kv(std::string_view k, std::string_view v) {
    return key(k).value(v);
  }
  JsonWriter& kv(std::string_view k, const char* v) {
    return key(k).value(std::string_view(v));
  }
  JsonWriter& kv(std::string_view k, double v) { return key(k).value(v); }
  JsonWriter& kv(std::string_view k, std::uint64_t v) {
    return key(k).value(v);
  }
  JsonWriter& kv(std::string_view k, bool v) { return key(k).value(v); }

  [[nodiscard]] const std::string& str() const noexcept { return out_; }

 private:
  /// Emit the separating comma when this is not the first element at the
  /// current nesting level.
  void separate();

  std::string out_;
  std::vector<bool> first_;  ///< per open container: nothing emitted yet?
  bool after_key_ = false;
};

/// Write `text` to `path` (truncating, or appending when `append`). Returns
/// false when the file cannot be opened, written or closed — a write that
/// fails only when the buffer is flushed at close is a failure too.
bool write_text_file(const std::string& path, std::string_view text,
                     bool append = false);

}  // namespace bnloc::obs
