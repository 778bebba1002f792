#include "serve/json_io.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "obs/json.hpp"

namespace bnloc::serve {

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind != Kind::object) return nullptr;
  const JsonValue* hit = nullptr;
  for (const auto& [k, v] : members)
    if (k == key) hit = &v;  // last occurrence wins
  return hit;
}

// --- Reader -----------------------------------------------------------------

namespace {

// Containers the reader nests before it gives up. The reader recurses once
// per '[' or '{', so an unbounded depth lets a short hostile batch overflow
// the stack; a request is at most 4 levels deep.
constexpr std::size_t kMaxJsonDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool parse(JsonValue& out, std::string* error) {
    if (!value(out, 0)) {
      if (error) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "JSON parse error at offset %zu: %s",
                      pos_, reason_.c_str());
        *error = buf;
      }
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error) {
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      "JSON parse error at offset %zu: trailing content",
                      pos_);
        *error = buf;
      }
      return false;
    }
    return true;
  }

 private:
  bool fail(const char* why) {
    if (reason_.empty()) reason_ = why;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool literal(const char* word, std::size_t len) {
    if (text_.size() - pos_ < len || text_.substr(pos_, len) != word)
      return fail("invalid literal");
    pos_ += len;
    return true;
  }

  /// `depth` counts the containers enclosing `out`.
  bool value(JsonValue& out, std::size_t depth) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if ((c == '{' || c == '[') && depth == kMaxJsonDepth)
      return fail("nesting too deep");
    switch (c) {
      case '{': return object(out, depth + 1);
      case '[': return array(out, depth + 1);
      case '"':
        out.kind = JsonValue::Kind::string;
        return string(out.str);
      case 't':
        out.kind = JsonValue::Kind::boolean;
        out.flag = true;
        return literal("true", 4);
      case 'f':
        out.kind = JsonValue::Kind::boolean;
        out.flag = false;
        return literal("false", 5);
      case 'n':
        out.kind = JsonValue::Kind::null;
        return literal("null", 4);
      default: return number(out);
    }
  }

  bool object(JsonValue& out, std::size_t depth) {
    out.kind = JsonValue::Kind::object;
    ++pos_;  // '{'
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return fail("expected object key");
      std::string key;
      if (!string(key)) return false;
      if (!consume(':')) return fail("expected ':' after key");
      JsonValue member;
      if (!value(member, depth)) return false;
      out.members.emplace_back(std::move(key), std::move(member));
      if (consume(',')) continue;
      if (consume('}')) return true;
      return fail("expected ',' or '}' in object");
    }
  }

  bool array(JsonValue& out, std::size_t depth) {
    out.kind = JsonValue::Kind::array;
    ++pos_;  // '['
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      JsonValue item;
      if (!value(item, depth)) return false;
      out.items.push_back(std::move(item));
      if (consume(',')) continue;
      if (consume(']')) return true;
      return fail("expected ',' or ']' in array");
    }
  }

  bool string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("unescaped control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (text_.size() - pos_ < 4) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
              code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              return fail("invalid hex digit in \\u escape");
          }
          if (code >= 0xD800 && code <= 0xDFFF)
            return fail("surrogate \\u escapes are not supported");
          // UTF-8 encode the BMP code point.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return fail("invalid escape character");
      }
    }
    return fail("unterminated string");
  }

  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return fail("invalid value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out.num = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos_ = start;
      return fail("malformed number");
    }
    out.kind = JsonValue::Kind::number;
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string reason_;
};

}  // namespace

bool parse_json(std::string_view text, JsonValue& out, std::string* error) {
  out = JsonValue{};
  return Parser(text).parse(out, error);
}

// --- Request decoding -------------------------------------------------------

namespace {

bool decode_fail(std::string* error, const std::string& why) {
  if (error) *error = why;
  return false;
}

bool want_number(const JsonValue& v, const char* field, double& out,
                 std::string* error) {
  if (!v.is(JsonValue::Kind::number))
    return decode_fail(error, std::string(field) + " must be a number");
  out = v.num;
  return true;
}

bool want_count(const JsonValue& v, const char* field, std::size_t& out,
                std::string* error) {
  double d = 0.0;
  if (!want_number(v, field, d, error)) return false;
  // Range-check before the cast: converting a double outside the range of
  // std::size_t (e.g. 1e20 or inf) is undefined behaviour.
  const double limit =
      std::ldexp(1.0, std::numeric_limits<std::size_t>::digits);
  if (!(d >= 0.0 && d < limit) ||
      d != static_cast<double>(static_cast<std::size_t>(d)))
    return decode_fail(error,
                       std::string(field) + " must be a non-negative integer");
  out = static_cast<std::size_t>(d);
  return true;
}

bool want_bool(const JsonValue& v, const char* field, bool& out,
               std::string* error) {
  if (!v.is(JsonValue::Kind::boolean))
    return decode_fail(error, std::string(field) + " must be a boolean");
  out = v.flag;
  return true;
}

bool want_string(const JsonValue& v, const char* field, std::string& out,
                 std::string* error) {
  if (!v.is(JsonValue::Kind::string))
    return decode_fail(error, std::string(field) + " must be a string");
  out = v.str;
  return true;
}

bool decode_scenario(const JsonValue& v, ScenarioConfig& cfg,
                     std::string* error) {
  if (!v.is(JsonValue::Kind::object))
    return decode_fail(error, "scenario must be an object");
  // Radio parts are collected and re-assembled through make_radio so the
  // defaults stay in one place (deploy/scenario.hpp).
  double range = cfg.radio.range;
  double noise = cfg.radio.ranging.noise_factor;
  RangingType ranging = cfg.radio.ranging.type;
  for (const auto& [key, val] : v.members) {
    if (key == "nodes") {
      if (!want_count(val, "scenario.nodes", cfg.node_count, error))
        return false;
    } else if (key == "anchor_fraction") {
      if (!want_number(val, "scenario.anchor_fraction", cfg.anchor_fraction,
                       error))
        return false;
    } else if (key == "seed") {
      std::size_t seed = 0;
      if (!want_count(val, "scenario.seed", seed, error)) return false;
      cfg.seed = seed;
    } else if (key == "deployment") {
      std::string name;
      if (!want_string(val, "scenario.deployment", name, error)) return false;
      if (name == "uniform")
        cfg.deployment.kind = DeploymentKind::uniform;
      else if (name == "grid_jitter")
        cfg.deployment.kind = DeploymentKind::grid_jitter;
      else if (name == "clusters")
        cfg.deployment.kind = DeploymentKind::clusters;
      else if (name == "line_drop")
        cfg.deployment.kind = DeploymentKind::line_drop;
      else
        return decode_fail(error,
                           "scenario.deployment: unknown kind '" + name + "'");
    } else if (key == "anchor_placement") {
      std::string name;
      if (!want_string(val, "scenario.anchor_placement", name, error))
        return false;
      if (name == "random")
        cfg.anchor_placement = AnchorPlacement::random;
      else if (name == "perimeter")
        cfg.anchor_placement = AnchorPlacement::perimeter;
      else if (name == "grid")
        cfg.anchor_placement = AnchorPlacement::grid;
      else
        return decode_fail(
            error, "scenario.anchor_placement: unknown strategy '" + name + "'");
    } else if (key == "radio_range") {
      if (!want_number(val, "scenario.radio_range", range, error))
        return false;
    } else if (key == "noise") {
      if (!want_number(val, "scenario.noise", noise, error)) return false;
    } else if (key == "ranging") {
      std::string name;
      if (!want_string(val, "scenario.ranging", name, error)) return false;
      if (name == "log_normal")
        ranging = RangingType::log_normal;
      else if (name == "gaussian")
        ranging = RangingType::gaussian;
      else
        return decode_fail(error,
                           "scenario.ranging: unknown model '" + name + "'");
    } else if (key == "prior") {
      std::string name;
      if (!want_string(val, "scenario.prior", name, error)) return false;
      if (name == "none")
        cfg.prior_quality = PriorQuality::none;
      else if (name == "exact")
        cfg.prior_quality = PriorQuality::exact;
      else if (name == "widened")
        cfg.prior_quality = PriorQuality::widened;
      else if (name == "biased")
        cfg.prior_quality = PriorQuality::biased;
      else
        return decode_fail(error,
                           "scenario.prior: unknown quality '" + name + "'");
    } else {
      return decode_fail(error, "scenario: unknown field '" + key + "'");
    }
  }
  cfg.radio = make_radio(range, ranging, noise);
  return true;
}

/// Engine knobs shared by all three configs are applied to all three, so
/// the request's `engine` selector alone decides which one runs.
bool decode_engine_config(const JsonValue& v, ServeRequest& req,
                          std::string* error) {
  if (!v.is(JsonValue::Kind::object))
    return decode_fail(error, "engine_config must be an object");
  const auto all_iteration = [&req](auto&& apply) {
    apply(req.grid.iteration);
    apply(req.particle.iteration);
    apply(req.gauss.iteration);
  };
  const auto all_robustness = [&req](auto&& apply) {
    apply(req.grid.robustness);
    apply(req.particle.robustness);
    apply(req.gauss.robustness);
  };
  const auto all_transport = [&req](auto&& apply) {
    apply(req.grid.transport);
    apply(req.particle.transport);
    apply(req.gauss.transport);
  };
  for (const auto& [key, val] : v.members) {
    if (key == "max_iterations") {
      std::size_t n = 0;
      if (!want_count(val, "engine_config.max_iterations", n, error))
        return false;
      all_iteration([n](IterationConfig& it) { it.max_iterations = n; });
    } else if (key == "convergence_tol") {
      double tol = 0.0;
      if (!want_number(val, "engine_config.convergence_tol", tol, error))
        return false;
      all_iteration([tol](IterationConfig& it) { it.convergence_tol = tol; });
    } else if (key == "grid_side") {
      if (!want_count(val, "engine_config.grid_side", req.grid.grid_side,
                      error))
        return false;
    } else if (key == "pyramid_levels") {
      if (!want_count(val, "engine_config.pyramid_levels",
                      req.grid.pyramid_levels, error))
        return false;
    } else if (key == "particle_count") {
      if (!want_count(val, "engine_config.particle_count",
                      req.particle.particle_count, error))
        return false;
    } else if (key == "robust") {
      bool robust = false;
      if (!want_bool(val, "engine_config.robust", robust, error)) return false;
      all_robustness(
          [robust](RobustnessConfig& r) { r.robust_likelihood = robust; });
    } else if (key == "stale_ttl") {
      std::size_t ttl = 0;
      if (!want_count(val, "engine_config.stale_ttl", ttl, error))
        return false;
      all_robustness([ttl](RobustnessConfig& r) { r.stale_ttl = ttl; });
    } else if (key == "update_quorum") {
      double quorum = 0.0;
      if (!want_number(val, "engine_config.update_quorum", quorum, error))
        return false;
      all_robustness(
          [quorum](RobustnessConfig& r) { r.update_quorum = quorum; });
    } else if (key == "async") {
      bool async = false;
      if (!want_bool(val, "engine_config.async", async, error)) return false;
      all_transport([async](TransportConfig& t) { t.async = async; });
    } else if (key == "loss") {
      double loss = 0.0;
      if (!want_number(val, "engine_config.loss", loss, error)) return false;
      all_transport([loss](TransportConfig& t) { t.radio.loss = loss; });
    } else if (key == "latency") {
      double latency = 0.0;
      if (!want_number(val, "engine_config.latency", latency, error))
        return false;
      all_transport(
          [latency](TransportConfig& t) { t.radio.latency = latency; });
    } else if (key == "threads") {
      return decode_fail(error,
                         "engine_config.threads is not accepted: the service "
                         "owns parallelism (requests shard across the batch "
                         "pool; see docs/SERVICE.md)");
    } else {
      return decode_fail(error, "engine_config: unknown field '" + key + "'");
    }
  }
  return true;
}

}  // namespace

bool parse_serve_request(const JsonValue& value, ServeRequest& out,
                         std::string* error) {
  out = ServeRequest{};
  if (!value.is(JsonValue::Kind::object))
    return decode_fail(error, "request must be an object");
  for (const auto& [key, val] : value.members) {
    if (key == "tenant") {
      if (!want_string(val, "tenant", out.tenant, error)) return false;
    } else if (key == "id") {
      if (!want_string(val, "id", out.id, error)) return false;
    } else if (key == "engine") {
      std::string name;
      if (!want_string(val, "engine", name, error)) return false;
      if (!engine_kind_from(name, out.engine))
        return decode_fail(error, "engine: unknown engine '" + name +
                                      "' (grid, particle, gauss)");
    } else if (key == "algo_seed") {
      std::size_t seed = 0;
      if (!want_count(val, "algo_seed", seed, error)) return false;
      out.algo_seed = seed;
    } else if (key == "scenario") {
      if (!decode_scenario(val, out.scenario, error)) return false;
    } else if (key == "engine_config") {
      if (!decode_engine_config(val, out, error)) return false;
    } else {
      return decode_fail(error, "request: unknown field '" + key + "'");
    }
  }
  return true;
}

bool parse_serve_batch(std::string_view text, std::vector<ServeRequest>& out,
                       std::string* error) {
  out.clear();
  JsonValue root;
  if (!parse_json(text, root, error)) return false;
  const JsonValue* list = &root;
  if (root.is(JsonValue::Kind::object)) {
    list = root.find("requests");
    if (!list)
      return decode_fail(error,
                         "batch object must carry a \"requests\" array");
  }
  if (!list->is(JsonValue::Kind::array))
    return decode_fail(error,
                       "batch must be an array of requests or "
                       "{\"requests\": [...]}");
  out.reserve(list->items.size());
  for (std::size_t i = 0; i < list->items.size(); ++i) {
    ServeRequest req;
    std::string why;
    if (!parse_serve_request(list->items[i], req, &why)) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "request %zu: ", i);
      return decode_fail(error, buf + why);
    }
    if (req.id.empty()) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "req-%zu", i);
      req.id = buf;
    }
    out.push_back(std::move(req));
  }
  return true;
}

// --- Response encoding ------------------------------------------------------

std::string serve_response_json(const ServeResponse& response) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("type", "result");
  w.kv("tenant", response.tenant);
  w.kv("id", response.id);
  w.kv("engine", response.engine);
  w.kv("ok", response.ok);
  if (!response.ok) w.kv("error", response.error);
  w.kv("nodes", static_cast<std::uint64_t>(response.nodes));
  w.kv("anchors", static_cast<std::uint64_t>(response.anchors));
  w.kv("localized", static_cast<std::uint64_t>(response.localized));
  if (response.ok) {
    w.kv("coverage", response.report.coverage);
    w.kv("mean_error", response.report.summary.mean);
    w.kv("median_error", response.report.summary.median);
    w.kv("q90_error", response.report.summary.q90);
    w.kv("rmse_error", response.report.summary.rmse);
    w.kv("penalized_mean", response.report.penalized_mean);
    w.kv("iterations",
         static_cast<std::uint64_t>(response.result.iterations));
    w.kv("converged", response.result.converged);
    w.kv("msgs_per_node",
         response.result.comm.messages_per_node(response.nodes));
    w.kv("bytes_per_node", response.result.comm.bytes_per_node(response.nodes));
    char hash[17];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(response.result.transport_hash));
    w.kv("transport_hash", hash);
    w.kv("solver_seconds", response.solver_seconds);
  }
  w.kv("serve_seconds", response.seconds);
  w.end_object();
  return w.str();
}

}  // namespace bnloc::serve
