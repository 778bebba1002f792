// JSON in/out for the serve surface (docs/SERVICE.md).
//
// Three pieces:
//  * a minimal recursive-descent JSON reader (JsonValue / parse_json) —
//    the read-side counterpart of obs/json.hpp's writer, deliberately
//    tiny (objects, arrays, strings, doubles, bools, null; no streaming,
//    no number-type preservation) so the service surface stays
//    dependency-free like the rest of the library;
//  * request decoding: JSON batch text -> std::vector<ServeRequest>,
//    with the field vocabulary documented in docs/SERVICE.md;
//  * response encoding: ServeResponse -> one JSON object per request
//    (the JSONL stream the service emits).
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "serve/request.hpp"

namespace bnloc::serve {

/// One parsed JSON value. Object member order is preserved (diffable
/// round-trips); duplicate keys keep the last occurrence on lookup.
struct JsonValue {
  enum class Kind { null, boolean, number, string, array, object };

  Kind kind = Kind::null;
  bool flag = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> items;  ///< array elements.
  std::vector<std::pair<std::string, JsonValue>> members;  ///< object.

  /// Object member by key, or nullptr (also for non-objects).
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;
  [[nodiscard]] bool is(Kind k) const noexcept { return kind == k; }
};

/// Parse one JSON document (trailing whitespace allowed, nothing else).
/// False on malformed input or on containers nested more than 64 deep, with
/// a position-annotated reason in `*error` when non-null.
[[nodiscard]] bool parse_json(std::string_view text, JsonValue& out,
                              std::string* error = nullptr);

/// Decode one request object (see docs/SERVICE.md for the field table).
/// Unknown fields are errors — a typo'd knob silently running the default
/// is the worst failure mode a service schema can have.
[[nodiscard]] bool parse_serve_request(const JsonValue& value,
                                       ServeRequest& out, std::string* error);

/// Decode a batch: either a top-level array of request objects or
/// `{"requests": [...]}`. Requests without an "id" get "req-<index>".
[[nodiscard]] bool parse_serve_batch(std::string_view text,
                                     std::vector<ServeRequest>& out,
                                     std::string* error);

/// One response as a single-line JSON object (no trailing newline) — the
/// per-request record of the service's JSONL stream. Schema in
/// docs/SERVICE.md; `transport_hash` is emitted as a 16-digit hex string
/// (JSON numbers cannot carry 64 bits losslessly).
[[nodiscard]] std::string serve_response_json(const ServeResponse& response);

}  // namespace bnloc::serve
