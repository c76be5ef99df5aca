// Minimal JSON emission and parsing for machine-readable artifacts
// (campaign summaries, bench baselines, attack/campaign checkpoints).
//
// JsonWriter tracks just enough structure to guarantee well-formed output:
// commas, key/value alternation and brace balance are handled here, string
// escaping covers the control range, and doubles round-trip via %.17g.
//
// JsonValue/parse_json is the matching reader, grown for checkpoint/resume.
// Numbers keep their source token so 64-bit integers (seeds, fingerprints)
// round-trip exactly instead of being squeezed through a double.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bits.h"

namespace sbm {

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Key inside an object; must be followed by a value or container.
  JsonWriter& key(const std::string& name);

  JsonWriter& value(const std::string& s);
  JsonWriter& value(const char* s);
  JsonWriter& value(bool b);
  JsonWriter& value(double d);
  JsonWriter& value(u64 v);  // also covers size_t on LP64
  JsonWriter& value(u32 v) { return value(u64{v}); }
  JsonWriter& value(int v);

  /// Appends a pre-serialized JSON value verbatim (comma/structure handling
  /// as for value()).  The caller guarantees `json` is one well-formed
  /// value; used to embed already-rendered documents (campaign reports
  /// inside service responses) without a parse/dump round trip.
  JsonWriter& raw_value(std::string_view json);

  /// key + value in one call.
  template <typename T>
  JsonWriter& field(const std::string& name, T&& v) {
    key(name);
    return value(std::forward<T>(v));
  }

  /// The document so far.  Well-formed once every container is closed.
  const std::string& str() const { return out_; }

 private:
  void comma();
  void append_escaped(const std::string& s);

  std::string out_;
  /// Stack of open containers: 'o' = object expecting key, 'v' = object
  /// expecting value, 'a' = array.
  std::string stack_;
  bool need_comma_ = false;
};

/// A parsed JSON document node.  Object members keep document order (the
/// writer emits ordered objects, e.g. per-phase run counts).
struct JsonValue {
  enum class Kind : u8 { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  /// Numbers keep the raw token; as_u64/as_double parse lazily, losslessly.
  std::string number;
  std::string string;
  std::vector<JsonValue> items;                              // kArray
  std::vector<std::pair<std::string, JsonValue>> members;    // kObject

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }

  /// Member lookup on objects; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  /// Typed accessors; return the fallback on kind mismatch.  as_u64 also
  /// returns it for a number that is not a u64: negative, fractional,
  /// exponent-form or out of range (no wrap, no truncation).
  u64 as_u64(u64 fallback = 0) const;
  double as_double(double fallback = 0) const;
  bool as_bool(bool fallback = false) const;
  const std::string& as_string() const { return string; }

  /// Compact serialization.  Number tokens are re-emitted verbatim (never
  /// re-parsed through a double), strings are re-escaped canonically, so
  /// parse -> dump reaches a fixpoint after one round trip:
  /// dump(parse(dump(parse(x)))) == dump(parse(x)) for every valid x.
  std::string dump() const;
};

/// Parses one JSON document (trailing whitespace allowed, nothing else).
/// Returns nullopt on malformed input.  Handles the subset JsonWriter
/// emits, plus standard escapes including \uXXXX for the BMP.
std::optional<JsonValue> parse_json(std::string_view text);

}  // namespace sbm
