// Minimal JSON reader for in-repo consumers of machine-readable output:
// bmload's `--stats` dashboard parses the `stats v1` snapshot, and the
// telemetry tests parse stats bodies, access-log lines, and slow-trace
// files. Strict enough to reject malformed documents (tests rely on
// that), small enough to stay dependency-free.
//
// This is a *reader*, not a data model: parse(), then navigate with
// find()/at() and unwrap with num()/str(). Writers in this repo emit JSON
// by hand (harness/artifacts.cpp, obs/trace.cpp, serve/telemetry.cpp) —
// keeping the two directions separate keeps both trivial — and share only
// quote() for string values.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace bm::json {

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Value> items;               ///< kArray
  std::map<std::string, Value> members;   ///< kObject

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  /// Member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;
  /// Nested lookup: find("a", "b") == find("a")->find("b").
  template <typename... Rest>
  const Value* find(std::string_view key, Rest... rest) const {
    const Value* v = find(key);
    return v == nullptr ? nullptr : v->find(rest...);
  }

  /// Numeric value of the member at the given path; `def` when the path is
  /// absent or non-numeric.
  template <typename... Keys>
  double num(double def, Keys... keys) const {
    const Value* v = find(keys...);
    return v != nullptr && v->is_number() ? v->number : def;
  }
  /// String value at the given path; `def` when absent or non-string.
  template <typename... Keys>
  std::string str(std::string def, Keys... keys) const {
    const Value* v = find(keys...);
    return v != nullptr && v->is_string() ? v->string : std::move(def);
  }
};

/// Parses one JSON document (the whole input must be consumed). Throws
/// bm::Error with a byte offset on malformed input.
Value parse(std::string_view text);

/// `s` as a JSON string literal, quotes included.
std::string quote(std::string_view s);

}  // namespace bm::json
