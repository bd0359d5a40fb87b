// Minimal JSON writer used by the structured result emitters (RunResult,
// ResultSet). Write-only by design: the project emits JSON
// artifacts for CI and analysis scripts but never parses them.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>

namespace axipack::util {

/// Escapes `s` for embedding in a JSON string literal (quotes not added).
std::string json_escape(const std::string& s);

/// Formats a double as a JSON number (finite values only; non-finite
/// values, which JSON cannot represent, are emitted as null).
std::string json_number(double value);

/// Streaming writer for one JSON document. Tracks nesting and element
/// counts so callers never hand-place commas; values are formatted and
/// strings escaped on the way through.
///
///   JsonWriter w;
///   w.begin_object();
///   w.key("cycles").value(std::uint64_t{42});
///   w.key("points").begin_array();
///   ...
///   w.end_array();
///   w.end_object();
///   std::string doc = w.str();
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits an object key; the next value/begin_* call provides its value.
  JsonWriter& key(const std::string& name);

  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v);
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v);
  JsonWriter& value(unsigned v);
  JsonWriter& value(bool v);
  JsonWriter& null();
  /// Splices a pre-rendered JSON fragment in as one value (e.g. the
  /// output of RunResult::to_json()).
  JsonWriter& raw(const std::string& json_fragment);

  std::string str() const { return out_.str(); }

 private:
  void before_value();

  std::ostringstream out_;
  /// Element count per open scope; top-level is depth 0.
  std::string stack_;  ///< '{' or '[' per nesting level
  std::string counts_nonempty_;  ///< parallel to stack_: '1' once a scope has elements
  bool pending_key_ = false;
};

}  // namespace axipack::util
