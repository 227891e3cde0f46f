// Minimal JSON reader. The library only writes JSON; the benchmark reads
// the library's reports and margin maps back with this to check them.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;                           ///< Array.
  std::vector<std::pair<std::string, JsonValue>> fields;  ///< Object.

  /// Member `key` of an object; nullptr when absent or not an object.
  const JsonValue* get(std::string_view key) const;
};

/// Parse one JSON document; false when it is malformed.
bool parseJson(std::string_view text, JsonValue& out);

}  // namespace perfbench
