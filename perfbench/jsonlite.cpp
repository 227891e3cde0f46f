#include "jsonlite.hpp"

#include <cstdlib>

namespace perfbench {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view s) : s_(s) {}

  bool document(JsonValue& out) {
    if (!value(out, 0)) return false;
    skipSpace();
    return pos_ == s_.size();
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skipSpace() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t'))
      ++pos_;
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return false;
    skipSpace();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object(out, depth);
      case '[':
        return array(out, depth);
      case '"':
        out.type = JsonValue::Type::String;
        return string(out.text);
      case 't':
        out.type = JsonValue::Type::Bool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.type = JsonValue::Type::Bool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.type = JsonValue::Type::Null;
        return literal("null");
      default:
        return number(out);
    }
  }

  bool string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char e = s_[pos_++];
      switch (e) {
        case '"': case '\\': case '/': out.push_back(e); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u':
          // Code points are not needed by any check; keep a placeholder.
          if (pos_ + 4 > s_.size()) return false;
          pos_ += 4;
          out.push_back('?');
          break;
        default:
          return false;
      }
    }
    return false;
  }

  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           std::string_view("+-0123456789.eE").find(s_[pos_]) !=
               std::string_view::npos)
      ++pos_;
    if (pos_ == start) return false;
    const std::string token(s_.substr(start, pos_ - start));
    char* end = nullptr;
    out.type = JsonValue::Type::Number;
    out.number = std::strtod(token.c_str(), &end);
    return end == token.c_str() + token.size();
  }

  bool array(JsonValue& out, int depth) {
    out.type = JsonValue::Type::Array;
    ++pos_;
    skipSpace();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      out.items.emplace_back();
      if (!value(out.items.back(), depth + 1)) return false;
      skipSpace();
      if (pos_ >= s_.size()) return false;
      const char c = s_[pos_++];
      if (c == ']') return true;
      if (c != ',') return false;
    }
  }

  bool object(JsonValue& out, int depth) {
    out.type = JsonValue::Type::Object;
    ++pos_;
    skipSpace();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skipSpace();
      if (pos_ >= s_.size() || s_[pos_] != '"') return false;
      out.fields.emplace_back();
      if (!string(out.fields.back().first)) return false;
      skipSpace();
      if (pos_ >= s_.size() || s_[pos_++] != ':') return false;
      if (!value(out.fields.back().second, depth + 1)) return false;
      skipSpace();
      if (pos_ >= s_.size()) return false;
      const char c = s_[pos_++];
      if (c == '}') return true;
      if (c != ',') return false;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::get(std::string_view key) const {
  for (const auto& [k, v] : fields)
    if (k == key) return &v;
  return nullptr;
}

bool parseJson(std::string_view text, JsonValue& out) {
  out = JsonValue{};
  return Parser(text).document(out);
}

}  // namespace perfbench
