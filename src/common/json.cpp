#include "common/json.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace sbm {

void JsonWriter::comma() {
  if (!stack_.empty() && stack_.back() == 'v') {
    stack_.back() = 'o';  // value completes a key/value pair
    need_comma_ = true;   // next key needs a separator
    return;
  }
  if (need_comma_) out_ += ',';
  need_comma_ = true;
}

namespace {

/// Shared string escaping: JsonWriter and JsonValue::dump must agree so a
/// parse -> dump round trip re-escapes strings canonically.
void append_escaped_to(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

void JsonWriter::append_escaped(const std::string& s) { append_escaped_to(out_, s); }

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  stack_ += 'o';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  stack_.pop_back();
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_ += '[';
  stack_ += 'a';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  stack_.pop_back();
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& name) {
  if (need_comma_) out_ += ',';
  need_comma_ = false;
  append_escaped(name);
  out_ += ':';
  if (!stack_.empty()) stack_.back() = 'v';
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& s) {
  comma();
  append_escaped(s);
  return *this;
}

JsonWriter& JsonWriter::value(const char* s) { return value(std::string(s)); }

JsonWriter& JsonWriter::raw_value(std::string_view json) {
  comma();
  out_ += json;
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  comma();
  out_ += b ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(double d) {
  comma();
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(u64 v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(int v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

u64 JsonValue::as_u64(u64 fallback) const {
  // strtoull would wrap "-1" to 2^64-1 and stop at the '.' of "1.5".
  if (kind != Kind::kNumber || number.empty() || number[0] == '-') return fallback;
  errno = 0;
  char* end = nullptr;
  const u64 v = std::strtoull(number.c_str(), &end, 10);
  return *end != '\0' || errno == ERANGE ? fallback : v;
}

double JsonValue::as_double(double fallback) const {
  if (kind != Kind::kNumber) return fallback;
  return std::strtod(number.c_str(), nullptr);
}

bool JsonValue::as_bool(bool fallback) const {
  return kind == Kind::kBool ? boolean : fallback;
}

namespace {

void dump_to(const JsonValue& v, std::string& out) {
  switch (v.kind) {
    case JsonValue::Kind::kNull:
      out += "null";
      return;
    case JsonValue::Kind::kBool:
      out += v.boolean ? "true" : "false";
      return;
    case JsonValue::Kind::kNumber:
      out += v.number;  // raw source token, bit-exact for 64-bit integers
      return;
    case JsonValue::Kind::kString:
      append_escaped_to(out, v.string);
      return;
    case JsonValue::Kind::kArray: {
      out += '[';
      for (size_t i = 0; i < v.items.size(); ++i) {
        if (i != 0) out += ',';
        dump_to(v.items[i], out);
      }
      out += ']';
      return;
    }
    case JsonValue::Kind::kObject: {
      out += '{';
      for (size_t i = 0; i < v.members.size(); ++i) {
        if (i != 0) out += ',';
        append_escaped_to(out, v.members[i].first);
        out += ':';
        dump_to(v.members[i].second, out);
      }
      out += '}';
      return;
    }
  }
}

}  // namespace

std::string JsonValue::dump() const {
  std::string out;
  dump_to(*this, out);
  return out;
}

namespace {

/// Recursive-descent parser over the document text.  Depth-bounded so a
/// hostile checkpoint file cannot overflow the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse() {
    auto v = parse_value(0);
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  std::optional<std::string> parse_string() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return std::nullopt;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return std::nullopt;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return std::nullopt;
          }
          // UTF-8 encode the BMP code point (the writer only ever emits
          // \u00XX control escapes, but accept the general form).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default:
          return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<JsonValue> parse_value(int depth) {
    if (depth > kMaxDepth) return std::nullopt;
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    JsonValue v;
    const char c = text_[pos_];
    if (c == 'n') {
      if (!literal("null")) return std::nullopt;
      return v;
    }
    if (c == 't' || c == 'f') {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = c == 't';
      if (!literal(c == 't' ? "true" : "false")) return std::nullopt;
      return v;
    }
    if (c == '"') {
      auto s = parse_string();
      if (!s) return std::nullopt;
      v.kind = JsonValue::Kind::kString;
      v.string = std::move(*s);
      return v;
    }
    if (c == '[') {
      ++pos_;
      v.kind = JsonValue::Kind::kArray;
      skip_ws();
      if (consume(']')) return v;
      while (true) {
        auto item = parse_value(depth + 1);
        if (!item) return std::nullopt;
        v.items.push_back(std::move(*item));
        if (consume(']')) return v;
        if (!consume(',')) return std::nullopt;
      }
    }
    if (c == '{') {
      ++pos_;
      v.kind = JsonValue::Kind::kObject;
      skip_ws();
      if (consume('}')) return v;
      while (true) {
        skip_ws();
        auto key = parse_string();
        if (!key || !consume(':')) return std::nullopt;
        auto member = parse_value(depth + 1);
        if (!member) return std::nullopt;
        v.members.emplace_back(std::move(*key), std::move(*member));
        if (consume('}')) return v;
        if (!consume(',')) return std::nullopt;
      }
    }
    // Number: keep the raw token for lossless integer round-trips.
    const size_t start = pos_;
    if (c == '-' || c == '+') ++pos_;
    bool digits = false;
    while (pos_ < text_.size()) {
      const char d = text_[pos_];
      if ((d >= '0' && d <= '9')) {
        digits = true;
        ++pos_;
      } else if (d == '.' || d == 'e' || d == 'E' || d == '-' || d == '+') {
        ++pos_;
      } else {
        break;
      }
    }
    if (!digits) return std::nullopt;
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::string(text_.substr(start, pos_ - start));
    return v;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text) {
  return JsonParser(text).parse();
}

}  // namespace sbm
