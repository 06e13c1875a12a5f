#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace srcache::obs {

// --- writer -----------------------------------------------------------------

void JsonWriter::comma() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value follows its key, no comma
  }
  if (!wrote_elem_.empty()) {
    if (wrote_elem_.back()) out_ += ',';
    wrote_elem_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  wrote_elem_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  wrote_elem_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_ += '[';
  wrote_elem_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  wrote_elem_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  comma();
  out_ += '"';
  escape_into(out_, k);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  comma();
  out_ += '"';
  escape_into(out_, v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  if (!std::isfinite(v)) return null();
  comma();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(u64 v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(i64 v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  comma();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  comma();
  out_ += json;
  return *this;
}

void JsonWriter::escape_into(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

// --- DOM --------------------------------------------------------------------

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_number()) ? v->number : fallback;
}

// --- parser -----------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Result<JsonValue> parse() {
    JsonValue v;
    Status st = parse_value(v, 0);
    if (!st.is_ok()) return st;
    skip_ws();
    if (pos_ != s_.size())
      return Status(ErrorCode::kInvalidArgument, "trailing characters");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  [[nodiscard]] Status err(const char* what) const {
    return Status(ErrorCode::kInvalidArgument,
                  std::string(what) + " at offset " + std::to_string(pos_));
  }

  [[nodiscard]] bool at_digit() const {
    return pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]));
  }

  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status parse_value(JsonValue& out, int depth) {  // NOLINT(misc-no-recursion)
    if (depth > kMaxDepth) return err("nesting too deep");
    skip_ws();
    if (pos_ >= s_.size()) return err("unexpected end");
    switch (s_[pos_]) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"':
        out.type = JsonValue::Type::kString;
        return parse_string(out.string);
      case 't':
      case 'f':
      case 'n': return parse_literal(out);
      default: return parse_number(out);
    }
  }

  Status parse_object(JsonValue& out, int depth) {  // NOLINT(misc-no-recursion)
    out.type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (consume('}')) return Status::ok();
    while (true) {
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != '"') return err("expected key");
      std::string key;
      if (Status st = parse_string(key); !st.is_ok()) return st;
      skip_ws();
      if (!consume(':')) return err("expected ':'");
      JsonValue v;
      if (Status st = parse_value(v, depth + 1); !st.is_ok()) return st;
      out.object.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return Status::ok();
      return err("expected ',' or '}'");
    }
  }

  Status parse_array(JsonValue& out, int depth) {  // NOLINT(misc-no-recursion)
    out.type = JsonValue::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (consume(']')) return Status::ok();
    while (true) {
      JsonValue v;
      if (Status st = parse_value(v, depth + 1); !st.is_ok()) return st;
      out.array.push_back(std::move(v));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return Status::ok();
      return err("expected ',' or ']'");
    }
  }

  Status parse_string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return Status::ok();
      if (static_cast<unsigned char>(c) < 0x20) return err("raw control char");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) return err("dangling escape");
      char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return err("short \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9')
              cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              cp |= static_cast<unsigned>(h - 'A' + 10);
            else
              return err("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs not needed for
          // the ASCII-only strings we emit, but escape round-trips fine).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: return err("bad escape");
      }
    }
    return err("unterminated string");
  }

  Status parse_literal(JsonValue& out) {
    auto match = [&](std::string_view lit) {
      if (s_.substr(pos_, lit.size()) != lit) return false;
      pos_ += lit.size();
      return true;
    };
    if (match("true")) {
      out.type = JsonValue::Type::kBool;
      out.boolean = true;
      return Status::ok();
    }
    if (match("false")) {
      out.type = JsonValue::Type::kBool;
      out.boolean = false;
      return Status::ok();
    }
    if (match("null")) {
      out.type = JsonValue::Type::kNull;
      return Status::ok();
    }
    return err("bad literal");
  }

  Status parse_number(JsonValue& out) {
    const size_t start = pos_;
    if (consume('-')) {}
    if (!at_digit()) return err("bad number");
    // Leading zero must not be followed by another digit.
    if (s_[pos_] == '0' && pos_ + 1 < s_.size() &&
        std::isdigit(static_cast<unsigned char>(s_[pos_ + 1])))
      return err("leading zero");
    while (at_digit()) ++pos_;
    if (consume('.')) {
      if (!at_digit()) return err("bad fraction");
      while (at_digit()) ++pos_;
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (!at_digit()) return err("bad exponent");
      while (at_digit()) ++pos_;
    }
    out.type = JsonValue::Type::kNumber;
    out.number = std::strtod(
        std::string(s_.substr(start, pos_ - start)).c_str(), nullptr);
    return Status::ok();
  }

  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> parse_json(std::string_view text) {
  return Parser(text).parse();
}

namespace {

void serialize_into(JsonWriter& w, const JsonValue& v) {
  switch (v.type) {
    case JsonValue::Type::kNull:
      w.null();
      break;
    case JsonValue::Type::kBool:
      w.value(v.boolean);
      break;
    case JsonValue::Type::kNumber:
      // Integral values parsed into the double field re-serialize without a
      // decimal point, matching what the writers emitted for u64/i64.
      if (v.number == static_cast<double>(static_cast<i64>(v.number)) &&
          std::abs(v.number) < 9.0e15) {
        w.value(static_cast<i64>(v.number));
      } else {
        w.value(v.number);
      }
      break;
    case JsonValue::Type::kString:
      w.value(v.string);
      break;
    case JsonValue::Type::kArray:
      w.begin_array();
      for (const JsonValue& e : v.array) serialize_into(w, e);
      w.end_array();
      break;
    case JsonValue::Type::kObject:
      w.begin_object();
      for (const auto& [k, e] : v.object) {
        w.key(k);
        serialize_into(w, e);
      }
      w.end_object();
      break;
  }
}

}  // namespace

std::string to_json(const JsonValue& v) {
  JsonWriter w;
  serialize_into(w, v);
  return w.take();
}

}  // namespace srcache::obs
