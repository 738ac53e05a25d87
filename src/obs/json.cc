#include "obs/json.h"

#include <cmath>
#include <cstdio>

#include "common/logging.h"

namespace ziziphus::obs {

// ------------------------------------------------------------- JsonWriter

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!stack_.empty()) {
    ZCHECK(stack_.back() == Frame::kArray);  // object values need a Key()
    if (has_value_.back()) out_ += ',';
    has_value_.back() = true;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  stack_.push_back(Frame::kObject);
  has_value_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  ZCHECK(!stack_.empty() && stack_.back() == Frame::kObject && !pending_key_);
  out_ += '}';
  stack_.pop_back();
  has_value_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  stack_.push_back(Frame::kArray);
  has_value_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  ZCHECK(!stack_.empty() && stack_.back() == Frame::kArray);
  out_ += ']';
  stack_.pop_back();
  has_value_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  ZCHECK(!stack_.empty() && stack_.back() == Frame::kObject && !pending_key_);
  if (has_value_.back()) out_ += ',';
  has_value_.back() = true;
  Escape(key);
  out_ += ':';
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view v) {
  BeforeValue();
  Escape(v);
  return *this;
}

JsonWriter& JsonWriter::Value(bool v) {
  BeforeValue();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Value(double v) {
  BeforeValue();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  // Integral doubles print as integers; everything else with a fixed,
  // locale-independent format so output is byte-stable.
  if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out_ += buf;
  } else {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    out_ += buf;
  }
  return *this;
}

JsonWriter& JsonWriter::Value(std::uint64_t v) {
  BeforeValue();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Value(std::int64_t v) {
  BeforeValue();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
  return *this;
}

void JsonWriter::Escape(std::string_view s) {
  out_ += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\n':
        out_ += "\\n";
        break;
      case '\t':
        out_ += "\\t";
        break;
      case '\r':
        out_ += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

}  // namespace ziziphus::obs
