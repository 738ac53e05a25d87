// Validates a bench binary's ZIZIPHUS_BENCH_JSON export against the
// "ziziphus.bench.v1" schema:
//
//   {"schema":"ziziphus.bench.v1","bench":"<name>","cells":[
//     {"name":"<cell>","metrics":{"<key>":<finite number>, ...}}, ...]}
//
//   $ bench_schema_check out.json [--allow-empty]
//       [--require=<name-substr>:<metric-key>]...
//       [--min-ratio=<a-substr>|<b-substr>|<metric-key>|<min>]...
//
// Cell names must be unique within an export.
//
// Each --require demands at least one cell whose name contains
// <name-substr> and whose metrics carry <metric-key>; the metric key is
// everything after the LAST ':' (cell names themselves contain colons).
//
// Each --min-ratio takes the first cell matching <a-substr> and the first
// matching <b-substr> (both carrying <metric-key>) and demands
// a >= min * b — how committed results assert relative claims, e.g. the
// read fast path's throughput multiple over its full-transaction control.
// '|' separates the fields because cell names contain ':' freely.
//
// Exit 0 when valid; exit 1 with a diagnostic otherwise. Wired into ctest
// behind each bench_smoke_* run and on each committed BENCH_*.json, so a
// malformed export fails tier-1.

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

// ---- Minimal JSON value + recursive-descent parser ---------------------

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  // Vector keeps duplicate keys visible; lookup takes the first.
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) return false;
    SkipWs();
    if (pos_ != text_.size()) return Fail("trailing characters");
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  bool Fail(const std::string& why) {
    if (error_.empty()) {
      std::size_t line = 1;
      for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
        if (text_[i] == '\n') ++line;
      }
      error_ = why + " (line " + std::to_string(line) + ")";
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = JsonValue::kString;
      return ParseString(&out->str);
    }
    if (c == 't' || c == 'f') return ParseLiteral(out);
    if (c == 'n') return ParseLiteral(out);
    return ParseNumber(out);
  }

  bool ParseLiteral(JsonValue* out) {
    auto match = [&](const char* word) {
      std::size_t n = std::strlen(word);
      if (text_.compare(pos_, n, word) != 0) return false;
      pos_ += n;
      return true;
    };
    if (match("true")) {
      out->kind = JsonValue::kBool;
      out->boolean = true;
      return true;
    }
    if (match("false")) {
      out->kind = JsonValue::kBool;
      out->boolean = false;
      return true;
    }
    if (match("null")) {
      out->kind = JsonValue::kNull;
      return true;
    }
    return Fail("invalid literal");
  }

  bool ParseNumber(JsonValue* out) {
    std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected a value");
    try {
      out->number = std::stod(text_.substr(start, pos_ - start));
    } catch (...) {
      return Fail("malformed number");
    }
    out->kind = JsonValue::kNumber;
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return Fail("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char esc = text_[pos_++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'u': {
            // Good enough for schema checking: skip the 4 hex digits.
            if (pos_ + 4 > text_.size()) return Fail("bad \\u escape");
            pos_ += 4;
            out->push_back('?');
            break;
          }
          default:
            return Fail("bad escape");
        }
      } else {
        out->push_back(c);
      }
    }
    return Fail("unterminated string");
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::kArray;
    if (!Consume('[')) return Fail("expected '['");
    SkipWs();
    if (Consume(']')) return true;
    while (true) {
      JsonValue v;
      if (!ParseValue(&v)) return false;
      out->array.push_back(std::move(v));
      SkipWs();
      if (Consume(']')) return true;
      if (!Consume(',')) return Fail("expected ',' or ']'");
    }
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::kObject;
    if (!Consume('{')) return Fail("expected '{'");
    SkipWs();
    if (Consume('}')) return true;
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (!Consume(':')) return Fail("expected ':'");
      JsonValue v;
      if (!ParseValue(&v)) return false;
      out->object.emplace_back(std::move(key), std::move(v));
      SkipWs();
      if (Consume('}')) return true;
      if (!Consume(',')) return Fail("expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

// ---- Schema validation -------------------------------------------------

int Invalid(const std::string& why) {
  std::fprintf(stderr, "bench_schema_check: INVALID: %s\n", why.c_str());
  return 1;
}

struct Requirement {
  std::string name_substr;  // cell name must contain this...
  std::string metric_key;   // ...and its metrics must carry this key
};

struct RatioRequirement {
  std::string a_substr;   // numerator cell (first match carrying the metric)
  std::string b_substr;   // denominator cell
  std::string metric_key;
  double min_ratio = 1.0;  // demand a >= min_ratio * b
};

/// First cell whose name contains `substr` and whose metrics carry `key`.
const JsonValue* FindCellMetric(const JsonValue& cells,
                                const std::string& substr,
                                const std::string& key) {
  for (const JsonValue& cell : cells.array) {
    const JsonValue* name = cell.Find("name");
    const JsonValue* metrics = cell.Find("metrics");
    if (name == nullptr || metrics == nullptr) continue;
    if (name->str.find(substr) == std::string::npos) continue;
    const JsonValue* v = metrics->Find(key);
    if (v != nullptr && v->kind == JsonValue::kNumber) return v;
  }
  return nullptr;
}

int Validate(const JsonValue& root, bool allow_empty,
             const std::vector<Requirement>& requirements,
             const std::vector<RatioRequirement>& ratios) {
  if (root.kind != JsonValue::kObject) {
    return Invalid("top level is not an object");
  }
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || schema->kind != JsonValue::kString ||
      schema->str != "ziziphus.bench.v1") {
    return Invalid("missing or wrong \"schema\" (want ziziphus.bench.v1)");
  }
  const JsonValue* bench = root.Find("bench");
  if (bench == nullptr || bench->kind != JsonValue::kString ||
      bench->str.empty()) {
    return Invalid("missing or empty \"bench\" name");
  }
  const JsonValue* cells = root.Find("cells");
  if (cells == nullptr || cells->kind != JsonValue::kArray) {
    return Invalid("missing \"cells\" array");
  }
  if (cells->array.empty() && !allow_empty) {
    return Invalid("\"cells\" is empty (pass --allow-empty if intended)");
  }
  std::set<std::string> names;
  std::size_t i = 0;
  for (const JsonValue& cell : cells->array) {
    std::string where = "cells[" + std::to_string(i++) + "]";
    if (cell.kind != JsonValue::kObject) {
      return Invalid(where + " is not an object");
    }
    const JsonValue* name = cell.Find("name");
    if (name == nullptr || name->kind != JsonValue::kString ||
        name->str.empty()) {
      return Invalid(where + " has no \"name\"");
    }
    if (!names.insert(name->str).second) {
      return Invalid(where + " repeats cell name \"" + name->str + "\"");
    }
    const JsonValue* metrics = cell.Find("metrics");
    if (metrics == nullptr || metrics->kind != JsonValue::kObject) {
      return Invalid(where + " (" + name->str + ") has no \"metrics\"");
    }
    for (const auto& [key, value] : metrics->object) {
      if (value.kind != JsonValue::kNumber || !std::isfinite(value.number)) {
        return Invalid(where + " metric \"" + key +
                       "\" is not a finite number");
      }
    }
  }
  for (const Requirement& req : requirements) {
    bool satisfied = false;
    for (const JsonValue& cell : cells->array) {
      const JsonValue* name = cell.Find("name");
      const JsonValue* metrics = cell.Find("metrics");
      if (name == nullptr || metrics == nullptr) continue;
      if (name->str.find(req.name_substr) == std::string::npos) continue;
      if (metrics->Find(req.metric_key) != nullptr) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) {
      return Invalid("no cell matching \"" + req.name_substr +
                     "\" carries metric \"" + req.metric_key + "\"");
    }
  }
  for (const RatioRequirement& req : ratios) {
    const JsonValue* a =
        FindCellMetric(*cells, req.a_substr, req.metric_key);
    const JsonValue* b =
        FindCellMetric(*cells, req.b_substr, req.metric_key);
    if (a == nullptr) {
      return Invalid("no cell matching \"" + req.a_substr +
                     "\" carries metric \"" + req.metric_key + "\"");
    }
    if (b == nullptr) {
      return Invalid("no cell matching \"" + req.b_substr +
                     "\" carries metric \"" + req.metric_key + "\"");
    }
    if (!(a->number >= req.min_ratio * b->number)) {
      std::ostringstream why;
      why << "\"" << req.metric_key << "\" ratio too low: cell \""
          << req.a_substr << "\" has " << a->number << ", cell \""
          << req.b_substr << "\" has " << b->number << ", demanded >= "
          << req.min_ratio << "x";
      return Invalid(why.str());
    }
  }
  std::printf("bench_schema_check: OK: %s, %zu cells\n", bench->str.c_str(),
              cells->array.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  bool allow_empty = false;
  std::vector<Requirement> requirements;
  std::vector<RatioRequirement> ratios;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--allow-empty") == 0) {
      allow_empty = true;
    } else if (std::strncmp(argv[i], "--min-ratio=", 12) == 0) {
      std::string spec = argv[i] + 12;
      std::vector<std::string> parts;
      std::size_t start = 0;
      for (std::size_t bar = spec.find('|'); bar != std::string::npos;
           bar = spec.find('|', start)) {
        parts.push_back(spec.substr(start, bar - start));
        start = bar + 1;
      }
      parts.push_back(spec.substr(start));
      double min_ratio = 0;
      bool numeric = parts.size() == 4;
      if (numeric) {
        try {
          min_ratio = std::stod(parts[3]);
        } catch (...) {
          numeric = false;
        }
      }
      if (!numeric || parts[0].empty() || parts[1].empty() ||
          parts[2].empty()) {
        std::fprintf(stderr, "bench_schema_check: bad --min-ratio=%s "
                             "(want <a-substr>|<b-substr>|<metric>|<min>)\n",
                     spec.c_str());
        return 2;
      }
      ratios.push_back({parts[0], parts[1], parts[2], min_ratio});
    } else if (std::strncmp(argv[i], "--require=", 10) == 0) {
      std::string spec = argv[i] + 10;
      std::size_t colon = spec.rfind(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 == spec.size()) {
        std::fprintf(stderr, "bench_schema_check: bad --require=%s "
                             "(want <name-substr>:<metric-key>)\n",
                     spec.c_str());
        return 2;
      }
      requirements.push_back(
          {spec.substr(0, colon), spec.substr(colon + 1)});
    } else {
      path = argv[i];
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr, "usage: bench_schema_check <file.json> "
                         "[--allow-empty] [--require=<substr>:<metric>] "
                         "[--min-ratio=<a>|<b>|<metric>|<min>]\n");
    return 2;
  }
  std::ifstream in(path);
  if (!in) return Invalid(std::string("cannot open ") + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  if (text.empty()) return Invalid(std::string(path) + " is empty");

  Parser parser(text);
  JsonValue root;
  if (!parser.Parse(&root)) {
    return Invalid("JSON parse error: " + parser.error());
  }
  return Validate(root, allow_empty, requirements, ratios);
}
