#ifndef ZIZIPHUS_OBS_JSON_H_
#define ZIZIPHUS_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ziziphus::obs {

/// Deterministic streaming JSON writer. Output depends only on the call
/// sequence — no pointers, no locale, fixed float formatting — so two
/// identical runs produce byte-identical documents (the golden-file tests
/// and the BENCH_*.json diffs rely on this).
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Emits an object key; must be followed by a value or Begin*.
  JsonWriter& Key(std::string_view key);

  JsonWriter& Value(std::string_view v);
  JsonWriter& Value(const char* v) { return Value(std::string_view(v)); }
  JsonWriter& Value(bool v);
  JsonWriter& Value(double v);
  JsonWriter& Value(std::uint64_t v);
  JsonWriter& Value(std::int64_t v);
  JsonWriter& Value(int v) { return Value(static_cast<std::int64_t>(v)); }
  JsonWriter& Value(unsigned v) { return Value(static_cast<std::uint64_t>(v)); }
  JsonWriter& Null();

  /// Key + scalar in one call.
  template <typename T>
  JsonWriter& Field(std::string_view key, T v) {
    Key(key);
    return Value(v);
  }

  const std::string& str() const { return out_; }
  std::string TakeString() { return std::move(out_); }

 private:
  void BeforeValue();
  void Escape(std::string_view s);

  enum class Frame { kObject, kArray };
  std::string out_;
  std::vector<Frame> stack_;
  // Per-frame "a value was already written" flags, parallel to stack_.
  std::vector<bool> has_value_;
  bool pending_key_ = false;
};

}  // namespace ziziphus::obs

#endif  // ZIZIPHUS_OBS_JSON_H_
