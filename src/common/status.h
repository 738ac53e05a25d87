#ifndef ZIZIPHUS_COMMON_STATUS_H_
#define ZIZIPHUS_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

namespace ziziphus {

/// Error categories used across the library. Protocol code reports precise
/// reasons so tests can assert *why* a malformed message was rejected.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kPermissionDenied,     // bad signature / unauthorized client
  kInvalidCertificate,   // quorum certificate failed verification
  kInternal,
};

const char* StatusCodeName(StatusCode code);

/// Lightweight status object (no exceptions on protocol paths).
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status NotFound(std::string m) {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status PermissionDenied(std::string m) {
    return Status(StatusCode::kPermissionDenied, std::move(m));
  }
  static Status InvalidCertificate(std::string m) {
    return Status(StatusCode::kInvalidCertificate, std::move(m));
  }
  static Status Internal(std::string m) {
    return Status(StatusCode::kInternal, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Minimal StatusOr: either a value or an error status.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {}  // NOLINT
  StatusOr(T value) : value_(std::move(value)) {}          // NOLINT

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }
  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return std::move(*value_); }
  const T& operator*() const { return *value_; }
  const T* operator->() const { return &*value_; }

 private:
  Status status_ = Status::Ok();
  std::optional<T> value_;
};

}  // namespace ziziphus

#endif  // ZIZIPHUS_COMMON_STATUS_H_
