// Minimal Result<T> / Status for expected, recoverable failures.
//
// Style note (per the C++ Core Guidelines): exceptions are reserved for
// programming and configuration errors (violated preconditions, impossible
// states); results the simulation *expects* to happen — checksum mismatch,
// cache miss on a failed device, unrecoverable segment — travel as values.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace srcache {

enum class ErrorCode {
  kOk = 0,
  kNotFound,
  kCorrupted,
  kDeviceFailed,
  kOutOfSpace,
  kInvalidArgument,
  kUnrecoverable,
  kMediaError,
};

inline const char* to_string(ErrorCode c) {
  switch (c) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kNotFound: return "not-found";
    case ErrorCode::kCorrupted: return "corrupted";
    case ErrorCode::kDeviceFailed: return "device-failed";
    case ErrorCode::kOutOfSpace: return "out-of-space";
    case ErrorCode::kInvalidArgument: return "invalid-argument";
    case ErrorCode::kUnrecoverable: return "unrecoverable";
    case ErrorCode::kMediaError: return "media-error";
  }
  return "unknown";
}

class Status {
 public:
  Status() = default;
  explicit Status(ErrorCode code, std::string msg = {})
      : code_(code), msg_(std::move(msg)) {}

  static Status ok() { return Status{}; }

  [[nodiscard]] bool is_ok() const { return code_ == ErrorCode::kOk; }
  [[nodiscard]] ErrorCode code() const { return code_; }

  [[nodiscard]] std::string to_string() const {
    std::string s = srcache::to_string(code_);
    if (!msg_.empty()) s += ": " + msg_;
    return s;
  }

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string msg_;
};

template <typename T>
class Result {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor)
  Result(T value) : v_(std::move(value)) {}
  Result(Status status) : v_(std::move(status)) {  // NOLINT
    if (std::get<Status>(v_).is_ok()) {
      throw std::logic_error("Result constructed from OK status without value");
    }
  }

  [[nodiscard]] bool is_ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return is_ok(); }

  [[nodiscard]] const T& value() const& {
    if (!is_ok())
      throw std::logic_error("Result::value on error: " + status().to_string());
    return std::get<T>(v_);
  }
  [[nodiscard]] T& value() & {
    if (!is_ok())
      throw std::logic_error("Result::value on error: " + status().to_string());
    return std::get<T>(v_);
  }
  [[nodiscard]] T&& take() && {
    if (!is_ok())
      throw std::logic_error("Result::take on error: " + status().to_string());
    return std::get<T>(std::move(v_));
  }

  [[nodiscard]] Status status() const {
    if (is_ok()) return Status::ok();
    return std::get<Status>(v_);
  }
  [[nodiscard]] ErrorCode code() const { return status().code(); }

 private:
  std::variant<T, Status> v_;
};

}  // namespace srcache
