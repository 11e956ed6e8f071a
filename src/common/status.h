// Status: lightweight error propagation without exceptions, in the style of
// absl::Status / arrow::Status. Every fallible public API in this project
// returns a Status or a Result<T> (see result.h).
#ifndef SILKROUTE_COMMON_STATUS_H_
#define SILKROUTE_COMMON_STATUS_H_

#include <memory>
#include <ostream>
#include <string>
#include <utility>

namespace silkroute {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kUnimplemented,
  kInternal,
  kParseError,
  kTypeError,
  kConstraintViolation,
  kTimeout,
  /// The source (remote RDBMS) is transiently unreachable; retryable.
  kUnavailable,
  /// A quota — notably the plan-wide retry budget — is used up; permanent.
  kResourceExhausted,
};

/// Returns a stable human-readable name for a status code ("InvalidArgument").
const char* StatusCodeToString(StatusCode code);

/// True for failures of the *source* (unreachable or too slow), as opposed
/// to bugs in the generated SQL or plan: the codes retries, plan
/// degradation, failover, and circuit breakers route around.
inline bool IsSourceFailure(StatusCode code) {
  return code == StatusCode::kUnavailable || code == StatusCode::kTimeout;
}

/// A success-or-error value. Ok statuses carry no allocation; error statuses
/// carry a code and a message.
class Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message);

  Status(const Status& other);
  Status& operator=(const Status& other);
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status ConstraintViolation(std::string msg) {
    return Status(StatusCode::kConstraintViolation, std::move(msg));
  }
  static Status Timeout(std::string msg) {
    return Status(StatusCode::kTimeout, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return state_ == nullptr; }
  StatusCode code() const { return ok() ? StatusCode::kOk : state_->code; }
  const std::string& message() const;

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code() == other.code() && message() == other.message();
  }

 private:
  struct State {
    StatusCode code;
    std::string message;
  };
  std::unique_ptr<State> state_;  // null == OK
};

std::ostream& operator<<(std::ostream& os, const Status& status);

}  // namespace silkroute

/// Propagates a non-OK Status to the caller.
#define SILK_RETURN_IF_ERROR(expr)                  \
  do {                                              \
    ::silkroute::Status _silk_status = (expr);      \
    if (!_silk_status.ok()) return _silk_status;    \
  } while (false)

#endif  // SILKROUTE_COMMON_STATUS_H_
