// The nesting budget of a recursive-descent parser: each nested construct
// holds one NestingLevel while it parses, and input nested deeper than the
// parser's limit is refused before it can exhaust the stack.
#ifndef SILKROUTE_COMMON_NESTING_H_
#define SILKROUTE_COMMON_NESTING_H_

#include <cstddef>
#include <string>

#include "common/status.h"

namespace silkroute {

class NestingLevel {
 public:
  explicit NestingLevel(size_t* depth) : depth_(depth) { ++*depth_; }
  ~NestingLevel() { --*depth_; }
  NestingLevel(const NestingLevel&) = delete;
  NestingLevel& operator=(const NestingLevel&) = delete;

  /// kInvalidArgument naming the depth once it exceeds `limit`; `offset`
  /// locates the construct in the input.
  Status Check(size_t limit, size_t offset) const {
    if (*depth_ <= limit) return Status::OK();
    return Status::InvalidArgument(
        "nesting depth " + std::to_string(*depth_) + " exceeds the limit of " +
        std::to_string(limit) + " at offset " + std::to_string(offset));
  }

 private:
  size_t* depth_;
};

}  // namespace silkroute

#endif  // SILKROUTE_COMMON_NESTING_H_
