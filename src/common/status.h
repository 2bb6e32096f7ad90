#ifndef PITREE_COMMON_STATUS_H_
#define PITREE_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace pitree {

/// Result type used throughout the library in place of exceptions.
///
/// A Status either carries `ok()` (the common case, represented without any
/// allocation) or an error code plus a human-readable message. The style
/// follows the convention used by production storage engines: every fallible
/// public operation returns a Status, and callers must check it. The
/// [[nodiscard]] makes "must check it" a compile-time rule (with -Werror):
/// a dropped Status is exactly how a lost I/O error turns into silent
/// corruption after recovery.
class [[nodiscard]] Status {
 public:
  enum class Code : unsigned char {
    kOk = 0,
    kNotFound,
    kCorruption,
    kInvalidArgument,
    kIOError,
    kBusy,         // resource (latch/lock) unavailable without waiting
    kDeadlock,     // lock wait chose this requester as deadlock victim
    kAborted,      // transaction or atomic action rolled back
    kNoSpace,      // page or structure out of room
    kNotSupported,
    kSnapshotTooOld,  // as-of read below the history a node still keeps
  };

  Status() = default;  // OK

  static Status OK() { return Status(); }
  static Status NotFound(std::string_view msg = "") {
    return Status(Code::kNotFound, msg);
  }
  static Status Corruption(std::string_view msg = "") {
    return Status(Code::kCorruption, msg);
  }
  static Status InvalidArgument(std::string_view msg = "") {
    return Status(Code::kInvalidArgument, msg);
  }
  static Status IOError(std::string_view msg = "") {
    return Status(Code::kIOError, msg);
  }
  static Status Busy(std::string_view msg = "") {
    return Status(Code::kBusy, msg);
  }
  static Status Deadlock(std::string_view msg = "") {
    return Status(Code::kDeadlock, msg);
  }
  static Status Aborted(std::string_view msg = "") {
    return Status(Code::kAborted, msg);
  }
  static Status NoSpace(std::string_view msg = "") {
    return Status(Code::kNoSpace, msg);
  }
  static Status NotSupported(std::string_view msg = "") {
    return Status(Code::kNotSupported, msg);
  }
  /// A TSB-tree as-of read at a time below the node's prune floor: the
  /// versions that answered it were reclaimed once no open snapshot could
  /// reach them (DESIGN.md §12). Distinct from NotFound, which means the
  /// key had no live version at that time.
  static Status SnapshotTooOld(std::string_view msg = "") {
    return Status(Code::kSnapshotTooOld, msg);
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsIOError() const { return code_ == Code::kIOError; }
  bool IsBusy() const { return code_ == Code::kBusy; }
  bool IsDeadlock() const { return code_ == Code::kDeadlock; }
  bool IsAborted() const { return code_ == Code::kAborted; }
  bool IsNoSpace() const { return code_ == Code::kNoSpace; }
  bool IsNotSupported() const { return code_ == Code::kNotSupported; }
  bool IsSnapshotTooOld() const { return code_ == Code::kSnapshotTooOld; }

  Code code() const { return code_; }

  /// Returns "OK" or "<code>: <message>".
  std::string ToString() const;

  const std::string& message() const { return msg_; }

 private:
  Status(Code code, std::string_view msg) : code_(code), msg_(msg) {}

  Code code_ = Code::kOk;
  std::string msg_;
};

/// Evaluates `expr`; if the resulting Status is not OK, returns it from the
/// enclosing function. The enclosing function must return Status.
#define PITREE_RETURN_IF_ERROR(expr)                \
  do {                                              \
    ::pitree::Status _st = (expr);                  \
    if (!_st.ok()) return _st;                      \
  } while (0)

}  // namespace pitree

#endif  // PITREE_COMMON_STATUS_H_
