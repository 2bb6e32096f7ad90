#include "common/status.h"

namespace pitree {

namespace {
const char* CodeName(Status::Code code) {
  switch (code) {
    case Status::Code::kOk:
      return "OK";
    case Status::Code::kNotFound:
      return "NotFound";
    case Status::Code::kCorruption:
      return "Corruption";
    case Status::Code::kInvalidArgument:
      return "InvalidArgument";
    case Status::Code::kIOError:
      return "IOError";
    case Status::Code::kBusy:
      return "Busy";
    case Status::Code::kDeadlock:
      return "Deadlock";
    case Status::Code::kAborted:
      return "Aborted";
    case Status::Code::kNoSpace:
      return "NoSpace";
    case Status::Code::kNotSupported:
      return "NotSupported";
    case Status::Code::kSnapshotTooOld:
      return "SnapshotTooOld";
  }
  return "Unknown";
}
}  // namespace

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = CodeName(code_);
  if (!msg_.empty()) {
    out += ": ";
    out += msg_;
  }
  return out;
}

}  // namespace pitree
