// Typed request rejections for the serving stack, under one base.
//
// The front doors reject requests for five distinct reasons — queue at
// depth, session shut down, nothing live to search, synchronous
// mutation of a served index, and (v2) a deadline the request cannot
// make. Before this header each was a bare std::runtime_error /
// std::logic_error subclass scattered across am_index.hpp and
// async_index.hpp, so a load generator had to catch five types to shed
// politely. Every rejection now derives from serve::RejectedRequest and
// carries a RejectReason, so callers can catch one type and switch on
// the reason; the concrete types remain for call sites that care about
// exactly one failure mode.
//
// A rejection means the request was never admitted (or, for a
// dispatch-time deadline shed, never served): nothing was consumed, no
// ordinal moved, the index is unchanged. Errors that signal corrupted
// or inconsistent state (CorruptLog, SnapshotMismatch) are deliberately
// NOT rejections — they describe the index, not the request — and keep
// their own bases.
#pragma once

#include <stdexcept>
#include <string>

namespace ferex::serve {

/// Why a request was turned away. Stable order — the bench JSON and the
/// load generator report these by name.
enum class RejectReason {
  kOverloaded,           ///< queue at depth (admission control)
  kShutDown,             ///< submitted after shutdown()
  kEmptyIndex,           ///< nothing live to search
  kMutationWhileServed,  ///< synchronous mutation of an async-owned index
  kDeadlineExceeded,     ///< deadline_us budget already missed (v2)
};

constexpr const char* to_string(RejectReason reason) noexcept {
  switch (reason) {
    case RejectReason::kOverloaded:
      return "overloaded";
    case RejectReason::kShutDown:
      return "shut_down";
    case RejectReason::kEmptyIndex:
      return "empty_index";
    case RejectReason::kMutationWhileServed:
      return "mutation_while_served";
    case RejectReason::kDeadlineExceeded:
      return "deadline_exceeded";
  }
  return "unknown";
}

/// Common base of every typed request rejection the serving layer
/// throws. Catch this to shed on any reason; reason() says which.
class RejectedRequest : public std::runtime_error {  // ferex-lint: allow(rejection-base)
 public:
  RejectedRequest(RejectReason reason, const std::string& what)
      : std::runtime_error(what), reason_(reason) {}

  RejectReason reason() const noexcept { return reason_; }

 private:
  RejectReason reason_;
};

/// Admission rejection: the request queue is at queue_depth (or the
/// request's class is at its AdmissionPolicy share). Fail-fast by
/// design — submit never blocks the caller.
class Overloaded : public RejectedRequest {
 public:
  explicit Overloaded(const std::string& what)
      : RejectedRequest(RejectReason::kOverloaded, what) {}
};

/// Submission after shutdown() — the front door is closed for good.
class ShutDown : public RejectedRequest {
 public:
  explicit ShutDown(const std::string& what)
      : RejectedRequest(RejectReason::kShutDown, what) {}
};

/// Typed rejection for an index with no live rows (never stored, or
/// every row removed): no k is valid, and the caller should distinguish
/// "your k is too big" from "there is nothing to search".
class EmptyIndex : public RejectedRequest {
 public:
  explicit EmptyIndex(const std::string& what)
      : RejectedRequest(RejectReason::kEmptyIndex, what) {}
};

/// Typed rejection of a synchronous mutation (configure/store/insert/
/// remove/update — and ordinal-consuming synchronous serving) while an
/// AsyncAmIndex owns the index: the async front door owns ordinal
/// accounting and its dispatcher reads the index concurrently, so a
/// direct mutation would silently race them. Route the write through
/// AsyncAmIndex::submit_remove/submit_update instead, or shut the async
/// session down first.
class MutationWhileServed : public RejectedRequest {
 public:
  explicit MutationWhileServed(const std::string& what)
      : RejectedRequest(RejectReason::kMutationWhileServed, what) {}
};

/// Deadline shed (v2): the request carried a deadline_us budget it has
/// already missed — at submit, when the queue-wait estimate alone
/// exceeds the budget, or at dispatch, when the measured queue wait
/// did. Thrown from submit in the first case, surfaced through the
/// future in the second. Serving it would burn backend time on an
/// answer the caller has stopped waiting for.
class DeadlineExceeded : public RejectedRequest {
 public:
  explicit DeadlineExceeded(const std::string& what)
      : RejectedRequest(RejectReason::kDeadlineExceeded, what) {}
};

}  // namespace ferex::serve
