// rt::Job — a future-like handle on one unit of device work.
//
// A job is a batch of stimulus vectors bound to a named resident design.
// `Device::submit` enqueues it and returns immediately; the handle lets the
// client block (`wait`), poll (`try_result`), or withdraw the work before
// the dispatcher picks it up (`cancel`).  Handles are cheap shared-state
// references: copying one observes the same job, and a handle outliving its
// device stays safe (the dispatcher completes or cancels every queued job
// before the device dies).  A successful job's results are handed over
// once, as std::future::get does: the first wait() or try_result() through
// any copy takes them.

/// \file
/// \brief rt::Job — a future-like handle on one unit of device work.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "platform/executor.h"
#include "util/status.h"

namespace pp::rt {

/// One result vector (bound output order), re-exported from pp::platform.
using platform::BitVector;
/// One stimulus vector (bound input order), re-exported from pp::platform.
using platform::InputVector;

/// Scheduling class of a submitted job (docs/scheduling.md §1.4).
enum class Priority : std::uint8_t {
  /// Throughput work (the default): rides same-design batches, may be
  /// bypassed — boundedly — by interactive jobs.
  kBatch = 0,
  /// Latency-sensitive work: JobQueue::pop prefers it over batch jobs,
  /// within the same bounded-bypass starvation guarantee.
  kInteractive = 1,
};

/// Per-submission scheduling options: the batch-run knobs plus the job's
/// scheduling class and an optional completion deadline.
struct SubmitOptions {
  /// Engine/sharding knobs for the job's batch run (platform::RunOptions).
  platform::RunOptions run{};
  /// Clocked submission: non-zero means the job's vectors are independent
  /// stimulus *streams* of `cycles` vectors each, stream-major
  /// (vectors.size() must be a multiple of `cycles`); each stream starts
  /// from reset and yields one result vector per cycle.  0 (the default)
  /// submits independent combinational vectors.  Sequential designs
  /// require a non-zero cycle count; combinational designs accept either.
  std::size_t cycles = 0;
  /// Scheduling class; interactive jobs jump batch jobs in the queue.
  Priority priority = Priority::kBatch;
  /// Absolute deadline.  A job whose deadline has expired when the
  /// dispatcher picks it up completes with kDeadlineExceeded *without
  /// running* (the fabric never reconfigures for dead work).  Unset = no
  /// deadline.
  std::optional<std::chrono::steady_clock::time_point> deadline{};
  /// Completion hook: invoked exactly once, outside the job's state lock,
  /// when the job reaches a terminal phase (done *or* canceled) — on
  /// whichever thread drove the transition.  This is how rt::DevicePool's
  /// resilience supervisor learns a device job retired without blocking a
  /// thread per job (DESIGN.md §15); ordinary callers leave it empty.  The
  /// callback must not submit to or wait on the job's own device queue.
  std::function<void()> on_terminal{};
};

namespace detail {

/// Shared state between the client-side Job handle and the device
/// dispatcher.  Lifecycle: kQueued -> kRunning -> kDone, or kQueued ->
/// kCanceled (cancel only wins while the job is still queued).
struct JobState {
  JobState(std::uint64_t id_in, std::string design_in,
           std::vector<InputVector> vectors_in, SubmitOptions options_in)
      : id(id_in),
        design(std::move(design_in)),
        vectors(std::move(vectors_in)),
        options(std::move(options_in)) {}

  const std::uint64_t id;
  const std::string design;
  std::vector<InputVector> vectors;  // swapped out once consumed
  const SubmitOptions options;

  enum class Phase : std::uint8_t { kQueued, kRunning, kDone, kCanceled };

  std::mutex mutex;
  std::condition_variable cv;
  Phase phase = Phase::kQueued;
  // Final status: OK while `results` holds the job's results.  The first
  // wait()/try_result() to see an OK job moves them out and sets status
  // to kFailedPrecondition, so results are handed over exactly once.
  Status status;
  std::vector<BitVector> results;  // valid iff phase==kDone && status.ok()
};

}  // namespace detail

/// A future-like handle on one submitted batch of work: block on it
/// (wait), poll it (try_result), or withdraw it before dispatch (cancel).
/// Copies are cheap and observe the same job, so the results one copy
/// takes are gone for every other; handles outlive their device safely.
class Job {
 public:
  /// Default-constructed handles are empty (valid() == false); every other
  /// accessor requires a handle obtained from Device::submit.
  Job() = default;

  /// True for handles obtained from Device::submit (false only for
  /// default-constructed ones).
  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  /// Device-unique, monotonically increasing job id.
  [[nodiscard]] std::uint64_t id() const noexcept { return state_->id; }
  /// The resident-design name this job is bound to.
  [[nodiscard]] const std::string& design() const noexcept {
    return state_->design;
  }

  /// Block until the job finishes, then return its results (or the failure
  /// Status; a canceled job reports kFailedPrecondition).  The results are
  /// handed over, not copied, as std::future::get does: once this or
  /// try_result() has returned them through any copy of the handle, later
  /// calls return kFailedPrecondition.  A failed or canceled job returns
  /// the same Status on every call.
  [[nodiscard]] Result<std::vector<BitVector>> wait();

  /// Non-blocking poll: empty while the job is queued or running, otherwise
  /// exactly what wait() would return — including taking the results.
  [[nodiscard]] std::optional<Result<std::vector<BitVector>>> try_result();

  /// Withdraw the job if the dispatcher has not started it.  Returns true
  /// when the cancellation won (the job will never run); false when the job
  /// is already running or finished.
  bool cancel();

  /// True once the job reached a terminal phase (done or canceled).
  [[nodiscard]] bool done() const;

  /// True once the job was withdrawn without running (cancel() won, or its
  /// device shut down while the job was still queued); wait() reports
  /// kFailedPrecondition for such jobs.  False while queued/running and
  /// for jobs that completed (successfully or not).
  [[nodiscard]] bool canceled() const;

 private:
  friend class Device;
  friend class DevicePool;
  explicit Job(std::shared_ptr<detail::JobState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<detail::JobState> state_;
};

}  // namespace pp::rt
