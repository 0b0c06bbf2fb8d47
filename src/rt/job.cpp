#include "rt/job.h"

namespace pp::rt {

using detail::JobState;

namespace {

/// Terminal-phase outcome as a Result (caller holds the state mutex).  A
/// successful job hands its results over to the first caller, as
/// std::future::get does; from then on the job reports them as taken.
[[nodiscard]] Result<std::vector<BitVector>> take_outcome(JobState& state) {
  if (state.phase == JobState::Phase::kCanceled)
    return Status::failed_precondition("job " + std::to_string(state.id) +
                                       ": canceled before execution");
  if (!state.status.ok()) return state.status;
  state.status = Status::failed_precondition(
      "job " + std::to_string(state.id) +
      ": results already taken by an earlier wait() or try_result()");
  return std::move(state.results);
}

}  // namespace

Result<std::vector<BitVector>> Job::wait() {
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [&] {
    return state_->phase == JobState::Phase::kDone ||
           state_->phase == JobState::Phase::kCanceled;
  });
  return take_outcome(*state_);
}

std::optional<Result<std::vector<BitVector>>> Job::try_result() {
  const std::lock_guard<std::mutex> lock(state_->mutex);
  if (state_->phase != JobState::Phase::kDone &&
      state_->phase != JobState::Phase::kCanceled)
    return std::nullopt;
  return take_outcome(*state_);
}

bool Job::cancel() {
  {
    const std::lock_guard<std::mutex> lock(state_->mutex);
    if (state_->phase != JobState::Phase::kQueued) return false;
    state_->phase = JobState::Phase::kCanceled;
    state_->vectors.clear();
    state_->cv.notify_all();
  }
  // The winning cancel is the job's terminal transition; fire the
  // completion hook outside the state lock like every other terminal path.
  if (state_->options.on_terminal) state_->options.on_terminal();
  return true;
}

bool Job::done() const {
  const std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->phase == JobState::Phase::kDone ||
         state_->phase == JobState::Phase::kCanceled;
}

bool Job::canceled() const {
  const std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->phase == JobState::Phase::kCanceled;
}

}  // namespace pp::rt
