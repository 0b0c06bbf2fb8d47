#include "rt/device.h"

#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "core/bitstream.h"
#include "rt/design_cache.h"
#include "rt/queue.h"

namespace pp::rt {

using detail::JobState;

std::string poly_view_name(std::string_view name, std::uint32_t mode) {
  if (mode == 0) return std::string(name);
  return std::string(name) + "@mode" + std::to_string(mode);
}

struct Device::Impl {
  explicit Impl(const DeviceOptions& options_in)
      : options(options_in), queue(options_in.max_batch_run) {}

  DeviceOptions options;
  int rows = 0, cols = 0;

  // The physical array and its active personality.  hw_mutex pins the
  // personality across a reconfigure-then-run sequence; the dispatcher
  // holds it for each job, so a manual activate() waits for the fabric.
  mutable std::mutex hw_mutex;
  core::Fabric hw{1, 1};
  // The resident configuration's CRC (fabric_config_crc), tracked across
  // swaps so activation never re-encodes the whole array just to bind the
  // delta to its base.
  std::uint32_t hw_crc = 0;
  std::shared_ptr<ResidentDesign> active;
  // Mirror of `active` readable without hw_mutex: the dispatcher holds
  // hw_mutex for a whole job (the personality is pinned), so introspection
  // through it would block scheduling decisions for the job's duration.
  // Published under its own tiny lock at the instant each swap applies.
  mutable std::mutex active_snapshot_mutex;
  std::shared_ptr<ResidentDesign> active_snapshot;
  // Deltas between resident personalities, keyed by (from, to) resident
  // name ("" = the blank power-on personality).  Designs are immutable once
  // resident, so cached deltas never go stale.
  std::map<std::pair<std::string, std::string>, std::vector<std::uint8_t>>
      delta_cache;

  DesignCache cache;
  JobQueue queue;  // constructed with options.max_batch_run

  // Polymorphic registrations (load_poly): the multi-mode source per base
  // name, kept for mode-count validation at submit and for
  // open_poly_session.  The per-mode configuration views live in `cache`
  // as ordinary resident designs under derived names (poly_view_name).
  mutable std::mutex poly_mutex;
  std::map<std::string, platform::PolyDesign, std::less<>> poly_designs;

  /// Mode count `name` answers at submit time: M for a load_poly design,
  /// 1 for an ordinary resident, 0 for an unknown name.
  [[nodiscard]] std::size_t modes_of(std::string_view name) const {
    {
      const std::lock_guard<std::mutex> lock(poly_mutex);
      if (const auto it = poly_designs.find(name); it != poly_designs.end())
        return it->second.views.size();
    }
    return cache.find(name) != nullptr ? 1 : 0;
  }

  [[nodiscard]] bool is_poly(std::string_view name) const {
    const std::lock_guard<std::mutex> lock(poly_mutex);
    return poly_designs.find(name) != poly_designs.end();
  }

  mutable std::mutex stats_mutex;
  DeviceStats stats;

  // Fault injection (rt::FaultPlan, test/soak hook).  `fault_armed` is the
  // zero-overhead gate: the dispatcher takes fault_mutex only when a plan
  // is installed.  Installing the plan before submitting is deterministic
  // (the store is sequenced before the queue push, whose mutex hand-off
  // publishes it to the dispatcher).
  std::atomic<bool> fault_armed{false};
  std::mutex fault_mutex;
  FaultPlan fault_plan;
  std::uint64_t fault_ordinal = 0;  // dispatched jobs since install
  bool fault_dead = false;          // a kDeath event fired

  /// The fault to inject for the job being dispatched, if any (resolved
  /// under fault_mutex so a concurrent install/clear never half-applies).
  struct FaultAction {
    FaultKind kind;
    std::chrono::milliseconds hold{0};
    std::size_t corrupt_vector = 0;
    std::size_t corrupt_bit = 0;
  };

  [[nodiscard]] std::optional<FaultAction> next_fault_action() {
    const std::lock_guard<std::mutex> lock(fault_mutex);
    if (!fault_armed.load(std::memory_order_relaxed)) return std::nullopt;
    const std::uint64_t ordinal = ++fault_ordinal;
    FaultKind kind{};
    if (fault_dead) {
      kind = FaultKind::kDeath;
    } else {
      const FaultEvent* hit = nullptr;
      for (const FaultEvent& ev : fault_plan.events)
        if (ev.at_job == ordinal) {
          hit = &ev;
          break;
        }
      if (hit == nullptr) return std::nullopt;
      kind = hit->kind;
      if (kind == FaultKind::kDeath) fault_dead = true;
    }
    return FaultAction{kind, fault_plan.timeout_hold,
                       fault_plan.corrupt_vector, fault_plan.corrupt_bit};
  }

  std::atomic<std::uint64_t> next_job_id{1};

  // Outstanding-work tracking for drain(): incremented at submit,
  // decremented when the dispatcher retires the job (run, failed, or
  // discarded after a cancel) — never skipped, because canceled jobs still
  // flow out of the queue to the dispatcher.
  std::mutex idle_mutex;
  std::condition_variable idle_cv;
  std::uint64_t outstanding = 0;

  std::thread dispatcher;

  /// Swap the array to `rd`'s personality (hw_mutex held).  Returns true in
  /// `swapped` when a delta was actually written.
  [[nodiscard]] Status activate_locked(
      const std::shared_ptr<ResidentDesign>& rd, bool& swapped) {
    swapped = false;
    if (active == rd) {
      const std::lock_guard<std::mutex> lock(stats_mutex);
      ++stats.activation_skips;
      return Status();
    }
    const std::pair<std::string, std::string> key{
        active ? active->name() : "", rd->name()};
    auto it = delta_cache.find(key);
    if (it == delta_cache.end()) {
      auto delta = core::encode_delta(hw, rd->fabric());
      if (!delta.ok()) return delta.status();
      it = delta_cache.emplace(key, std::move(*delta)).first;
    }
    if (Status s = core::try_apply_delta(hw, it->second, hw_crc); !s.ok())
      return s;
    // The array now holds rd's personality; its CRC is the trailing word
    // of rd's full bitstream.
    const auto& stream = rd->design().bitstream;
    hw_crc = 0;
    for (int i = 0; i < 4; ++i)
      hw_crc |= static_cast<std::uint32_t>(stream[stream.size() - 4 + i])
                << (8 * i);
    active = rd;
    {
      const std::lock_guard<std::mutex> lock(active_snapshot_mutex);
      active_snapshot = rd;
    }
    const std::lock_guard<std::mutex> lock(stats_mutex);
    ++stats.activations;
    stats.delta_bytes += it->second.size();
    stats.full_bytes += rd->design().bitstream.size();
    swapped = true;
    return Status();
  }

  [[nodiscard]] std::shared_ptr<ResidentDesign> active_design() const {
    const std::lock_guard<std::mutex> lock(active_snapshot_mutex);
    return active_snapshot;
  }

  [[nodiscard]] std::string active_name() const {
    const auto rd = active_design();
    return rd ? rd->name() : std::string();
  }

  void dispatch_loop() {
    for (;;) {
      std::shared_ptr<JobState> job = queue.pop(active_name());
      if (!job) break;  // shutdown, queue drained
      run_job(*job);
      {
        const std::lock_guard<std::mutex> lock(idle_mutex);
        --outstanding;
      }
      idle_cv.notify_all();
    }
  }

  void run_job(JobState& job) {
    {
      const std::lock_guard<std::mutex> lock(job.mutex);
      if (job.phase != JobState::Phase::kQueued) {  // lost to cancel
        const std::lock_guard<std::mutex> stats_lock(stats_mutex);
        ++stats.jobs_canceled;
        return;
      }
      job.phase = JobState::Phase::kRunning;
    }
    // An expired deadline completes the job without running it: the fabric
    // never reconfigures (and no engine pass runs) for work whose result
    // the client already considers late.
    if (job.options.deadline &&
        std::chrono::steady_clock::now() > *job.options.deadline) {
      {
        const std::lock_guard<std::mutex> lock(stats_mutex);
        ++stats.jobs_expired;
      }
      complete(job,
               Status::deadline_exceeded(
                   "job " + std::to_string(job.id) + ": deadline expired "
                   "before dispatch; the job did not run"),
               {});
      return;
    }
    // Fault injection (test/soak hook): when no plan is installed this is
    // one relaxed atomic load and nothing else.
    std::optional<FaultAction> fault;
    if (fault_armed.load(std::memory_order_relaxed))
      fault = next_fault_action();
    // Residency is permanent (no unload), so the design always resolves.
    const std::shared_ptr<ResidentDesign> rd = cache.find(job.design);
    Status status = rd ? Status()
                       : Status::internal("job " + std::to_string(job.id) +
                                          ": design '" + job.design +
                                          "' vanished from the device");
    if (status.ok() && fault && fault->kind != FaultKind::kCorruptResult) {
      switch (fault->kind) {
        case FaultKind::kDeath:
          status = Status::unavailable(
              "job " + std::to_string(job.id) +
              ": injected fault: device is dead");
          break;
        case FaultKind::kActivationCrc:
          status = Status::data_loss(
              "job " + std::to_string(job.id) +
              ": injected fault: activation CRC mismatch; the personality "
              "swap was rejected and the job did not run");
          break;
        case FaultKind::kTimeout:
          // Wedge the dispatcher for the watchdog interval, then kill the
          // job — models a device that stops answering mid-run.
          std::this_thread::sleep_for(fault->hold);
          status = Status::unavailable(
              "job " + std::to_string(job.id) +
              ": injected fault: job timed out mid-run and was killed");
          break;
        case FaultKind::kCorruptResult:
          break;  // unreachable (handled after the run)
      }
    }
    std::vector<BitVector> results;
    if (status.ok()) {
      const std::lock_guard<std::mutex> hw_lock(hw_mutex);
      bool swapped = false;
      status = activate_locked(rd, swapped);
      if (status.ok()) {
        auto run = job.options.cycles > 0
                       ? rd->executor().run_cycles(
                             job.vectors, job.options.cycles, job.options.run)
                       : rd->executor().run(job.vectors, job.options.run);
        if (run.ok())
          results = std::move(*run);
        else
          status = run.status();
        const std::lock_guard<std::mutex> lock(stats_mutex);
        if (!swapped) ++stats.batched_jobs;
        if (status.ok()) {
          stats.vectors_run += results.size();
          // Fold this job's engine counters into the device view (the
          // executor is still serialized here: hw_mutex is held).
          stats += rd->executor().last_run_stats();
        }
      }
    }
    // Silent result corruption: the run succeeded as far as the device can
    // tell (status stays OK), but one bit of the result planes is flipped —
    // only the pool's shadow verification can catch this.
    if (status.ok() && fault && fault->kind == FaultKind::kCorruptResult &&
        !results.empty()) {
      BitVector& v = results[fault->corrupt_vector % results.size()];
      if (!v.empty()) {
        const std::size_t bit = fault->corrupt_bit % v.size();
        v[bit] = !v[bit];
      }
    }
    {
      const std::lock_guard<std::mutex> lock(stats_mutex);
      ++(status.ok() ? stats.jobs_completed : stats.jobs_failed);
    }
    complete(job, std::move(status), std::move(results));
  }

  /// Publish a dispatched job's outcome, wake its waiters and fire its
  /// hook.  The consumed stimulus is swapped out under the job lock and
  /// freed only after the waiters are woken, so a large batch's free never
  /// delays them.
  static void complete(JobState& job, Status status,
                       std::vector<BitVector> results) {
    std::vector<InputVector> consumed;
    {
      const std::lock_guard<std::mutex> lock(job.mutex);
      consumed.swap(job.vectors);
      job.status = std::move(status);
      job.results = std::move(results);
      job.phase = JobState::Phase::kDone;
    }
    job.cv.notify_all();
    if (job.options.on_terminal) job.options.on_terminal();
  }
};

Device::Device(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Device::Device(Device&&) noexcept = default;

Device& Device::operator=(Device&& other) noexcept {
  if (this != &other) {
    shutdown_impl();  // the overwritten device's dispatcher must be joined
    impl_ = std::move(other.impl_);
  }
  return *this;
}

Device::~Device() { shutdown_impl(); }

void Device::shutdown_impl() {
  if (!impl_) return;  // moved-from
  // Wake waiters of still-queued jobs (they see kCanceled), let the
  // dispatcher finish the in-flight job, and join it.
  const std::size_t orphaned = impl_->queue.shutdown();
  if (orphaned > 0) {
    const std::lock_guard<std::mutex> lock(impl_->stats_mutex);
    impl_->stats.jobs_canceled += orphaned;
  }
  if (impl_->dispatcher.joinable()) impl_->dispatcher.join();
  impl_.reset();
}

Result<Device> Device::create(int rows, int cols, DeviceOptions options) {
  if (options.max_batch_run < 1)
    return Status::invalid_argument(
        "Device::create: max_batch_run must be >= 1 (got " +
        std::to_string(options.max_batch_run) + ")");
  auto fabric = core::Fabric::create(rows, cols);
  if (!fabric.ok()) return fabric.status();
  auto impl = std::make_unique<Impl>(options);
  impl->rows = rows;
  impl->cols = cols;
  impl->hw = std::move(*fabric);
  impl->hw_crc = core::fabric_config_crc(impl->hw);
  Impl* raw = impl.get();
  impl->dispatcher = std::thread([raw] { raw->dispatch_loop(); });
  return Device(std::move(impl));
}

int Device::rows() const noexcept { return impl_->rows; }
int Device::cols() const noexcept { return impl_->cols; }

Status Device::load(std::string name,
                    const platform::CompiledDesign& design) {
  if (name.empty())
    return Status::invalid_argument(
        "Device::load: the empty name is reserved for the blank power-on "
        "personality");
  auto padded = platform::pad_to(design, impl_->rows, impl_->cols);
  if (!padded.ok()) return padded.status();
  auto outcome = impl_->cache.load(std::move(name), std::move(*padded));
  if (!outcome.ok()) return outcome.status();
  if (impl_->options.jit) {
    // Warm the design's JIT kernel now so the build overlaps residency
    // instead of a job.  hw_mutex serializes this with the dispatcher —
    // the load may have deduped onto a design it is actively running.
    const std::lock_guard<std::mutex> hw_lock(impl_->hw_mutex);
    outcome->resident->executor().warm_jit();
  }
  const std::lock_guard<std::mutex> lock(impl_->stats_mutex);
  ++(outcome->deduped ? impl_->stats.dedup_hits
                      : impl_->stats.designs_loaded);
  return Status();
}

Status Device::load_poly(std::string name,
                         const platform::PolyDesign& design) {
  if (name.empty())
    return Status::invalid_argument(
        "Device::load_poly: the empty name is reserved for the blank "
        "power-on personality");
  if (name.find("@mode") != std::string::npos)
    return Status::invalid_argument(
        "Device::load_poly: '" + name +
        "' — \"@mode\" is reserved for derived view keys");
  const std::size_t modes = static_cast<std::size_t>(design.netlist.modes());
  if (design.views.size() != modes)
    return Status::invalid_argument(
        "Device::load_poly: expected one configuration view per mode (" +
        std::to_string(modes) + "), got " +
        std::to_string(design.views.size()));
  for (std::uint32_t m = 0; m < design.views.size(); ++m)
    if (Status s = load(poly_view_name(name, m), design.views[m]); !s.ok())
      return Status(s.code(),
                    "Device::load_poly: mode " + std::to_string(m) + ": " +
                        std::string(s.message()));
  const std::lock_guard<std::mutex> lock(impl_->poly_mutex);
  impl_->poly_designs.insert_or_assign(std::move(name), design);
  return Status();
}

bool Device::resident(std::string_view name) const {
  return impl_->cache.find(name) != nullptr;
}

std::vector<std::string> Device::designs() const {
  return impl_->cache.names();
}

std::size_t Device::design_modes(std::string_view name) const {
  return impl_->modes_of(name);
}

Status Device::activate(std::string_view name) {
  const std::shared_ptr<ResidentDesign> rd = impl_->cache.find(name);
  if (!rd)
    return Status::not_found("activate: no resident design named '" +
                             std::string(name) + "'");
  const std::lock_guard<std::mutex> lock(impl_->hw_mutex);
  bool swapped = false;
  return impl_->activate_locked(rd, swapped);
}

std::string Device::active() const { return impl_->active_name(); }

bool Device::active_matches(std::string_view name) const {
  const auto rd = impl_->active_design();
  if (name.empty()) return rd == nullptr;  // "" is the blank personality
  return rd != nullptr && rd == impl_->cache.find(name);
}

std::size_t Device::queue_depth() const {
  const std::lock_guard<std::mutex> lock(impl_->idle_mutex);
  return static_cast<std::size_t>(impl_->outstanding);
}

std::size_t Device::queued(std::string_view name) const {
  return impl_->queue.pending_for(name);
}

bool Device::idle() const { return queue_depth() == 0; }

core::Fabric Device::personality() const {
  const std::lock_guard<std::mutex> lock(impl_->hw_mutex);
  return impl_->hw;
}

Result<Job> Device::submit(std::string_view name,
                           std::vector<InputVector> vectors,
                           const SubmitOptions& options_in) {
  SubmitOptions options = options_in;
  std::string routed;  // keeps a derived view key alive for this frame
  if (options.run.sweep_modes)
    return Status::unimplemented(
        "submit: sweep_modes needs the mode-major compiled engine; device "
        "jobs run one configuration view — use open_poly_session() for "
        "swept batches");
  if (options.run.mode != 0) {
    const std::size_t modes = impl_->modes_of(name);
    if (modes == 0)
      return Status::not_found("submit: no resident design named '" +
                               std::string(name) + "'");
    if (!impl_->is_poly(name))
      return Status::invalid_argument(
          "submit: design '" + std::string(name) +
          "' is not polymorphic; RunOptions::mode selects a view of a "
          "load_poly design");
    if (options.run.mode >= modes)
      return Status::out_of_range(
          "submit: mode " + std::to_string(options.run.mode) +
          " out of range for '" + std::string(name) + "' (" +
          std::to_string(modes) + " modes)");
    routed = poly_view_name(name, options.run.mode);
    name = routed;
    options.run.mode = 0;  // the derived view is single-mode by itself
  }
  const std::shared_ptr<ResidentDesign> rd = impl_->cache.find(name);
  if (!rd)
    return Status::not_found("submit: no resident design named '" +
                             std::string(name) + "'");
  if (rd->sequential() && options.cycles == 0)
    return Status::failed_precondition(
        "submit: sequential design — boundary-register state makes vectors "
        "cycles of a stream, not independent; submit with "
        "SubmitOptions::cycles, or open_session() for cycle-by-cycle step()");
  if (options.cycles > 0 && vectors.size() % options.cycles != 0)
    return Status::invalid_argument(
        "submit: " + std::to_string(vectors.size()) +
        " vectors do not divide into whole " +
        std::to_string(options.cycles) + "-cycle streams");
  const std::size_t nin = rd->executor().input_count();
  for (const InputVector& v : vectors)
    if (v.size() != nin)
      return Status::invalid_argument(
          "submit: every vector must have " + std::to_string(nin) +
          " input values");
  auto state = std::make_shared<JobState>(
      impl_->next_job_id.fetch_add(1, std::memory_order_relaxed),
      std::string(name), std::move(vectors), options);
  {
    const std::lock_guard<std::mutex> lock(impl_->stats_mutex);
    ++impl_->stats.jobs_submitted;
  }
  {
    const std::lock_guard<std::mutex> lock(impl_->idle_mutex);
    ++impl_->outstanding;
  }
  impl_->queue.push(state);
  return Job(std::move(state));
}

Result<Job> Device::submit(std::string_view name,
                           std::vector<InputVector> vectors,
                           const RunOptions& run) {
  SubmitOptions options;
  options.run = run;
  return submit(name, std::move(vectors), options);
}

Result<std::vector<BitVector>> Device::run_sync(std::string_view name,
                                                std::vector<InputVector>
                                                    vectors,
                                                const SubmitOptions& options) {
  auto job = submit(name, std::move(vectors), options);
  if (!job.ok()) return job.status();
  return job->wait();
}

Result<std::vector<BitVector>> Device::run_sync(std::string_view name,
                                                std::vector<InputVector>
                                                    vectors,
                                                const RunOptions& run) {
  SubmitOptions options;
  options.run = run;
  return run_sync(name, std::move(vectors), options);
}

void Device::drain() {
  std::unique_lock<std::mutex> lock(impl_->idle_mutex);
  impl_->idle_cv.wait(lock, [&] { return impl_->outstanding == 0; });
}

Result<platform::Session> Device::open_session(std::string_view name) const {
  const std::shared_ptr<ResidentDesign> rd = impl_->cache.find(name);
  if (!rd)
    return Status::not_found("open_session: no resident design named '" +
                             std::string(name) + "'");
  return platform::Session::load(rd->design());
}

Result<platform::Session> Device::open_poly_session(
    std::string_view name) const {
  const std::lock_guard<std::mutex> lock(impl_->poly_mutex);
  const auto it = impl_->poly_designs.find(name);
  if (it == impl_->poly_designs.end())
    return Status::not_found("open_poly_session: no polymorphic design "
                             "named '" + std::string(name) + "'");
  return platform::Session::load_poly(it->second);
}

void Device::install_fault_plan(FaultPlan plan) {
  const std::lock_guard<std::mutex> lock(impl_->fault_mutex);
  impl_->fault_plan = std::move(plan);
  impl_->fault_ordinal = 0;
  impl_->fault_dead = false;
  impl_->fault_armed.store(true, std::memory_order_relaxed);
}

void Device::clear_fault_plan() {
  const std::lock_guard<std::mutex> lock(impl_->fault_mutex);
  impl_->fault_armed.store(false, std::memory_order_relaxed);
  impl_->fault_plan = FaultPlan{};
  impl_->fault_ordinal = 0;
  impl_->fault_dead = false;
}

DeviceStats Device::stats() const {
  const std::lock_guard<std::mutex> lock(impl_->stats_mutex);
  return impl_->stats;
}

}  // namespace pp::rt
