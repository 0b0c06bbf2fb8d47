#include "rt/pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>

namespace pp::rt {

namespace {

constexpr std::size_t kNoDevice = std::numeric_limits<std::size_t>::max();

/// True for statuses that indict the *device* rather than the job: CRC
/// rejects and corruption surface as kDataLoss, timeouts and death as
/// kUnavailable.  Everything else (kDeadlineExceeded, kInternal X outputs,
/// validation codes) is the job's own outcome and must reach the caller
/// unchanged — migrating a deterministic design failure would just replay
/// it across the fleet and quarantine healthy devices (DESIGN.md §15).
[[nodiscard]] bool device_fault(const Status& status) {
  return status.code() == StatusCode::kDataLoss ||
         status.code() == StatusCode::kUnavailable;
}

}  // namespace

struct DevicePool::Impl {
  PoolOptions options;
  int rows = 0, cols = 0;
  std::vector<Device> devices;

  /// One registered design: the image every replica shares, plus where it
  /// currently lives and how hot it has been running.  `padded` is
  /// immutable once registered (and map nodes are stable), so replication
  /// may read it without the pool mutex.
  struct Entry {
    platform::CompiledDesign padded;  // padded to the pool dims exactly once
    std::vector<std::size_t> replica_devices;  // home first, then replicas
    std::size_t hot_streak = 0;   // consecutive congested submits
    bool replicating = false;     // a replication load is in flight
  };

  // One lock covers the registry and the scheduler counters: routing reads
  // the replica map, replication mutates it, and stats must see a
  // consistent picture.  Device-side probes (queue_depth, active_matches)
  // are lock-light snapshots, so holding this mutex across them never
  // blocks on a running job.
  mutable std::mutex mutex;
  std::map<std::string, Entry, std::less<>> registry;
  // Polymorphic registrations (register_poly): the multi-mode source per
  // base name, for submit-time mode routing and open_poly_session.  The
  // per-mode views live in `registry` under derived keys (poly_view_name)
  // as ordinary designs, so routing and replication are per view.
  std::map<std::string, platform::PolyDesign, std::less<>> poly_designs;
  // Names whose first registration (the device load, done without the
  // mutex) is in flight: concurrent registrations of the same name wait
  // for the owner instead of racing it, so a name can never end up bound
  // to divergent content on different devices.
  std::set<std::string, std::less<>> registering;
  std::condition_variable registering_cv;
  std::size_t next_home = 0;  // round-robin cursor for initial placement
  std::uint64_t jobs_submitted = 0;
  std::uint64_t affinity_active = 0;
  std::uint64_t affinity_resident = 0;
  std::uint64_t replications = 0;
  std::vector<std::uint64_t> jobs_per_device;

  // ---- fleet resilience (DESIGN.md §15) ------------------------------
  //
  // All health state lives under the pool mutex; the supervisor's own
  // queue state lives under sup_mutex; device lifetime against shutdown
  // is guarded by devices_mutex.  The three are never nested with each
  // other in an order other than devices_mutex -> sup_mutex.
  bool resilience = false;  // quarantine_failures > 0 || verify_sample_rate > 0
  std::vector<std::size_t> consec_failures;    // under mutex
  std::vector<std::uint8_t> quarantined_flags; // under mutex
  std::uint64_t quarantines = 0;
  std::uint64_t jobs_migrated = 0;
  std::uint64_t verify_mismatches = 0;
  std::uint64_t re_replications = 0;
  std::uint64_t verify_seq = 0;      // pool submits, for verify sampling
  std::uint64_t next_pool_job = 0;   // outer (pool) job ids
  std::size_t drains_active = 0;     // submits reject while non-zero

  /// One supervised pool job: the caller-visible outer state, the work
  /// itself (retained for re-execution and shadow verification), and the
  /// current inner device job.  Values are only touched by the submitting
  /// thread before the inner handle is published and by the supervisor
  /// after; the map itself is guarded by sup_mutex (node-based, so held
  /// pointers survive concurrent inserts).
  struct Pending {
    std::shared_ptr<detail::JobState> outer;
    std::string design;                // routed (view) key
    std::vector<InputVector> vectors;  // retained for retries + verify
    SubmitOptions options;             // caller options (inner hook replaced)
    Job inner;                         // invalid while a re-submit is in flight
    std::size_t device = 0;
    std::size_t attempts = 1;          // executions so far (bounded)
    bool verify = false;
  };

  std::mutex sup_mutex;
  std::condition_variable sup_cv;       // completions or inner published
  std::condition_variable sup_idle_cv;  // pending drained (drain() waits)
  std::unordered_map<std::uint64_t, Pending> pending;
  std::deque<std::uint64_t> completions;
  bool sup_stop = false;
  // Shutdown latch: once set, the supervisor passes inner outcomes through
  // without migration, verification, or health bookkeeping (the fleet is
  // dying; touching devices would race their destruction).
  std::atomic<bool> passthrough{false};
  // Serializes supervisor-side device access (migration submits, stranded
  // re-replication loads) against devices.clear() at shutdown.
  std::mutex devices_mutex;
  std::thread supervisor;
  // Shadow reference sessions, lazily built per design from the same
  // padded image the devices run.  Supervisor-thread-only.
  std::map<std::string, platform::Session, std::less<>> shadows;

  /// Pick the routing target for one job of `entry`'s design (mutex held).
  /// Affinity classes first (active > resident), least queue depth within a
  /// class, lowest index as the final tie-break; quarantined devices are
  /// invisible.  `out_depth`/`out_active` report the chosen device's probe
  /// results for the replication check and the stats; kNoDevice when every
  /// replica is quarantined.
  [[nodiscard]] std::size_t route(const Entry& entry, std::string_view name,
                                  std::size_t& out_depth, bool& out_active) {
    std::size_t best = kNoDevice, best_depth = 0;
    bool best_active = false;
    for (const std::size_t idx : entry.replica_devices) {
      if (quarantined_flags[idx] != 0) continue;
      const std::size_t depth = devices[idx].queue_depth();
      const bool active = devices[idx].active_matches(name);
      const bool better = best == kNoDevice ||
                          (active && !best_active) ||
                          (active == best_active && depth < best_depth);
      if (better) {
        best = idx;
        best_depth = depth;
        best_active = active;
      }
    }
    out_depth = best_depth;
    out_active = best_active;
    return best;
  }

  /// The least-loaded healthy device not yet holding the design (mutex
  /// held), skipping `exclude`; kNoDevice when none qualifies.
  [[nodiscard]] std::size_t least_loaded_non_replica(
      const Entry& entry, std::size_t& out_depth,
      std::size_t exclude = kNoDevice) {
    std::size_t best = kNoDevice, best_depth = 0;
    for (std::size_t idx = 0; idx < devices.size(); ++idx) {
      if (idx == exclude || quarantined_flags[idx] != 0) continue;
      bool is_replica = false;
      for (const std::size_t r : entry.replica_devices)
        if (r == idx) {
          is_replica = true;
          break;
        }
      if (is_replica) continue;
      const std::size_t depth = devices[idx].queue_depth();
      if (best == kNoDevice || depth < best_depth) {
        best = idx;
        best_depth = depth;
      }
    }
    out_depth = best_depth;
    return best;
  }

  // ---- supervisor ----------------------------------------------------

  void enqueue_completion(std::uint64_t id) {
    {
      const std::lock_guard<std::mutex> lock(sup_mutex);
      completions.push_back(id);
    }
    sup_cv.notify_all();
  }

  void finish_pending(std::uint64_t id) {
    bool idle = false;
    {
      const std::lock_guard<std::mutex> lock(sup_mutex);
      pending.erase(id);
      idle = pending.empty();
    }
    if (idle) sup_idle_cv.notify_all();
  }

  /// Drive the outer handle to a terminal phase exactly once (a caller
  /// cancel that already won keeps its victory) and fire the caller's
  /// completion hook outside the lock.
  void resolve_outer(const std::shared_ptr<detail::JobState>& outer,
                     Status status, std::vector<BitVector> results,
                     bool as_canceled) {
    bool fire = false;
    {
      const std::lock_guard<std::mutex> lock(outer->mutex);
      if (outer->phase == detail::JobState::Phase::kQueued ||
          outer->phase == detail::JobState::Phase::kRunning) {
        outer->phase = as_canceled ? detail::JobState::Phase::kCanceled
                                   : detail::JobState::Phase::kDone;
        outer->status = std::move(status);
        outer->results = std::move(results);
        outer->cv.notify_all();
        fire = true;
      }
    }
    if (fire && outer->options.on_terminal) outer->options.on_terminal();
  }

  /// Record one infrastructure failure against a device; crossing the
  /// quarantine threshold retires the device from routing and re-replicates
  /// every design it left without a healthy replica.
  void note_device_failure(std::size_t idx) {
    std::vector<std::pair<std::string, const platform::CompiledDesign*>>
        stranded;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      ++consec_failures[idx];
      if (options.quarantine_failures == 0 || quarantined_flags[idx] != 0 ||
          consec_failures[idx] < options.quarantine_failures)
        return;
      quarantined_flags[idx] = 1;
      ++quarantines;
      for (const auto& [name, entry] : registry) {
        bool healthy = false;
        for (const std::size_t r : entry.replica_devices)
          if (quarantined_flags[r] == 0) {
            healthy = true;
            break;
          }
        if (!healthy) stranded.emplace_back(name, &entry.padded);
      }
    }
    // Re-replicate stranded designs outside the pool mutex (loads are
    // elaboration-sized); entries are never erased and map nodes are
    // stable, so the image pointers stay valid.
    for (const auto& [name, image] : stranded) {
      std::size_t target = kNoDevice, best_depth = 0;
      {
        const std::lock_guard<std::mutex> lock(mutex);
        for (std::size_t d = 0; d < devices.size(); ++d) {
          if (quarantined_flags[d] != 0) continue;
          const std::size_t depth = devices[d].queue_depth();
          if (target == kNoDevice || depth < best_depth) {
            target = d;
            best_depth = depth;
          }
        }
      }
      if (target == kNoDevice) continue;  // whole fleet quarantined
      {
        const std::lock_guard<std::mutex> device_lock(devices_mutex);
        if (passthrough.load(std::memory_order_relaxed)) return;
        if (!devices[target].load(name, *image).ok()) continue;
      }
      const std::lock_guard<std::mutex> lock(mutex);
      auto it = registry.find(name);
      if (it == registry.end()) continue;
      auto& replicas = it->second.replica_devices;
      if (std::find(replicas.begin(), replicas.end(), target) ==
          replicas.end())
        replicas.push_back(target);
      ++re_replications;
    }
  }

  void note_device_success(std::size_t idx) {
    const std::lock_guard<std::mutex> lock(mutex);
    consec_failures[idx] = 0;
  }

  /// The shadow reference session for a design (built lazily from the same
  /// once-padded image the devices run); nullptr when one cannot be built.
  [[nodiscard]] platform::Session* shadow_session(const std::string& design) {
    if (const auto it = shadows.find(design); it != shadows.end())
      return &it->second;
    const platform::CompiledDesign* image = nullptr;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      const auto it = registry.find(design);
      if (it == registry.end()) return nullptr;
      image = &it->second.padded;
    }
    auto session = platform::Session::load(*image);
    if (!session.ok()) return nullptr;
    return &shadows.emplace(design, std::move(*session)).first->second;
  }

  /// Re-execute the job on the serial reference engine and compare result
  /// checksums.  True = match (or verification impossible — an unbuildable
  /// or failing reference is inconclusive, never an indictment).
  [[nodiscard]] bool shadow_matches(const Pending& pj,
                                    std::span<const BitVector> device_results) {
    platform::Session* ref = shadow_session(pj.design);
    if (ref == nullptr) return true;
    platform::RunOptions run = pj.options.run;
    run.max_threads = 1;
    const auto expect =
        pj.options.cycles > 0
            ? ref->run_cycles(pj.vectors, pj.options.cycles, run)
            : ref->run_vectors(pj.vectors, run);
    if (!expect.ok()) return true;
    return platform::result_checksum(*expect) ==
           platform::result_checksum(device_results);
  }

  /// Re-submit a supervised job onto a healthy device (replica first, else
  /// load onto the least-loaded healthy non-replica).  True when a new
  /// inner execution is in flight (the pending entry stays live); false
  /// when migration is impossible — attempts exhausted, no healthy device,
  /// or the pool is shutting down.
  [[nodiscard]] bool try_migrate(std::uint64_t id, Pending& pj) {
    if (passthrough.load(std::memory_order_relaxed)) return false;
    if (pj.attempts > devices.size()) return false;  // bounded re-execution
    std::size_t target = kNoDevice;
    bool need_load = false;
    const platform::CompiledDesign* image = nullptr;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      const auto it = registry.find(pj.design);
      if (it == registry.end()) return false;
      Entry& entry = it->second;
      std::size_t best_depth = 0;
      for (const std::size_t idx : entry.replica_devices) {
        if (idx == pj.device || quarantined_flags[idx] != 0) continue;
        const std::size_t depth = devices[idx].queue_depth();
        if (target == kNoDevice || depth < best_depth) {
          target = idx;
          best_depth = depth;
        }
      }
      if (target == kNoDevice) {
        target = least_loaded_non_replica(entry, best_depth, pj.device);
        if (target == kNoDevice) return false;
        need_load = true;
        image = &entry.padded;
      }
    }
    if (need_load) {
      {
        const std::lock_guard<std::mutex> device_lock(devices_mutex);
        if (passthrough.load(std::memory_order_relaxed)) return false;
        if (!devices[target].load(pj.design, *image).ok()) return false;
      }
      const std::lock_guard<std::mutex> lock(mutex);
      const auto it = registry.find(pj.design);
      if (it != registry.end()) {
        auto& replicas = it->second.replica_devices;
        if (std::find(replicas.begin(), replicas.end(), target) ==
            replicas.end())
          replicas.push_back(target);
        ++re_replications;
      }
    }
    // Invalidate the published inner handle *before* the re-submit: the
    // new job's completion can race ahead of the publication below, and
    // the supervisor must block on the fresh handle, not re-read the old
    // terminal one.
    {
      const std::lock_guard<std::mutex> lock(sup_mutex);
      pj.inner = Job();
      pj.device = target;
      ++pj.attempts;
    }
    SubmitOptions inner_options = pj.options;
    inner_options.on_terminal = [this, id] { enqueue_completion(id); };
    std::vector<InputVector> copy = pj.vectors;
    Result<Job> inner = Status::unavailable("pool shutting down");
    {
      const std::lock_guard<std::mutex> device_lock(devices_mutex);
      if (passthrough.load(std::memory_order_relaxed)) return false;
      inner = devices[target].submit(pj.design, std::move(copy),
                                     inner_options);
    }
    if (!inner.ok()) return false;
    {
      const std::lock_guard<std::mutex> lock(sup_mutex);
      pj.inner = *inner;
    }
    sup_cv.notify_all();
    {
      const std::lock_guard<std::mutex> lock(mutex);
      ++jobs_migrated;
      ++jobs_per_device[target];
    }
    return true;
  }

  /// Process one retired inner job: deliver, verify, or migrate.
  void handle_completion(std::uint64_t id) {
    Pending* pj = nullptr;
    {
      std::unique_lock<std::mutex> lock(sup_mutex);
      const auto it = pending.find(id);
      if (it == pending.end()) return;
      // A migration may still be publishing the fresh inner handle.
      sup_cv.wait(lock, [&] { return it->second.inner.valid(); });
      pj = &it->second;
    }
    bool withdrawn = false;
    {
      const std::lock_guard<std::mutex> lock(pj->outer->mutex);
      withdrawn = pj->outer->phase == detail::JobState::Phase::kCanceled;
    }
    if (withdrawn) {
      // The caller withdrew the pool job: its handle is already terminal,
      // the inner outcome has nobody to go to.  Finished only after the
      // lock is released: dropping the entry may free the outer state.
      finish_pending(id);
      return;
    }
    if (pj->inner.canceled()) {
      // The device shut down under the job (pool teardown): the outer job
      // dies the same way a queued device job would.
      resolve_outer(pj->outer, Status(), {}, /*as_canceled=*/true);
      finish_pending(id);
      return;
    }
    // Takes the inner job's results: the supervisor holds its only handle.
    auto result = pj->inner.try_result();
    if (!result.has_value()) return;  // unreachable: on_terminal fired
    const bool pass = passthrough.load(std::memory_order_relaxed);
    if (!result->ok()) {
      if (device_fault(result->status()) && !pass) {
        note_device_failure(pj->device);
        if (try_migrate(id, *pj)) return;
      }
      resolve_outer(pj->outer, result->status(), {}, /*as_canceled=*/false);
      finish_pending(id);
      return;
    }
    if (pj->verify && !pass) {
      if (!shadow_matches(*pj, **result)) {
        {
          const std::lock_guard<std::mutex> lock(mutex);
          ++verify_mismatches;
        }
        note_device_failure(pj->device);
        if (try_migrate(id, *pj)) return;
        resolve_outer(pj->outer,
                      Status::data_loss(
                          "DevicePool: device " + std::to_string(pj->device) +
                          " returned corrupt results for job '" + pj->design +
                          "' and no healthy device is left to re-execute on"),
                      {}, /*as_canceled=*/false);
        finish_pending(id);
        return;
      }
    }
    if (!pass) note_device_success(pj->device);
    resolve_outer(pj->outer, Status(), std::move(**result),
                  /*as_canceled=*/false);
    finish_pending(id);
  }

  void supervise() {
    for (;;) {
      std::uint64_t id = 0;
      {
        std::unique_lock<std::mutex> lock(sup_mutex);
        sup_cv.wait(lock, [&] {
          return !completions.empty() || (sup_stop && pending.empty());
        });
        if (completions.empty()) return;  // stopped and drained
        id = completions.front();
        completions.pop_front();
      }
      handle_completion(id);
    }
  }

  /// Shutdown ordering for a supervised pool: latch passthrough (no more
  /// migrations or verifications), destroy the fleet (every inner job goes
  /// terminal and enqueues its completion), then let the supervisor drain
  /// the queue and join it.  Unsupervised pools keep the legacy order
  /// (devices die with the Impl).
  void shutdown() {
    if (!resilience) return;
    passthrough.store(true, std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> device_lock(devices_mutex);
      devices.clear();
    }
    {
      const std::lock_guard<std::mutex> lock(sup_mutex);
      sup_stop = true;
    }
    sup_cv.notify_all();
    if (supervisor.joinable()) supervisor.join();
  }
};

DevicePool::DevicePool(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
DevicePool::DevicePool(DevicePool&&) noexcept = default;
DevicePool& DevicePool::operator=(DevicePool&& other) noexcept {
  if (this != &other) {
    if (impl_) impl_->shutdown();
    impl_ = std::move(other.impl_);
  }
  return *this;
}
DevicePool::~DevicePool() {
  if (impl_) impl_->shutdown();
}

Result<DevicePool> DevicePool::create(std::size_t devices, int rows, int cols,
                                      PoolOptions options) {
  if (devices == 0)
    return Status::invalid_argument(
        "DevicePool::create: a pool needs at least one device");
  auto impl = std::make_unique<Impl>();
  impl->options = options;
  impl->rows = rows;
  impl->cols = cols;
  impl->devices.reserve(devices);
  for (std::size_t i = 0; i < devices; ++i) {
    auto device = Device::create(rows, cols, options.device);
    if (!device.ok()) return device.status();
    impl->devices.push_back(std::move(*device));
  }
  impl->jobs_per_device.assign(devices, 0);
  impl->consec_failures.assign(devices, 0);
  impl->quarantined_flags.assign(devices, 0);
  impl->resilience =
      options.quarantine_failures > 0 || options.verify_sample_rate > 0;
  if (impl->resilience)
    impl->supervisor = std::thread([raw = impl.get()] { raw->supervise(); });
  return DevicePool(std::move(impl));
}

std::size_t DevicePool::device_count() const noexcept {
  return impl_->devices.size();
}
int DevicePool::rows() const noexcept { return impl_->rows; }
int DevicePool::cols() const noexcept { return impl_->cols; }

Status DevicePool::register_design(std::string name,
                                   const platform::CompiledDesign& design) {
  if (name.empty())
    return Status::invalid_argument(
        "DevicePool::register_design: the empty name is reserved for the "
        "blank power-on personality");
  // Pad once for the whole fleet: homogeneous dimensions mean this single
  // image serves the home device and every later replica byte-identically.
  auto padded = platform::pad_to(design, impl_->rows, impl_->cols);
  if (!padded.ok()) return padded.status();

  // Claim the name and a home slot, but keep the elaboration-sized
  // Device::load outside the pool mutex — registering on a live pool must
  // not stall admission.  The `registering` reservation makes concurrent
  // registrations of the same name wait for the owner's outcome instead
  // of loading possibly-divergent content onto a second device.
  std::size_t home = kNoDevice;
  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->registering_cv.wait(
        lock, [&] { return impl_->registering.count(name) == 0; });
    if (const auto it = impl_->registry.find(name);
        it != impl_->registry.end()) {
      if (platform::same_content(it->second.padded, *padded))
        return Status();  // idempotent re-registration
      return Status::failed_precondition(
          "DevicePool::register_design: name '" + name +
          "' already names a different design");
    }
    // Round-robin home placement over the *healthy* fleet; quarantined
    // devices never become homes.
    for (std::size_t probe = 0; probe < impl_->devices.size(); ++probe) {
      const std::size_t idx =
          (impl_->next_home + probe) % impl_->devices.size();
      if (impl_->quarantined_flags[idx] == 0) {
        home = idx;
        impl_->next_home = idx + 1;
        break;
      }
    }
    if (home == kNoDevice)
      return Status::unavailable(
          "DevicePool::register_design: every device is quarantined");
    impl_->registering.insert(name);
  }
  const Status loaded = impl_->devices[home].load(name, *padded);
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->registering.erase(name);
  impl_->registering_cv.notify_all();
  if (!loaded.ok()) return loaded;
  Impl::Entry entry;
  entry.padded = std::move(*padded);
  entry.replica_devices.push_back(home);
  impl_->registry.emplace(std::move(name), std::move(entry));
  return Status();
}

Status DevicePool::register_poly(std::string name,
                                 const platform::PolyDesign& design) {
  if (name.empty())
    return Status::invalid_argument(
        "DevicePool::register_poly: the empty name is reserved for the "
        "blank power-on personality");
  if (name.find("@mode") != std::string::npos)
    return Status::invalid_argument(
        "DevicePool::register_poly: '" + name +
        "' — \"@mode\" is reserved for derived view keys");
  const std::size_t modes = static_cast<std::size_t>(design.netlist.modes());
  if (design.views.size() != modes)
    return Status::invalid_argument(
        "DevicePool::register_poly: expected one configuration view per "
        "mode (" + std::to_string(modes) + "), got " +
        std::to_string(design.views.size()));
  for (std::uint32_t m = 0; m < design.views.size(); ++m)
    if (Status s = register_design(poly_view_name(name, m), design.views[m]);
        !s.ok())
      return Status(s.code(), "DevicePool::register_poly: mode " +
                                  std::to_string(m) + ": " + s.message());
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->poly_designs.insert_or_assign(std::move(name), design);
  return Status();
}

std::size_t DevicePool::design_modes(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  if (const auto it = impl_->poly_designs.find(name);
      it != impl_->poly_designs.end())
    return it->second.views.size();
  return impl_->registry.find(name) != impl_->registry.end() ? 1 : 0;
}

bool DevicePool::resident(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->registry.find(name) != impl_->registry.end();
}

std::vector<std::string> DevicePool::designs() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<std::string> out;
  out.reserve(impl_->registry.size());
  for (const auto& [name, entry] : impl_->registry) out.push_back(name);
  return out;
}

std::size_t DevicePool::replicas(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->registry.find(name);
  return it == impl_->registry.end() ? 0 : it->second.replica_devices.size();
}

Result<Job> DevicePool::submit(std::string_view name,
                               std::vector<InputVector> vectors,
                               const SubmitOptions& options_in) {
  SubmitOptions options = options_in;
  std::string routed;  // keeps a derived view key alive for this frame
  if (options.run.sweep_modes)
    return Status::unimplemented(
        "DevicePool::submit: sweep_modes needs the mode-major compiled "
        "engine; pool jobs run one configuration view — use "
        "open_poly_session() for swept batches");
  if (options.run.mode != 0) {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    const auto it = impl_->poly_designs.find(name);
    if (it == impl_->poly_designs.end()) {
      if (impl_->registry.find(name) == impl_->registry.end())
        return Status::not_found("DevicePool::submit: no registered design "
                                 "named '" + std::string(name) + "'");
      return Status::invalid_argument(
          "DevicePool::submit: design '" + std::string(name) +
          "' is not polymorphic; RunOptions::mode selects a view of a "
          "register_poly design");
    }
    if (options.run.mode >= it->second.views.size())
      return Status::out_of_range(
          "DevicePool::submit: mode " + std::to_string(options.run.mode) +
          " out of range for '" + std::string(name) + "' (" +
          std::to_string(it->second.views.size()) + " modes)");
    routed = poly_view_name(name, options.run.mode);
    name = routed;
    options.run.mode = 0;  // the derived view is single-mode by itself
  }
  std::size_t target = kNoDevice;
  bool active = false;
  Impl::Entry* replicate_entry = nullptr;  // non-null: load `name` on cand
  std::size_t cand = kNoDevice;
  bool stranded = false;  // the load is a rescue, not a hot-spot copy
  bool verify = false;
  std::uint64_t pool_id = 0;
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    if (impl_->drains_active > 0)
      return Status::unavailable(
          "DevicePool::submit: the pool is draining; submits are rejected "
          "until drain() returns");
    const auto it = impl_->registry.find(name);
    if (it == impl_->registry.end())
      return Status::not_found("DevicePool::submit: no registered design "
                               "named '" + std::string(name) + "'");
    Impl::Entry& entry = it->second;
    // Fail fast before any scheduling side effect (the device would reject
    // these too, but a rejected job must not move the hot-streak counter or
    // trigger a replication).
    if (!entry.padded.state.empty() && options.cycles == 0)
      return Status::failed_precondition(
          "DevicePool::submit: sequential design — boundary-register state "
          "makes vectors cycles of a stream; submit with "
          "SubmitOptions::cycles, or open_session() for step()");
    if (options.cycles > 0 && vectors.size() % options.cycles != 0)
      return Status::invalid_argument(
          "DevicePool::submit: " + std::to_string(vectors.size()) +
          " vectors do not divide into whole " +
          std::to_string(options.cycles) + "-cycle streams");
    const std::size_t nin = entry.padded.inputs.size();
    for (const InputVector& v : vectors)
      if (v.size() != nin)
        return Status::invalid_argument("DevicePool::submit: every vector "
                                        "must have " + std::to_string(nin) +
                                        " input values");

    std::size_t depth = 0;
    target = impl_->route(entry, name, depth, active);

    if (target == kNoDevice) {
      // Every replica is quarantined (the supervisor's eager re-replication
      // lost the race with this submit): rescue the design onto the least-
      // loaded healthy device, or admit defeat if the whole fleet is gone.
      std::size_t cand_depth = 0;
      cand = impl_->least_loaded_non_replica(entry, cand_depth);
      if (cand == kNoDevice)
        return Status::unavailable(
            "DevicePool::submit: every device holding '" + std::string(name) +
            "' is quarantined and no healthy device is left");
      replicate_entry = &entry;
      stranded = true;
    } else {
      // Hot-design replication decision: sustained congestion at the
      // design's best replica, a replica budget left, no replication of this
      // design already in flight, and a strictly-less-loaded device without
      // the design to put it on.
      const std::size_t limit =
          impl_->options.max_replicas == 0
              ? impl_->devices.size()
              : std::min(impl_->options.max_replicas, impl_->devices.size());
      if (depth >= impl_->options.replicate_depth)
        ++entry.hot_streak;
      else
        entry.hot_streak = 0;
      if (entry.hot_streak >= impl_->options.replicate_streak &&
          !entry.replicating && entry.replica_devices.size() < limit) {
        std::size_t cand_depth = 0;
        cand = impl_->least_loaded_non_replica(entry, cand_depth);
        if (cand != kNoDevice && cand_depth < depth) {
          // Mark the load in flight and do it outside the pool mutex below:
          // residency is an elaboration-sized cost, and holding the lock
          // across it would stall every concurrent submit exactly when the
          // pool is congested.
          entry.replicating = true;
          entry.hot_streak = 0;
          replicate_entry = &entry;
        }
      }
    }

    if (impl_->resilience) {
      pool_id = ++impl_->next_pool_job;
      if (impl_->options.verify_sample_rate > 0 &&
          (++impl_->verify_seq % impl_->options.verify_sample_rate) == 0)
        verify = true;
    }
  }

  if (replicate_entry != nullptr) {
    // Safe without the lock: entries are never erased, map nodes are
    // stable, and `padded` is immutable after registration.  A failure
    // only means this job keeps its original routing (the device-side
    // load is idempotent, so a later retry is harmless) — unless the load
    // was a quarantine rescue, in which case there is no original routing
    // to keep.
    const bool loaded =
        impl_->devices[cand].load(std::string(name), replicate_entry->padded)
            .ok();
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    if (!stranded) replicate_entry->replicating = false;
    if (loaded) {
      auto& replicas = replicate_entry->replica_devices;
      if (std::find(replicas.begin(), replicas.end(), cand) == replicas.end())
        replicas.push_back(cand);
      ++(stranded ? impl_->re_replications : impl_->replications);
      target = cand;
      active = false;
    } else if (stranded) {
      return Status::unavailable(
          "DevicePool::submit: could not re-replicate '" + std::string(name) +
          "' onto a healthy device");
    }
  }

  if (!impl_->resilience) {
    auto job =
        impl_->devices[target].submit(name, std::move(vectors), options);
    if (!job.ok()) return job.status();
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    ++impl_->jobs_submitted;
    ++impl_->jobs_per_device[target];
    ++(active ? impl_->affinity_active : impl_->affinity_resident);
    return job;
  }

  // Supervised submission: the caller gets an *outer* pool job; the inner
  // device job reports into the supervisor, which delivers, verifies, or
  // migrates.  The stimulus is retained for re-execution and verification.
  auto outer = std::make_shared<detail::JobState>(
      pool_id, std::string(name), std::vector<InputVector>{}, options);
  SubmitOptions inner_options = options;
  inner_options.on_terminal = [impl = impl_.get(), pool_id] {
    impl->enqueue_completion(pool_id);
  };
  std::vector<InputVector> copy;
  {
    const std::lock_guard<std::mutex> lock(impl_->sup_mutex);
    Impl::Pending pj;
    pj.outer = outer;
    pj.design = std::string(name);
    pj.vectors = std::move(vectors);
    pj.options = options;
    pj.device = target;
    pj.verify = verify;
    auto [it, inserted] = impl_->pending.emplace(pool_id, std::move(pj));
    copy = it->second.vectors;
  }
  auto inner =
      impl_->devices[target].submit(name, std::move(copy), inner_options);
  if (!inner.ok()) {
    const std::lock_guard<std::mutex> lock(impl_->sup_mutex);
    impl_->pending.erase(pool_id);
    return inner.status();
  }
  {
    const std::lock_guard<std::mutex> lock(impl_->sup_mutex);
    if (const auto it = impl_->pending.find(pool_id);
        it != impl_->pending.end())
      it->second.inner = *inner;
  }
  impl_->sup_cv.notify_all();
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    ++impl_->jobs_submitted;
    ++impl_->jobs_per_device[target];
    ++(active ? impl_->affinity_active : impl_->affinity_resident);
  }
  return Job(std::move(outer));
}

Result<Job> DevicePool::submit(std::string_view name,
                               std::vector<InputVector> vectors,
                               const RunOptions& run) {
  SubmitOptions options;
  options.run = run;
  return submit(name, std::move(vectors), options);
}

Result<std::vector<BitVector>> DevicePool::run_sync(std::string_view name,
                                                    std::vector<InputVector>
                                                        vectors,
                                                    const SubmitOptions&
                                                        options) {
  auto job = submit(name, std::move(vectors), options);
  if (!job.ok()) return job.status();
  return job->wait();
}

Result<std::vector<BitVector>> DevicePool::run_sync(std::string_view name,
                                                    std::vector<InputVector>
                                                        vectors,
                                                    const RunOptions& run) {
  SubmitOptions options;
  options.run = run;
  return run_sync(name, std::move(vectors), options);
}

void DevicePool::drain() {
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    ++impl_->drains_active;
  }
  if (impl_->resilience) {
    // Wait for every supervised job to resolve first: migrations re-submit
    // device work, so the device queues are only meaningfully empty once
    // the pending set is (docs/scheduling.md §3.4).
    std::unique_lock<std::mutex> lock(impl_->sup_mutex);
    impl_->sup_idle_cv.wait(lock, [&] { return impl_->pending.empty(); });
  }
  for (Device& device : impl_->devices) device.drain();
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  --impl_->drains_active;
}

void DevicePool::install_fault_plan(std::size_t device, FaultPlan plan) {
  if (device >= impl_->devices.size()) return;
  impl_->devices[device].install_fault_plan(std::move(plan));
}

bool DevicePool::quarantined(std::size_t device) const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  if (device >= impl_->quarantined_flags.size()) return false;
  return impl_->quarantined_flags[device] != 0;
}

Result<platform::Session> DevicePool::open_session(
    std::string_view name) const {
  std::size_t home = kNoDevice;
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    const auto it = impl_->registry.find(name);
    if (it == impl_->registry.end())
      return Status::not_found("DevicePool::open_session: no registered "
                               "design named '" + std::string(name) + "'");
    home = it->second.replica_devices.front();
  }
  return impl_->devices[home].open_session(name);
}

Result<platform::Session> DevicePool::open_poly_session(
    std::string_view name) const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->poly_designs.find(name);
  if (it == impl_->poly_designs.end())
    return Status::not_found("DevicePool::open_poly_session: no polymorphic "
                             "design named '" + std::string(name) + "'");
  return platform::Session::load_poly(it->second);
}

const Device& DevicePool::device(std::size_t index) const {
  return impl_->devices[index];
}

PoolStats DevicePool::stats() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  PoolStats out;
  out.jobs_submitted = impl_->jobs_submitted;
  out.affinity_active = impl_->affinity_active;
  out.affinity_resident = impl_->affinity_resident;
  out.replications = impl_->replications;
  out.quarantines = impl_->quarantines;
  out.jobs_migrated = impl_->jobs_migrated;
  out.verify_mismatches = impl_->verify_mismatches;
  out.re_replications = impl_->re_replications;
  out.jobs_per_device = impl_->jobs_per_device;
  out.quarantined.assign(impl_->quarantined_flags.begin(),
                         impl_->quarantined_flags.end());
  out.queue_depths.reserve(impl_->devices.size());
  out.device.reserve(impl_->devices.size());
  for (const Device& device : impl_->devices) {
    out.queue_depths.push_back(device.queue_depth());
    const DeviceStats& d = out.device.emplace_back(device.stats());
    out.jobs_failed += d.jobs_failed;
    out.jobs_completed += d.jobs_completed;
    out.jobs_expired += d.jobs_expired;
    out += d;
  }
  return out;
}

}  // namespace pp::rt
