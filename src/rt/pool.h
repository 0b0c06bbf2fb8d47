// rt::DevicePool — a fleet of identical devices behind one submit surface.
//
// One rt::Device keeps one fabric busy; serving the ROADMAP's "heavy
// traffic" means a *pool* of them, the shell/runtime split of XRT-style
// multi-device platforms.  The pool owns N devices of homogeneous
// dimensions and exposes the same register-design / submit / wait shape as
// Device, adding two scheduling policies on top (docs/scheduling.md):
//
//  * Affinity-first routing.  Reconfiguration is the expensive event
//    (PR 3 measured deltas vs full rewrites), so a job goes to the
//    least-loaded device where its design is already *active*, then to the
//    least-loaded device where it is merely *resident*; plain least-loaded
//    is only the tie-break within each class.  Depth probes and the
//    active-personality check are lock-light snapshots (Device::queue_depth,
//    Device::active_matches), so routing never blocks on a running job.
//  * Hot-design replication.  Residency is cheap (content-hash dedupe, one
//    elaboration per distinct design per device) while congestion is not:
//    when a design's best replica stays at or above
//    PoolOptions::replicate_depth for replicate_streak consecutive
//    submits, the pool loads the design onto the strictly-less-loaded
//    non-replica device with the smallest queue and routes there, so hot
//    personalities spread across the fleet while cold ones stay put.
//  * Fleet resilience (opt-in: PoolOptions::quarantine_failures and/or
//    verify_sample_rate non-zero).  Devices are allowed to fail *after*
//    load: a resilience supervisor watches every device job retire, counts
//    consecutive infrastructure failures (kDataLoss / kUnavailable — CRC
//    rejects, timeouts, death) per device, samples completed jobs for
//    shadow verification against a reference engine, quarantines a device
//    that crosses the threshold (excluded from routing, replication, and
//    registration targets), re-executes the failed or corrupted job on a
//    healthy device (the caller's Job handle stays valid; the failure is
//    visible only as latency), and re-replicates designs whose only
//    replicas were quarantined.  DESIGN.md §15 is the normative fault
//    model.  When both knobs are 0 (the default) none of this machinery
//    exists and submit hands back the device job directly.
//
// Homogeneous dimensions are a requirement, not a convenience: designs are
// padded (platform::pad_to) to the pool's rows x cols exactly once at
// registration, and that single padded image is what makes replicas
// byte-identical across devices — the same bitstream, the same deltas, the
// same engines.  Heterogeneous arrays would need one pad (and one
// elaboration) per distinct dimension and would break the "a replica is
// interchangeable" invariant the router relies on (DESIGN.md §11).
//
// Thread-safety: every public method is safe to call from any thread.
// Destroying the pool destroys its devices in turn: each cancels its
// still-queued jobs (waking their waiters), finishes the in-flight one,
// and joins its dispatcher.  Call drain() first to let queued work finish.

/// \file
/// \brief rt::DevicePool — a fleet of identical devices behind one submit
/// surface, with affinity routing and hot-design replication.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "platform/compiler.h"
#include "platform/session.h"
#include "rt/device.h"
#include "rt/job.h"
#include "util/status.h"

namespace pp::rt {

/// Tuning knobs for the pool scheduler (see docs/scheduling.md).
struct PoolOptions {
  /// A design is congested when its best replica's device has at least
  /// this many jobs queued or in flight at submit time.
  std::size_t replicate_depth = 4;
  /// How many *consecutive* congested submits a design must see before the
  /// pool replicates it (one spike is not a hot spot).
  std::size_t replicate_streak = 2;
  /// Upper bound on replicas per design; 0 means "up to every device".
  std::size_t max_replicas = 0;
  /// Quarantine threshold: a device whose jobs fail with an infrastructure
  /// status (kDataLoss, kUnavailable) or a shadow-verify mismatch this
  /// many times *consecutively* (successes reset the count) is moved to
  /// quarantine — excluded from routing, replication, and registration
  /// homes, its stranded designs re-replicated onto healthy devices.
  /// 0 (the default) disables the resilience supervisor entirely unless
  /// verify_sample_rate enables it; then failures still migrate but no
  /// device is ever quarantined.
  std::size_t quarantine_failures = 0;
  /// Shadow verification: every Nth pool submit is re-executed on a
  /// pool-owned reference engine after the device reports success, and the
  /// result checksums (platform::result_checksum) must agree; a mismatch
  /// counts toward quarantine and the job is re-executed on another
  /// device.  1 verifies every job, 0 (the default) none.
  std::size_t verify_sample_rate = 0;
  /// Per-device knobs, applied to every device of the fleet (homogeneous
  /// devices share one configuration like they share one dimension).
  DeviceOptions device{};
};

/// Point-in-time snapshot of the pool's scheduling behaviour.  Cumulative
/// counters are monotone; queue_depths is an instantaneous load picture.
/// The inherited engine counters are the fleet totals of `device[]`.
struct PoolStats : sim::KernelStats {
  std::uint64_t jobs_submitted = 0;     ///< accepted by DevicePool::submit
  std::uint64_t affinity_active = 0;    ///< routed to an active-design device
  std::uint64_t affinity_resident = 0;  ///< routed to a merely-resident one
  std::uint64_t replications = 0;       ///< hot-design copies added
  /// Devices moved to quarantine by the resilience supervisor (monotone;
  /// quarantine is permanent for the pool's lifetime).
  std::uint64_t quarantines = 0;
  /// Jobs re-executed on another device after an infrastructure failure or
  /// a shadow-verify mismatch on their original device (each extra
  /// execution attempt counts once).
  std::uint64_t jobs_migrated = 0;
  /// Sampled jobs whose device results disagreed with the shadow reference
  /// engine's checksum (silent corruption caught).
  std::uint64_t verify_mismatches = 0;
  /// Designs re-replicated onto a healthy device because quarantine left
  /// them without a healthy replica (distinct from hot-design
  /// replications).
  std::uint64_t re_replications = 0;
  /// Fleet total of DeviceStats::jobs_failed — device-side job failures,
  /// distinct from jobs_expired (deadline) and jobs_canceled.  Includes
  /// failures the supervisor later healed by migration.
  std::uint64_t jobs_failed = 0;
  /// Fleet total of DeviceStats::jobs_completed.
  std::uint64_t jobs_completed = 0;
  /// Fleet total of DeviceStats::jobs_expired (deadline expiries).
  std::uint64_t jobs_expired = 0;
  std::vector<std::uint64_t> jobs_per_device;  ///< submits routed per device
  std::vector<std::size_t> queue_depths;  ///< per-device depth at snapshot
  std::vector<DeviceStats> device;        ///< per-device runtime counters
  /// Per-device quarantine flags (1 = quarantined) at snapshot time.
  std::vector<std::uint8_t> quarantined;
};

/// A fleet of homogeneous rt::Devices behind one register / submit / wait
/// surface.  Jobs route by design affinity first (active personality, then
/// mere residency), least-loaded within a class; designs that stay
/// congested replicate onto additional devices.  Every public method is
/// thread-safe; see the file comment and docs/scheduling.md §2 for the
/// policy.
class DevicePool {
 public:
  /// A pool of `devices` blank devices, each over a rows x cols array.
  /// Fails with kInvalidArgument for a zero device count or dimensions the
  /// fabric rejects.
  [[nodiscard]] static Result<DevicePool> create(std::size_t devices, int rows,
                                                 int cols,
                                                 PoolOptions options = {});

  /// Moved-from pools may only be destroyed or assigned to.
  DevicePool(DevicePool&&) noexcept;
  /// Shuts down the overwritten pool's fleet before taking over the
  /// moved-in one.
  DevicePool& operator=(DevicePool&&) noexcept;
  /// Destroys the fleet device by device: queued jobs cancel (their
  /// waiters wake), in-flight jobs finish, dispatchers join.
  ~DevicePool();

  /// Number of devices in the fleet (fixed at creation).
  [[nodiscard]] std::size_t device_count() const noexcept;
  /// Array rows shared by every device.
  [[nodiscard]] int rows() const noexcept;
  /// Array columns shared by every device.
  [[nodiscard]] int cols() const noexcept;

  /// Register a compiled design with the pool under `name` (non-empty).
  /// The design is padded to the pool dimensions once and made resident on
  /// one home device (round-robin across the fleet, so distinct designs
  /// start on distinct devices); further replicas appear only when the
  /// design runs hot.  Same contract as Device::load: re-registering
  /// identical content under the same name is idempotent, and a name can
  /// never be rebound to different content (kFailedPrecondition).
  [[nodiscard]] Status register_design(std::string name,
                                       const platform::CompiledDesign& design);

  /// Register a multi-mode polymorphic design (Compiler::compile_poly):
  /// every configuration view registers as an ordinary pool design under
  /// its derived key (rt::poly_view_name — mode 0 is `name` itself), so
  /// affinity routing and hot-design replication work per *view* (each
  /// mode is its own personality).  `name` must not contain "@mode".
  /// After this, RunOptions::mode on submit routes to the matching view's
  /// replicas, and open_poly_session serves mode sweeps.  A failure
  /// partway leaves earlier views registered (harmless: registration is
  /// idempotent) but mode routing inactive for `name`.
  [[nodiscard]] Status register_poly(std::string name,
                                     const platform::PolyDesign& design);

  /// Environment modes `name` answers through submit-time mode routing:
  /// the library's mode count for a register_poly design, 1 for an
  /// ordinary registered design, 0 when unknown.
  [[nodiscard]] std::size_t design_modes(std::string_view name) const;

  /// True when `name` is registered with the pool.
  [[nodiscard]] bool resident(std::string_view name) const;
  /// Names of all registered designs, sorted.
  [[nodiscard]] std::vector<std::string> designs() const;
  /// How many devices currently hold `name` (0 when unknown).
  [[nodiscard]] std::size_t replicas(std::string_view name) const;

  /// Route a batch of stimulus vectors to a device by design affinity
  /// (active > resident > least-loaded tie-break) and enqueue it there.
  /// Validation mirrors Device::submit: kNotFound for an unregistered
  /// design, kFailedPrecondition for a sequential design submitted without
  /// SubmitOptions::cycles, kInvalidArgument on a vector-width mismatch or
  /// a batch that does not divide into whole streams — all before
  /// queueing.  The options carry the run knobs, the clocked-stream cycle
  /// count, the scheduling class, and an optional deadline (see
  /// rt::SubmitOptions).  The returned Job is the same handle
  /// Device::submit yields; it stays valid after the pool dies (jobs are
  /// completed or canceled first, never leaked).  Fails with kUnavailable
  /// while a drain() is in progress, or when every device is quarantined.
  ///
  /// With resilience enabled (PoolOptions::quarantine_failures or
  /// verify_sample_rate non-zero) the handle is a *pool* job supervised
  /// across device failures: an infrastructure failure or verify mismatch
  /// re-executes the work on a healthy device and the handle resolves with
  /// the healthy result — callers observe migration only as latency.  One
  /// semantic difference: cancel() on a supervised job can win any time
  /// before the handle resolves (the in-flight device execution is then
  /// discarded), not only while the job is queued.
  ///
  /// Polymorphic designs route exactly as on Device::submit:
  /// `options.run.mode` resolves to the derived view key before affinity
  /// routing, so each mode builds its own affinity and replicates
  /// independently; kInvalidArgument for mode != 0 on a non-poly design,
  /// kOutOfRange for a missing mode, kUnimplemented for run.sweep_modes
  /// (use open_poly_session).
  [[nodiscard]] Result<Job> submit(std::string_view name,
                                   std::vector<InputVector> vectors,
                                   const SubmitOptions& options = {});

  /// Convenience overload: run knobs only (batch class, no deadline).
  [[nodiscard]] Result<Job> submit(std::string_view name,
                                   std::vector<InputVector> vectors,
                                   const RunOptions& run);

  /// Synchronous convenience: submit + wait.
  [[nodiscard]] Result<std::vector<BitVector>> run_sync(
      std::string_view name, std::vector<InputVector> vectors,
      const SubmitOptions& options = {});

  /// Convenience overload: run knobs only (batch class, no deadline).
  [[nodiscard]] Result<std::vector<BitVector>> run_sync(
      std::string_view name, std::vector<InputVector> vectors,
      const RunOptions& run);

  /// Block until every job submitted so far has retired — device queues
  /// empty, and (with resilience enabled) every migration and shadow
  /// verification settled.  Submits that arrive after a drain has started
  /// are rejected with kUnavailable until it returns: drain is a barrier
  /// with a documented ordering, not a racy snapshot (docs/scheduling.md
  /// §3.4).  Concurrent drains are safe; submits are accepted again once
  /// the last one returns.
  void drain();

  /// Install a scripted fault-injection plan on one device of the fleet
  /// (test/soak hook; see rt::FaultPlan and Device::install_fault_plan).
  /// Out-of-range `device` indices are ignored.
  void install_fault_plan(std::size_t device, FaultPlan plan);

  /// True when the resilience supervisor has quarantined device `device`:
  /// it no longer receives routed jobs, replicas, or registration homes.
  /// Quarantine is permanent for the pool's lifetime; out-of-range
  /// indices are false.
  [[nodiscard]] bool quarantined(std::size_t device) const;

  /// An interactive synchronous Session over a registered design (cycle-
  /// by-cycle step(), waveforms, X injection — the job path handles clocked
  /// batches via SubmitOptions::cycles).  The session is independent of
  /// every device's personality.
  [[nodiscard]] Result<platform::Session> open_session(
      std::string_view name) const;

  /// A mode-aware Session over a register_poly design (Session::load_poly
  /// of the registered multi-mode source): per-mode interactive driving
  /// plus the RunOptions::sweep_modes mode-major batch the job path does
  /// not serve.  kNotFound when `name` was not registered with
  /// register_poly.
  [[nodiscard]] Result<platform::Session> open_poly_session(
      std::string_view name) const;

  /// Direct access to one device of the fleet (index < device_count()),
  /// for tests, benches, and per-device introspection.  Scheduling-neutral:
  /// reads are always safe, but loading designs behind the pool's back
  /// leaves its replica map unaware of them.
  [[nodiscard]] const Device& device(std::size_t index) const;

  /// Snapshot of the pool's scheduling counters and per-device stats.
  [[nodiscard]] PoolStats stats() const;

 private:
  struct Impl;
  explicit DevicePool(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace pp::rt
