// rt::Device — the runtime's view of one polymorphic array.
//
// The paper's fabric has no fixed function: its personality is "a link to a
// reconfiguration bit stream" (§4).  The runtime API mirrors that directly,
// in the device/kernel/run shape of mature reconfigurable-platform stacks
// (XRT-style): a Device owns the hardware, named designs are made
// *resident* on it (`load`, deduped by content hash), `activate` swaps the
// array's personality, and `submit` returns an asynchronous Job handle so
// many clients can keep one fabric busy across many designs.
//
//  * Residency vs activation: loading pays the one-time cost (bitstream
//    decode, elaboration, levelization, engine binding — see DesignCache)
//    and many designs stay resident at once; exactly one is *active* on the
//    array.  Activation is partial reconfiguration: a core::BitstreamDelta
//    writes only the blocks whose 128-bit images differ from the resident
//    personality, a measured fraction of the full bitstream (the device
//    accounts both, see Stats).
//  * Scheduling: submissions land in a per-device JobQueue consumed by one
//    dispatcher thread — the fabric is exclusive, so job *dispatch* is
//    serial, while each job's vectors shard across util::thread_pool via
//    the resident design's BatchExecutor.  The queue prefers jobs matching
//    the active personality (oldest-first within a design, strict FIFO
//    across personalities otherwise), batching same-design bursts to
//    amortize reconfiguration.
//  * Clocked designs ride the same job path: a submission with
//    SubmitOptions::cycles > 0 treats its vectors as independent stimulus
//    *streams* of that many cycles each, evaluated by the resident
//    executor's run_cycles with per-lane register files (DESIGN.md §13).
//    platform::Session stays the synchronous convenience: `open_session`
//    hands out an interactive session for any resident design (cycle-by-
//    cycle step(), waveforms, X injection).
//
// Thread-safety: every public method is safe to call from any thread.  The
// destructor cancels still-queued jobs (waking their waiters), finishes the
// running one, and joins the dispatcher; call drain() first to let queued
// work complete.

/// \file
/// \brief rt::Device — one polymorphic array with resident designs,
/// partial-reconfiguration activation, and an async job queue.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/fabric.h"
#include "platform/compiler.h"
#include "platform/executor.h"
#include "platform/session.h"
#include "rt/fault.h"
#include "rt/job.h"
#include "util/status.h"

namespace pp::rt {

/// Batch-run options, re-exported from pp::platform (the runtime and the
/// synchronous Session share one evaluation machinery).
using platform::RunOptions;

/// The residency key mode `mode` of a polymorphic design registered as
/// `name` lives under: `name` itself for mode 0 (the default environment),
/// `name + "@mode<m>"` for every other mode.  Each configuration view is an
/// ordinary resident design — switching modes is a reconfiguration, so the
/// runtime's activation, affinity, and replication machinery apply per
/// view.  RunOptions::mode on submit resolves through this mapping; the
/// derived names also answer direct submits, introspection, and
/// open_session like any other resident design.
[[nodiscard]] std::string poly_view_name(std::string_view name,
                                         std::uint32_t mode);

/// Per-device tuning knobs, fixed at creation.
struct DeviceOptions {
  /// JobQueue bypass bound: how many consecutive pops may jump an older
  /// job (same-design batching or interactive preference) before strict
  /// FIFO is forced.  Must be >= 1 (validated by Device::create); higher
  /// favours batching throughput, lower favours queue-order latency — the
  /// serving layer's batching-vs-latency dial (docs/scheduling.md §1.2).
  int max_batch_run = 8;
  /// Warm a JIT native kernel (sim::JitEval) for every design as it
  /// becomes resident: the build runs on a background thread per design
  /// while the interpreter serves, and jobs hot-swap onto the generated
  /// kernel once it lands (Engine::kAuto).  Off by default — JIT warming
  /// spawns the host C compiler, which not every deployment has or wants;
  /// without one the build parks a Status and jobs simply keep the
  /// interpreter (counted in DeviceStats::jit_fallbacks).
  bool jit = false;
};

/// Cumulative runtime accounting (all counters monotone).  The inherited
/// engine counters sum this device's successful jobs.
struct DeviceStats : sim::KernelStats {
  std::uint64_t designs_loaded = 0;    ///< distinct resident designs built
  std::uint64_t dedup_hits = 0;        ///< loads aliased to a resident twin
  std::uint64_t activations = 0;       ///< personality swaps applied
  std::uint64_t activation_skips = 0;  ///< activate() of the active design
  std::uint64_t delta_bytes = 0;       ///< reconfig bytes actually written
  std::uint64_t full_bytes = 0;        ///< full-bitstream bytes those swaps
                                       ///< would have cost
  std::uint64_t jobs_submitted = 0;  ///< accepted by submit()
  std::uint64_t jobs_completed = 0;  ///< finished OK
  std::uint64_t jobs_failed = 0;     ///< finished with a non-OK status
  std::uint64_t jobs_canceled = 0;   ///< withdrawn before execution
  /// Jobs whose deadline had expired at dispatch: completed with
  /// kDeadlineExceeded without running (not counted in jobs_failed).
  std::uint64_t jobs_expired = 0;
  std::uint64_t batched_jobs = 0;    ///< ran without a personality swap
  std::uint64_t vectors_run = 0;     ///< stimulus vectors evaluated OK
};

/// One polymorphic array under runtime control: designs are made resident
/// (load), exactly one is active on the fabric at a time (activate, by
/// bitstream delta), and batches of stimulus vectors run asynchronously
/// (submit) through a per-device dispatcher.  Every public method is
/// thread-safe; see the file comment for the scheduling and lifetime
/// contract, and docs/scheduling.md for the queue policy.
class Device {
 public:
  /// A device over a rows x cols array, initially blank (no personality).
  /// Fails with kInvalidArgument for dimensions the fabric rejects or an
  /// options.max_batch_run < 1.
  [[nodiscard]] static Result<Device> create(int rows, int cols,
                                             DeviceOptions options = {});

  /// Moved-from devices may only be destroyed or assigned to.
  Device(Device&&) noexcept;
  /// Shuts down the overwritten device (cancels its queued jobs, joins its
  /// dispatcher) before taking over the moved-in one.
  Device& operator=(Device&&) noexcept;
  /// Cancels still-queued jobs, finishes the in-flight one, joins the
  /// dispatcher.  Job handles stay valid (and terminal) afterwards.
  ~Device();

  /// Array rows (fixed at creation).
  [[nodiscard]] int rows() const noexcept;
  /// Array columns (fixed at creation).
  [[nodiscard]] int cols() const noexcept;

  /// Make a compiled design resident under `name` (non-empty; "" is
  /// reserved for the blank power-on personality).  Designs smaller than
  /// the array are re-targeted onto it (platform::pad_to); designs that do
  /// not fit fail with kResourceExhausted.  Loading content already
  /// resident under another name aliases it instead of rebuilding
  /// (content-hash dedupe); re-loading the same content under the same name
  /// is idempotent.  A name may never be rebound to different content.
  [[nodiscard]] Status load(std::string name,
                            const platform::CompiledDesign& design);

  /// Make every configuration view of a multi-mode polymorphic design
  /// (Compiler::compile_poly) resident at once: mode m loads under
  /// poly_view_name(name, m), each through the ordinary load() path (same
  /// padding, dedupe, and no-rebinding rules).  `name` must not contain
  /// "@mode" (reserved for the derived keys).  After this,
  /// RunOptions::mode on submit routes to the matching view, and
  /// open_poly_session hands out the mode-aware Session (the sweep_modes
  /// path).  A failure partway leaves earlier views resident — harmless
  /// (residency is idempotent), but the name does not answer mode routing
  /// until a later load_poly succeeds.
  [[nodiscard]] Status load_poly(std::string name,
                                 const platform::PolyDesign& design);

  /// True when `name` names a resident design (aliases included).
  [[nodiscard]] bool resident(std::string_view name) const;
  /// Names of all resident designs (aliases included), sorted.
  [[nodiscard]] std::vector<std::string> designs() const;

  /// Environment modes `name` answers through submit-time mode routing:
  /// the library's mode count for a load_poly design, 1 for an ordinary
  /// resident design (only mode 0 exists), 0 when the name is unknown.
  [[nodiscard]] std::size_t design_modes(std::string_view name) const;

  /// Swap the array to `name`'s personality via partial reconfiguration.
  /// No-op (counted as a skip) when already active.  Blocks while a job is
  /// mid-flight — the personality is pinned for the duration of each job.
  [[nodiscard]] Status activate(std::string_view name);

  /// Name of the active design ("" while the array is blank).  Lock-light
  /// snapshot: it reflects the most recently *applied* personality and never
  /// blocks on an in-flight job (the dispatcher publishes each swap as it
  /// pins the fabric).
  [[nodiscard]] std::string active() const;

  /// True when `name` resolves to the resident design whose personality is
  /// on the array right now.  Alias-aware (two names for deduped identical
  /// content match the same personality) and non-blocking, which is what
  /// makes it usable as a scheduler affinity probe — see rt::DevicePool.
  [[nodiscard]] bool active_matches(std::string_view name) const;

  /// Jobs accepted but not yet retired (queued + in flight).  Snapshot
  /// load hint for schedulers; see JobQueue::pending for the caveat.  A
  /// finishing job's waiters may wake an instant before it retires, so
  /// drain() — not a wait() on the last job — is the strict idle barrier.
  [[nodiscard]] std::size_t queue_depth() const;

  /// Still-queued (not yet dispatched) jobs bound to `name` — per-design
  /// introspection for tests and tooling (rt::DevicePool routes on the
  /// device-wide queue_depth(), not this).
  [[nodiscard]] std::size_t queued(std::string_view name) const;

  /// True when no job is queued or in flight (queue_depth() == 0) —
  /// introspection convenience; see the drain() caveat on queue_depth().
  [[nodiscard]] bool idle() const;

  /// A snapshot of the resident configuration of the physical array (what
  /// a controller would read back), taken under the personality lock so it
  /// is never half-reconfigured; byte-compare its re-encoding against a
  /// design's bitstream to check a personality landed exactly.
  [[nodiscard]] core::Fabric personality() const;

  /// Enqueue a batch of stimulus vectors against a resident design.  With
  /// SubmitOptions::cycles == 0 the vectors are independent combinational
  /// stimuli; with cycles > 0 they are stream-major clocked streams (see
  /// SubmitOptions::cycles).  Fails fast (before queueing) with kNotFound
  /// for an unknown design, kFailedPrecondition for a sequential design
  /// submitted without cycles, kInvalidArgument on a vector-width mismatch
  /// or a batch that does not divide into whole streams.  The returned Job
  /// completes asynchronously;
  /// options carry the run knobs plus the scheduling class and optional
  /// deadline (expired at dispatch → the job completes with
  /// kDeadlineExceeded without running).
  ///
  /// Polymorphic designs: `options.run.mode` selects which configuration
  /// view the job runs — the submit resolves it to the derived resident
  /// design (poly_view_name) and the job itself runs mode-blind, so the
  /// queue batches and the fabric reconfigures per *view*.  kInvalidArgument
  /// when mode != 0 on a design that was not load_poly'ed, kOutOfRange for
  /// a mode the design does not have, and kUnimplemented for
  /// run.sweep_modes (a swept batch needs the mode-major compiled engine —
  /// use open_poly_session(), which serves it synchronously).
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

  /// Block until every job submitted so far has left the queue and the
  /// dispatcher is idle.
  void drain();

  /// An interactive synchronous Session over a resident design (its own
  /// simulator; independent of the job path and the array personality).
  [[nodiscard]] Result<platform::Session> open_session(
      std::string_view name) const;

  /// A mode-aware Session over a load_poly design (Session::load_poly of
  /// the registered multi-mode source): per-mode interactive driving plus
  /// the RunOptions::sweep_modes mode-major batch the job path does not
  /// serve.  kNotFound when `name` was not registered with load_poly.
  [[nodiscard]] Result<platform::Session> open_poly_session(
      std::string_view name) const;

  /// Install (or replace) a scripted fault-injection plan (test/soak
  /// hook; see rt::FaultPlan).  Triggers count dispatched jobs from zero
  /// again, and a previously injected kDeath is revived.  Installing a
  /// plan before submitting guarantees the first submitted job observes
  /// ordinal 1; jobs already in flight race the swap.  When no plan is
  /// installed the dispatch path pays one relaxed atomic load per job.
  void install_fault_plan(FaultPlan plan);

  /// Remove the fault plan: the device behaves like a healthy device again
  /// (a kDeath injected by the old plan is revived).
  void clear_fault_plan();

  /// Snapshot of the cumulative runtime counters.
  [[nodiscard]] DeviceStats stats() const;

 private:
  struct Impl;
  explicit Device(std::unique_ptr<Impl> impl);
  /// Cancel queued jobs and join the dispatcher (destructor body; also
  /// runs on the overwritten device in move-assignment).
  void shutdown_impl();
  std::unique_ptr<Impl> impl_;
};

}  // namespace pp::rt
