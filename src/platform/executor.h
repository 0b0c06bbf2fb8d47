// platform::BatchExecutor — the engine-owning batch-evaluation core shared
// by the synchronous Session API and the pp::rt device runtime.  One
// BatchExecutor per (circuit, input nets, output nets) binding owns engine
// selection, lazy engine construction and caching, wide-batch packing and
// sharding whole granules across util::ThreadPool, on one path that serves
// both independent vectors (run) and clocked streams (run_cycles).  Engines
// are built on first use and cached for the executor's lifetime, which is
// how a design re-activated on an rt::Device reuses its levelization and
// compiled program instead of re-deriving them.
//
// Thread-safety: a batch shards *within* one call, but the executor itself
// is not synchronized — callers serialize calls (Session is single-threaded
// by contract; rt::Device funnels every job through its dispatcher).

/// \file
/// \brief platform::BatchExecutor — the engine-owning batch-evaluation
/// core shared by Session and the pp::rt runtime.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/evaluator.h"
#include "sim/jit.h"
#include "util/status.h"

namespace pp::platform {

/// One vector of port values, index = bound port order.
using BitVector = std::vector<bool>;
/// One stimulus vector (bound input order); a batch is a span of these.
using InputVector = BitVector;

/// Which evaluation engine batch runs use.
enum class Engine : std::uint8_t {
  /// Pick the fastest engine the design supports: a *ready* JIT kernel
  /// (never waits for one), else the bit-parallel compiled engine
  /// (combinational, no dynamic tri-state, no behavioural async gates),
  /// else the event-driven path.
  kAuto,
  /// Force the event-driven clone-sharding path (the timing-accurate
  /// reference; mandatory for anything CompiledEval rejects).
  kEventDriven,
  /// Force the bit-parallel compiled engine; runs fail with the engine's
  /// compile Status when the design is unsupported.
  kCompiled,
  /// Force the JIT-compiled native kernel (sim::JitEval), blocking until
  /// its build finishes when one is in flight; runs fail with the build
  /// Status when no host compiler is available or the design is
  /// unsupported.
  kJit,
};

/// Per-call knobs for a batch run (engine choice, sharding, budgets).
struct RunOptions {
  /// Worker cap for a batch run; 0 = every worker of the global pool.
  /// 1 forces the serial reference path (no cloning).
  std::size_t max_threads = 0;
  /// Event budget per vector (oscillation guard; event engine only).
  std::uint64_t max_events_per_vector = 2'000'000;
  /// Engine selection policy.
  Engine engine = Engine::kAuto;
  /// Environment mode to evaluate, for polymorphic designs loaded with
  /// Session::load_poly: the run is served by that mode's configuration
  /// view.  Ordinary designs (and BatchExecutor, which serves exactly one
  /// view) accept only 0.
  std::uint32_t mode = 0;
  /// Sweep *every* environment mode in one batch (load_poly sessions
  /// only): run_vectors returns mode-major results — mode m's outputs for
  /// vector v at index `m * vectors.size() + v`.  Mutually exclusive with
  /// a non-zero `mode`.
  bool sweep_modes = false;
};

/// Cumulative accounting of one executor's batch runs: the run counts
/// below plus the engine counters it inherits (all monotone; failed runs
/// count toward runs but not vectors_run).  Shares the executor's
/// synchronization contract: read it from the thread that serializes
/// run() calls.  JIT-served runs count in compiled_runs (the JIT serves
/// the same compiled program, natively), so jit_passes is the share of
/// that work done by generated code.
struct ExecutorStats : sim::KernelStats {
  std::uint64_t runs = 0;           ///< run() calls that reached an engine
  std::uint64_t vectors_run = 0;    ///< stimulus vectors evaluated OK
  std::uint64_t compiled_runs = 0;  ///< runs served by the compiled engine
  std::uint64_t event_runs = 0;     ///< runs served by the event engine
};

/// Pack a batch of equal-width vectors into structure-of-arrays bit
/// planes: plane `i` holds bit `i` of every vector, ceil(count/8) bytes
/// per plane (vector v lands in byte v/8, bit v%8), planes concatenated
/// in index order, trailing pad bits zero.  This is the canonical
/// SoA-on-a-byte-stream layout shared by the serving wire protocol
/// (docs/serving-protocol.md) and any other consumer that ships batches
/// out of process; the evaluation engines use the same orientation at
/// word granularity internally.  Every vector must have exactly `width`
/// bits — the caller validates (the serving layer does so before packing).
[[nodiscard]] std::vector<std::uint8_t> pack_bit_planes(
    std::span<const BitVector> vectors, std::size_t width);

/// CRC-32 checksum identifying a batch of result vectors exactly: the
/// count, every vector's width, and every bit participate, so two batches
/// collide only as a 32-bit CRC can.  This is the shadow-verification hook
/// rt::DevicePool samples jobs with (PoolOptions::verify_sample_rate): the
/// checksum of a device's result planes is recomputed against a reference
/// engine's output and any disagreement marks the device as corrupting
/// (DESIGN.md §15).  Deterministic across platforms.
[[nodiscard]] std::uint32_t result_checksum(std::span<const BitVector> results);

/// Inverse of pack_bit_planes: rebuild `count` vectors of `width` bits
/// from concatenated bit planes.  Fails with kInvalidArgument when
/// `bytes` is not exactly width * ceil(count/8) bytes or any trailing pad
/// bit of a plane is non-zero (wire input is never trusted; a non-canonical
/// encoding is rejected, not normalized).
[[nodiscard]] Result<std::vector<BitVector>> unpack_bit_planes(
    std::span<const std::uint8_t> bytes, std::size_t count,
    std::size_t width);

/// The engine-owning batch-evaluation core: one executor per (circuit,
/// input nets, output nets) binding, engines built lazily and cached for
/// its lifetime.  Not synchronized — callers serialize run() calls (see
/// the file comment).
class BatchExecutor {
 public:
  /// Bind an executor to a circuit.  The circuit must outlive the executor;
  /// nets are validated by the engines on first use.  `output_names` label
  /// outputs in diagnostics; `levels` optionally reuses a previously
  /// computed levelization of the same circuit (empty = recompute).
  /// `regs` declares external register loops (platform boundary registers;
  /// see sim::ExternalReg) that run_cycles closes at each clock edge — a
  /// design with behavioural state gates or a non-empty `regs` is *clocked*
  /// and evaluates through run_cycles instead of run.
  BatchExecutor(const sim::Circuit& circuit, std::vector<sim::NetId> in_nets,
                std::vector<sim::NetId> out_nets,
                std::vector<std::string> output_names, sim::LevelMap levels,
                std::vector<sim::ExternalReg> regs = {});

  /// Moves transfer the cached engines (and any in-flight JIT build — its
  /// task is self-contained, so it lands wherever the state moves); the
  /// moved-from executor may only be destroyed or assigned to.
  BatchExecutor(BatchExecutor&&) noexcept;
  /// Moves transfer the cached engines; the moved-from executor may only
  /// be destroyed or assigned to.
  BatchExecutor& operator=(BatchExecutor&&) noexcept;
  /// Joins any in-flight JIT kernel build before releasing the engines.
  ~BatchExecutor();

  /// Evaluate many independent stimulus vectors (bound input order) and
  /// return the outputs (bound output order) for each.  Vectors are packed
  /// directly into the engine's structure-of-arrays plane layout in
  /// wide-batch granules (the engine's preferred_words() — 512 lanes per
  /// kernel pass for the default compiled engine) and sharded across the
  /// global thread pool at granule boundaries: the compiled engine clones
  /// only its scratch slots, the event engine clones its settled base
  /// simulator per shard.  Per-shard packing scratch is reused across the
  /// shard's granules.
  [[nodiscard]] Result<std::vector<BitVector>> run(
      std::span<const InputVector> vectors, const RunOptions& options = {});

  /// Evaluate clocked batches: `stimulus` holds independent stimulus
  /// *streams* of `cycles` vectors each, stream-major (stream s's cycle c
  /// is `stimulus[s * cycles + c]`; `stimulus.size()` must be a multiple of
  /// `cycles`).  Every stream starts from reset (behavioural registers X,
  /// external registers at their declared value), runs `cycles` clock
  /// cycles, and yields one result vector per cycle in the same layout.
  /// Streams pack into SoA lane granules and shard across the pool exactly
  /// like run(): per-lane register files are independent, so a clone
  /// carries its shard's state in its own scratch planes.  Combinational
  /// designs are accepted (each cycle is an independent evaluation).  An
  /// output that settles to X in any cycle fails with kInternal — clocked
  /// designs surface power-on X unless the stimulus asserts their reset in
  /// early cycles.
  [[nodiscard]] Result<std::vector<BitVector>> run_cycles(
      std::span<const InputVector> stimulus, std::size_t cycles,
      const RunOptions& options = {});

  /// Status of the bit-parallel compiled engine for this binding: OK when
  /// Engine::kAuto will use it, else why CompiledEval rejected the circuit.
  /// Builds and caches the engine on first call.  For a clocked binding
  /// this is the *sequential* compilation (the engine run_cycles uses).
  [[nodiscard]] Status compiled_engine_status();

  /// True when this binding is clocked (behavioural state gates or
  /// declared external registers): run() rejects it, run_cycles drives it.
  [[nodiscard]] bool sequential() const noexcept { return sequential_; }

  /// Start building the JIT native kernel for this binding in the
  /// background (once; later calls are no-ops).  The build compiles its
  /// own private program image on the async thread — it never touches the
  /// cached engines a concurrent dispatcher may be running on — and the
  /// interpreter keeps serving until the kernel is ready: Engine::kAuto
  /// runs poll non-blocking and hot-swap onto the JIT when the build has
  /// landed, counting jit_fallbacks until then.  A failed build (no host
  /// compiler, unsupported or oversized design) parks its Status where
  /// jit_engine_status() reports it; runs keep falling back forever.
  void warm_jit(const sim::JitOptions& options = {});

  /// Status of the JIT native kernel: requests the build if nobody has
  /// (warm_jit), *blocks* until it finishes, and returns OK when
  /// Engine::kJit runs will be served by generated code — else why the
  /// build failed.  Shares the executor's caller-serialized contract.
  [[nodiscard]] Status jit_engine_status();

  /// Number of bound input nets (the width every stimulus vector must have).
  [[nodiscard]] std::size_t input_count() const noexcept {
    return in_nets_.size();
  }
  /// Number of bound output nets (the width of every result vector).
  [[nodiscard]] std::size_t output_count() const noexcept {
    return out_nets_.size();
  }

  /// Accounting across this executor's lifetime — how often each engine
  /// actually served and how many vectors went through, plus its engines'
  /// live kernel counters (interpreter and JIT summed).  Surfaced as
  /// Session::executor_stats(); rt::Device keeps its own aggregate
  /// (DeviceStats) under its stats lock because this view shares the
  /// executor's caller-serialized contract.
  [[nodiscard]] ExecutorStats stats() const noexcept;

  /// The slice of stats() attributable to the most recent *successful*
  /// run() (runs == 1, that run's vectors and kernel passes).  Failed runs
  /// leave it untouched (their kernel passes still reach the lifetime
  /// stats() totals); all-zero before the first success.  This is what
  /// rt::Device folds into DeviceStats per completed job without holding
  /// executor state across jobs.
  [[nodiscard]] const ExecutorStats& last_run_stats() const noexcept {
    return last_run_;
  }

 private:
  struct JitState;  // async build bookkeeping, defined in executor.cpp

  [[nodiscard]] Status ensure_compiled();
  [[nodiscard]] Result<sim::Evaluator*> ensure_event(std::uint64_t budget);
  /// Adopt a finished build if one is pending; the ready engine or null.
  [[nodiscard]] sim::JitEval* jit_ready();
  /// Block until the (possibly just-requested) build finishes.
  [[nodiscard]] Status ensure_jit();
  /// The kernel counters of the cached interpreter and JIT engines, summed.
  [[nodiscard]] sim::KernelStats kernel_totals() const noexcept;
  /// The batch path behind run and run_cycles: `stimulus` holds streams of
  /// `cycles` vectors (1 for run); `clocked` drives them through the
  /// engine's run_cycles instead of eval_wide.
  [[nodiscard]] Result<std::vector<BitVector>> run_batch(
      std::span<const InputVector> stimulus, std::size_t cycles, bool clocked,
      const RunOptions& options);

  const sim::Circuit* circuit_;
  std::vector<sim::NetId> in_nets_;
  std::vector<sim::NetId> out_nets_;
  std::vector<std::string> output_names_;
  sim::LevelMap levels_;
  std::vector<sim::ExternalReg> regs_;
  bool sequential_ = false;

  bool compiled_attempted_ = false;
  Status compiled_status_;
  std::unique_ptr<sim::CompiledEval> compiled_;
  std::unique_ptr<sim::EventEval> event_engine_;
  std::unique_ptr<JitState> jit_state_;
  /// Run counts and JIT events; stats() adds the engines' kernel counters.
  ExecutorStats stats_;
  ExecutorStats last_run_;
};

}  // namespace pp::platform
