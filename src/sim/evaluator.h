// Pluggable evaluation engines for combinational batch workloads.
//
// The event-driven pp::sim::Simulator is the timing-accurate reference: it
// models inertial delays, glitches, and oscillation, and it is what every
// paper-facing figure drives.  But batch traffic ("evaluate these 10k
// stimulus vectors") does not need timing — it needs the *settled* values,
// as fast as the hardware allows.  This header separates the two concerns
// behind one interface (the classic functional-vs-timing split of
// reconfigurable-platform software stacks):
//
//  * `Evaluator` — the engine abstraction callers program against.  The
//    throughput entry point is `eval_wide`: one call evaluates a *wide
//    batch* of many independent vectors, packed bit-parallel in
//    structure-of-arrays plane buffers (all of a signal's words
//    contiguous, value and unknown planes separate).  `eval_packed` is the
//    one-word (64-lane, AoS `PackedBits`) convenience over the same
//    kernel.
//  * `CompiledEval` — topologically levelizes a validated combinational
//    circuit, constant-folds configuration structure (3-state drivers with
//    constant enables, the fabric's const-1 rows), dead-code-eliminates the
//    cone outside the observed outputs, optimizes the remaining program
//    (polarity-aware copy-propagation of one-input gates by slot
//    aliasing, fixed-arity 2/3-input opcode specialization, level-major
//    slot renumbering), and flattens it into a contiguous instruction
//    array evaluated W words — W*64 vectors — at a time with bitwise word
//    ops.  Alongside the two-plane program it derives a *two-valued*
//    single-plane interpretation: when the program
//    has no wired-resolution and no constant-unknown source feeding the
//    live cone, a batch whose inputs carry no X/Z runs a value-plane-only
//    kernel with half the memory traffic.  Circuits it cannot model —
//    combinational cycles, 3-state drivers whose enable is not a
//    compile-time constant (dynamic contention), behavioural async gates
//    (DFF/latch/C-element) — are rejected via Status so callers can fall
//    back to the event engine.
//  * `EventEval` — the event-driven Simulator behind the same packed
//    interface: the always-correct fallback.
//
// Two-plane encoding: each signal carries a `value` word and an `unknown`
// word, bit i belonging to vector i of the batch.  unknown=1 means X (Z
// collapses into X at the packing boundary — at a gate input the simulator
// treats a floating line exactly like an unknown one, and after constant
// folding no CompiledEval driver can emit a *dynamic* Z, so the collapse is
// exact for every net the engine accepts).  The planes are kept canonical:
// value=0 wherever unknown=1, so plane-equality is value-equality.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "sim/circuit.h"
#include "sim/logic.h"
#include "sim/simulator.h"
#include "util/status.h"

namespace pp::sim {

/// One batch worth of a signal: bit i of each plane is vector i's value.
struct PackedBits {
  std::uint64_t value = 0;
  std::uint64_t unknown = 0;  ///< X/Z mask; canonical form has value&unknown==0

  bool operator==(const PackedBits&) const = default;
};

/// Write vector `lane`'s value into a packed signal (keeps canonical form).
constexpr void set_lane(PackedBits& p, int lane, Logic v) noexcept {
  const std::uint64_t bit = std::uint64_t{1} << lane;
  p.value &= ~bit;
  p.unknown &= ~bit;
  if (v == Logic::k1) p.value |= bit;
  else if (v != Logic::k0) p.unknown |= bit;
}

/// Read vector `lane`'s value out of a packed signal (X for unknown — the
/// packed encoding does not distinguish X from Z).
[[nodiscard]] constexpr Logic get_lane(const PackedBits& p, int lane) noexcept {
  const std::uint64_t bit = std::uint64_t{1} << lane;
  if (p.unknown & bit) return Logic::kX;
  return (p.value & bit) ? Logic::k1 : Logic::k0;
}

/// Topological levelization of a circuit's gate graph.  Level 0 gates read
/// only primary inputs, constants, or undriven nets; every other gate sits
/// one above its deepest driver.  `order` lists every gate in evaluation
/// order (drivers strictly before readers).
struct LevelMap {
  std::vector<std::uint32_t> gate_level;  ///< per GateId
  std::vector<GateId> order;              ///< all gates, topologically sorted
  std::uint32_t max_level = 0;

  [[nodiscard]] bool empty() const noexcept { return order.empty(); }
};

/// Levelize a circuit.  Fails with kFailedPrecondition when the gate graph
/// has a cycle, with two distinct diagnoses: a *sequential feedback loop*
/// (every cycle closes only through behavioural state-holding gates —
/// DFF/latch/C-element — so the circuit is clocked, not cyclic; the
/// sequential compiled engine breaks exactly these at register boundaries)
/// versus a *true combinational cycle* (cross-coupled gates with no
/// register on the loop; only the event-driven engine can iterate those
/// through time).  Either way a net on the offending cycle is named.
[[nodiscard]] Result<LevelMap> levelize(const Circuit& circuit);

/// A register loop closed *outside* the circuit: `q` is a primary-input pad
/// acting as the register's output, `d` is the net whose settled value the
/// register captures at each cycle's clock edge, and `reset` is the value
/// the pad holds at reset.  This is how platform boundary registers
/// (DESIGN.md §6: purely combinational fabric, Q pads driven at the array
/// edge, reset to 0) ride the sequential engines.
struct ExternalReg {
  NetId q;                  ///< primary-input pad acting as the register Q
  NetId d;                  ///< net captured into `q` at each clock edge
  Logic reset = Logic::k0;  ///< pad value at reset (boundary registers: 0)
};

/// One polymorphic-gate rewrite of a shared circuit structure: in a given
/// environment mode, `gate` computes `kind` instead of its base kind.  A
/// list of these per mode (pp::poly::Elaboration) is what turns one
/// circuit into its M configuration views.
struct ModeOverride {
  GateId gate;
  GateKind kind;
};

/// The engine counters, one schema from kernel to fleet: engines report
/// them through kernel_stats(), and platform::ExecutorStats,
/// rt::DeviceStats and rt::PoolStats inherit this struct, so each level
/// rolls up the one below with `+=`.  Every counter is monotone.
struct KernelStats {
  std::uint64_t fast_passes = 0;  ///< single-plane (two-valued) passes
  std::uint64_t slow_passes = 0;  ///< two-plane passes
  /// Clock cycles executed by run_cycles (per pass group — one 512-lane
  /// group running 32 cycles counts 32).
  std::uint64_t cycles_run = 0;
  /// Register captures committed at clock edges (edge registers per
  /// cycle per pass group; latches commit during settling, not here).
  std::uint64_t state_commits = 0;
  /// run_cycles cycles that rode the single-plane fast path (inputs and
  /// register state both free of unknown bits).
  std::uint64_t fast_cycle_passes = 0;
  /// Kernel passes (wide passes + clocked cycles) served by JIT-generated
  /// native code; the interpreter reports 0.
  std::uint64_t jit_passes = 0;
  // The JIT build and routing events below are counted by
  // platform::BatchExecutor; engines report 0.
  /// JIT kernel builds that invoked the host compiler (a disk-cache miss).
  std::uint64_t jit_compiles = 0;
  /// JIT kernel builds satisfied entirely from the shared disk cache.
  std::uint64_t jit_cache_hits = 0;
  /// Runs that asked for the JIT (warm requested, Engine::kAuto) but were
  /// served by another engine — the kernel was still building, or its
  /// build failed (no host compiler, oversized program).
  std::uint64_t jit_fallbacks = 0;
};

/// Every KernelStats counter: the one list its arithmetic walks.
inline constexpr std::uint64_t KernelStats::*kKernelStatsFields[] = {
    &KernelStats::fast_passes,       &KernelStats::slow_passes,
    &KernelStats::cycles_run,        &KernelStats::state_commits,
    &KernelStats::fast_cycle_passes, &KernelStats::jit_passes,
    &KernelStats::jit_compiles,      &KernelStats::jit_cache_hits,
    &KernelStats::jit_fallbacks};

/// Field-wise sum: how each level rolls up the one below.
inline KernelStats& operator+=(KernelStats& a, const KernelStats& b) noexcept {
  for (const auto field : kKernelStatsFields) a.*field += b.*field;
  return a;
}

/// Field-wise difference of two snapshots: what the window between them
/// added.
[[nodiscard]] inline KernelStats operator-(KernelStats a,
                                           const KernelStats& b) noexcept {
  for (const auto field : kKernelStatsFields) a.*field -= b.*field;
  return a;
}

/// An evaluation engine over a fixed (circuit, input nets, output nets)
/// binding.  Engines evaluate wide batches of independent vectors packed
/// bit-parallel; they are stateful only through scratch storage, so
/// concurrent use requires one `clone()` per thread.
class Evaluator {
 public:
  /// Lanes (independent vectors) per 64-bit plane word — the grain of the
  /// bit-parallel encoding and the capacity of one `eval_packed` call.
  static constexpr int kBatchLanes = 64;

  virtual ~Evaluator() = default;

  [[nodiscard]] virtual const char* name() const noexcept = 0;
  [[nodiscard]] virtual std::size_t input_count() const noexcept = 0;
  [[nodiscard]] virtual std::size_t output_count() const noexcept = 0;

  /// Evaluate one 64-lane batch.  `inputs[i]` packs the i-th bound input
  /// net across the batch, `outputs[k]` receives the k-th bound output
  /// net.  `lanes` bounds how many vectors of the batch are meaningful
  /// (1..kBatchLanes); engines may compute all kBatchLanes but must not
  /// fail on garbage in the unused lanes, and must leave them 0/0 in the
  /// outputs.
  [[nodiscard]] virtual Status eval_packed(std::span<const PackedBits> inputs,
                                           std::span<PackedBits> outputs,
                                           int lanes = kBatchLanes) = 0;

  /// Evaluate one wide batch of `lanes` vectors over structure-of-arrays
  /// plane buffers.  With `words = ceil(lanes / kBatchLanes)`, input net i
  /// occupies `in_value[i*words .. i*words+words-1]` (and the same span of
  /// `in_unknown`); output net k likewise in the out planes.  Word w's bit
  /// b belongs to vector `w*kBatchLanes + b`.  Span sizes must be exactly
  /// `input_count()*words` / `output_count()*words`.  Engines must not
  /// fail on garbage in the unused lanes of the final word and must leave
  /// them 0/0 in the outputs.
  ///
  /// The base implementation adapts any engine one `eval_packed` word at a
  /// time; engines with a real wide kernel (CompiledEval) override it.
  [[nodiscard]] virtual Status eval_wide(std::span<const std::uint64_t> in_value,
                                         std::span<const std::uint64_t> in_unknown,
                                         std::span<std::uint64_t> out_value,
                                         std::span<std::uint64_t> out_unknown,
                                         std::size_t lanes);

  /// Evaluate `cycles` clock cycles of a sequential design over `lanes`
  /// independent stimulus streams, bit-parallel.  The layout is cycle-major
  /// SoA: with `words = ceil(lanes / kBatchLanes)` and `nin =
  /// input_count()`, input i of cycle c occupies
  /// `in_value[((c*nin)+i)*words .. +words-1]` (same span of `in_unknown`);
  /// output k of cycle c likewise in the out planes with `nout =
  /// output_count()`.  Span sizes must be exactly `nin*cycles*words` /
  /// `nout*cycles*words`.  Per cycle the engine settles the combinational
  /// logic with the current register state, samples the outputs (pre-edge),
  /// then pulses every clock once and commits the captured D values into
  /// the register state.  Each lane carries an independent register file.
  /// `reset` restores every register to its reset value (behavioural
  /// DFF/latch state: X, exactly like a fresh event simulator; external
  /// registers: their declared reset) before cycle 0; `reset = false`
  /// continues from the state the previous call left behind.  Engines must
  /// not fail on garbage in the unused lanes of the final word and must
  /// leave them 0/0 in the outputs.
  ///
  /// The base implementation fails with kFailedPrecondition; engines with
  /// sequential support (CompiledEval, EventEval) override it.
  [[nodiscard]] virtual Status run_cycles(std::span<const std::uint64_t> in_value,
                                          std::span<const std::uint64_t> in_unknown,
                                          std::span<std::uint64_t> out_value,
                                          std::span<std::uint64_t> out_unknown,
                                          std::size_t cycles, std::size_t lanes,
                                          bool reset = true);

  /// The wide-batch granule this engine is tuned for, in plane words: the
  /// sharding hint callers use to size `eval_wide` calls.  1 for engines
  /// that evaluate word-at-a-time behind the base `eval_wide` shim.
  [[nodiscard]] virtual std::size_t preferred_words() const noexcept {
    return 1;
  }

  /// Independent engine over the same binding, for per-thread sharding.
  [[nodiscard]] virtual std::unique_ptr<Evaluator> clone() const = 0;
};

/// The levelized bit-parallel backend.  Compilation is a one-time cost per
/// (circuit, binding); evaluation is a single pass over a flat instruction
/// array per wide batch, each instruction streaming W plane words (W*64
/// vectors) through auto-vectorizable inner loops.  Clones share the
/// immutable program (and its fast/slow pass counters) and carry only
/// their own slot scratch, so cloning is cheap.
class CompiledEval final : public Evaluator {
 public:
  /// Default wide-batch width W, in 64-lane plane words per slot (8 words
  /// = 512 vectors per kernel pass).
  static constexpr int kDefaultWideWords = 8;

  /// Compile-time knobs.  The defaults are the production configuration;
  /// the degraded combinations exist for benchmarking (the PR 2 scalar
  /// 64-lane kernel is `{.wide_words = 1, .two_valued = false,
  /// .optimize = false}`) and for differential testing of each feature.
  struct CompileOptions {
    /// Scratch width W in plane words per slot (>= 1).  `eval_wide` calls
    /// wider than W are processed in passes of W words.
    int wide_words = kDefaultWideWords;
    /// Derive the single-plane fast path: batches whose inputs carry no
    /// unknown bits run a value-plane-only kernel when the program is
    /// eligible (no wired-resolution, no constant-unknown source).
    bool two_valued = true;
    /// Program optimization passes: copy-propagation of one-input gates
    /// via polarity-aware slot aliasing (BUF-like gates alias their
    /// source, NOT-like gates its complement, which one shared kNot per
    /// source slot materializes for readers that need it), fixed-arity
    /// 2/3-input opcode specialization, and level-major slot renumbering.
    bool optimize = true;
  };

  /// Compile a circuit.  `in_nets` must be primary inputs that no gate
  /// drives; every other primary input is treated as constantly undriven
  /// (Z -> unknown), matching a fresh event simulator.  Pass `levels` to
  /// reuse a previously computed levelization of the *same* circuit (e.g.
  /// recompiling a reconfigured fabric); it is verified to be a valid
  /// topological order of this circuit (O(pins)) and silently recomputed
  /// when it is not, so a stale map can never corrupt compilation.
  ///
  /// Failure modes (all leave the caller free to fall back):
  ///  * kInvalidArgument     — circuit fails validate(), a bound net is
  ///                           out of range / not a primary input, or
  ///                           options.wide_words < 1;
  ///  * kFailedPrecondition  — combinational cycle, behavioural async gate,
  ///                           3-state driver with a non-constant enable, or
  ///                           an externally driven net that gates also drive.
  [[nodiscard]] static Result<CompiledEval> compile(
      const Circuit& circuit, std::vector<NetId> in_nets,
      std::vector<NetId> out_nets, const LevelMap* levels = nullptr);
  /// As above, with explicit compile-time knobs (see CompileOptions).
  [[nodiscard]] static Result<CompiledEval> compile(
      const Circuit& circuit, std::vector<NetId> in_nets,
      std::vector<NetId> out_nets, const LevelMap* levels,
      const CompileOptions& options);

  /// Compile a *clocked* circuit for multi-cycle batch evaluation
  /// (run_cycles).  Behavioural DFFs and latches become register slots:
  /// each Q is cut into a level-0 state source and its D/EN/RSTn cones are
  /// kept live as internal taps, so the remaining combinational program
  /// levelizes and optimizes exactly like `compile`.  `regs` adds external
  /// register loops (platform boundary registers) on top.  Register state
  /// lives in per-lane SoA planes beside the scratch; reset state is X for
  /// behavioural registers (bit-identical to a fresh event simulator) and
  /// each ExternalReg's declared value.
  ///
  /// Clocking contract (the implicit single clock domain): every DFF CLK
  /// net must be a primary input that no gate drives, must not appear in
  /// `in_nets` / `out_nets` / `regs`, and must feed nothing but DFF CLK
  /// pins.  run_cycles pulses all clock nets together once per cycle.
  /// Settled-cycle semantics — latch enables and async resets are evaluated
  /// on *settled* values, so combinational glitches that would transiently
  /// open a latch or dip a reset are not modelled (the event engine is the
  /// oracle for those).
  ///
  /// Failure modes (beyond `compile`'s): kFailedPrecondition for a
  /// C-element (state with no clock discipline), a clock-discipline
  /// violation (derived/gated clock, clock used as data), a register output
  /// with multiple drivers, a true combinational cycle, or a dynamic
  /// tri-state enable anywhere in the live cone.
  [[nodiscard]] static Result<CompiledEval> compile_sequential(
      const Circuit& circuit, std::vector<NetId> in_nets,
      std::vector<NetId> out_nets, std::vector<ExternalReg> regs = {},
      const LevelMap* levels = nullptr);
  /// As above, with explicit compile-time knobs (see CompileOptions).
  [[nodiscard]] static Result<CompiledEval> compile_sequential(
      const Circuit& circuit, std::vector<NetId> in_nets,
      std::vector<NetId> out_nets, std::vector<ExternalReg> regs,
      const LevelMap* levels, const CompileOptions& options);

  /// Compile a *mode-swept* combinational engine: one engine answering all
  /// M environment modes of a polymorphic design in a single `eval_modes`
  /// sweep.  `mode_overrides[m]` rewrites the base circuit's polymorphic
  /// gates into mode m's configuration view (see ModeOverride;
  /// `mode_overrides[0]` is normally empty — the base circuit is mode 0);
  /// each view is compiled through the full pipeline (folding, DCE,
  /// copy-prop, specialization) into its own instruction image, and the
  /// images share one engine so a sweep pays one compile and selects the
  /// per-mode opcodes by lane group.  The levelization is shared — kind
  /// overrides never change the gate graph's topology.
  ///
  /// The ordinary entry points (eval_wide/eval_packed) evaluate mode 0.
  /// Failure modes are `compile`'s, plus kInvalidArgument for an override
  /// that is out of range or changes a gate's pin shape, and
  /// kFailedPrecondition when any mode's view is outside the compiled
  /// subset (sequential polymorphic designs evaluate per-mode instead).
  [[nodiscard]] static Result<CompiledEval> compile_modal(
      const Circuit& circuit, std::vector<NetId> in_nets,
      std::vector<NetId> out_nets,
      std::span<const std::vector<ModeOverride>> mode_overrides,
      const LevelMap* levels = nullptr);
  /// As above, with explicit compile-time knobs (see CompileOptions).
  [[nodiscard]] static Result<CompiledEval> compile_modal(
      const Circuit& circuit, std::vector<NetId> in_nets,
      std::vector<NetId> out_nets,
      std::span<const std::vector<ModeOverride>> mode_overrides,
      const LevelMap* levels, const CompileOptions& options);

  [[nodiscard]] const char* name() const noexcept override {
    return "compiled-bitparallel";
  }
  [[nodiscard]] std::size_t input_count() const noexcept override;
  [[nodiscard]] std::size_t output_count() const noexcept override;
  [[nodiscard]] Status eval_packed(std::span<const PackedBits> inputs,
                                   std::span<PackedBits> outputs,
                                   int lanes = kBatchLanes) override;
  [[nodiscard]] Status eval_wide(std::span<const std::uint64_t> in_value,
                                 std::span<const std::uint64_t> in_unknown,
                                 std::span<std::uint64_t> out_value,
                                 std::span<std::uint64_t> out_unknown,
                                 std::size_t lanes) override;
  /// Multi-cycle batch kernel (compile_sequential programs; a combinational
  /// program runs too, committing nothing).  Per cycle: load the cycle's
  /// inputs, settle the program (iterating transparent latches and async
  /// resets to a fixpoint), sample outputs, then commit every clocked
  /// register simultaneously from its settled D (non-binary D captures X)
  /// and re-settle so post-edge state reaches still-open latches.  Cycles
  /// whose inputs and state carry no unknown bits ride the single-plane
  /// fast path.  `reset = false` (state carried across calls) requires the
  /// same `lanes` word width as the engine's scratch; a latch feedback
  /// arrangement that fails to reach a fixpoint fails with
  /// kResourceExhausted.
  [[nodiscard]] Status run_cycles(std::span<const std::uint64_t> in_value,
                                  std::span<const std::uint64_t> in_unknown,
                                  std::span<std::uint64_t> out_value,
                                  std::span<std::uint64_t> out_unknown,
                                  std::size_t cycles, std::size_t lanes,
                                  bool reset = true) override;
  [[nodiscard]] std::size_t preferred_words() const noexcept override;
  [[nodiscard]] std::unique_ptr<Evaluator> clone() const override;

  /// Environment modes this engine answers: 1 for `compile`d engines, M
  /// for `compile_modal` ones.
  [[nodiscard]] std::size_t mode_count() const noexcept;

  /// The mode sweep: evaluate `lanes_per_mode` vectors under *every*
  /// environment mode in one call.  The planes are mode-major lane
  /// groups: with `wpm = ceil(lanes_per_mode / kBatchLanes)` and
  /// `M = mode_count()`, input net i's mode-m stimulus occupies words
  /// `in_value[(i*M + m)*wpm .. +wpm-1]` (same span of `in_unknown`), and
  /// output net k's mode-m result likewise in the out planes — so span
  /// sizes are exactly `input_count()*M*wpm` / `output_count()*M*wpm`.
  /// Sweeping the same stimulus across modes means duplicating it into
  /// each mode group.  Each group is evaluated with that mode's
  /// instruction image (kernel passes never straddle a mode boundary);
  /// dead lanes of each group's final word are left 0/0.  Works on a
  /// single-mode engine as a plain eval_wide.
  [[nodiscard]] Status eval_modes(std::span<const std::uint64_t> in_value,
                                  std::span<const std::uint64_t> in_unknown,
                                  std::span<std::uint64_t> out_value,
                                  std::span<std::uint64_t> out_unknown,
                                  std::size_t lanes_per_mode);

  /// True when this engine was built by compile_sequential (run_cycles is
  /// the entry point; eval_wide / eval_packed reject the program).
  [[nodiscard]] bool sequential() const noexcept;
  /// Register slots in the program (behavioural + external), 0 when
  /// combinational.
  [[nodiscard]] std::size_t register_count() const noexcept;
  /// Restore every register's reset value (behavioural: X; external: its
  /// declared reset) at the current scratch width.  run_cycles with
  /// `reset = true` does this implicitly.
  void reset_state();

  /// Introspection for tests/benches: live instructions after constant
  /// folding, dead-code elimination, and copy-propagation, and the
  /// levelized depth.
  [[nodiscard]] std::size_t instruction_count() const noexcept;
  [[nodiscard]] std::uint32_t level_count() const noexcept;

  /// True when the compiled program is eligible for the two-valued
  /// single-plane fast path (CompileOptions::two_valued on, no live
  /// wired-resolution, no constant-unknown source in the live cone).
  /// Whether a given batch takes it additionally requires its inputs to
  /// carry no unknown bits.
  [[nodiscard]] bool fast_path_available() const noexcept;

  /// Snapshot of the pass counters across this engine and all its clones
  /// (shared by every clone of one compilation, so sharded runs aggregate
  /// naturally); the jit_* fields are 0.
  [[nodiscard]] KernelStats kernel_stats() const noexcept;

  /// The compiled instruction stream.  The definition is internal
  /// (sim/compiled_program.h) — only sim/*.cpp translation units see it;
  /// the name is public so the JIT backend's helpers can take it by
  /// reference.
  struct Program;

 private:
  /// The JIT backend (sim/jit.h) emits C from the same Program image this
  /// interpreter executes, and builds private interpreter instances from
  /// it for the bit-for-bit differential gate.
  friend class JitEval;
  explicit CompiledEval(std::shared_ptr<const Program> program);
  [[nodiscard]] static Result<std::shared_ptr<Program>> compile_impl(
      const Circuit& circuit, std::vector<NetId> in_nets,
      std::vector<NetId> out_nets, const LevelMap* levels,
      const CompileOptions& options);
  void ensure_scratch(std::size_t words);
  [[nodiscard]] bool settle_fixpoint(std::size_t nw, bool fast,
                                     std::size_t max_iters);

  std::shared_ptr<const Program> program_;
  std::vector<std::uint64_t> value_;    ///< SoA scratch: slot*words + w
  std::vector<std::uint64_t> unknown_;  ///< SoA scratch, unknown plane
  std::size_t scratch_words_ = 0;
  std::vector<std::uint64_t> shim_;     ///< eval_packed AoS<->SoA staging
  std::vector<std::uint64_t> seq_tmp_;  ///< simultaneous-commit staging
  /// Mode 1..M-1 instruction images of a compile_modal engine (mode 0 is
  /// this engine itself); each carries its own scratch, all share stats
  /// aggregation through kernel_stats().
  std::vector<std::unique_ptr<CompiledEval>> modal_;
  std::vector<std::uint64_t> mode_buf_;  ///< eval_modes subplane staging
};

/// The event-driven Simulator behind the Evaluator interface: lanes are
/// evaluated one at a time on a private simulator (cloned from the settled
/// base state, like Session::run_vectors' sharded path).  Always available
/// for any valid circuit; per-lane event budget guards oscillation.
class EventEval final : public Evaluator {
 public:
  /// Build the engine over a settled base simulator.  `regs` declares
  /// external register loops for run_cycles (ignored by the combinational
  /// entry points); when the circuit is clocked, creation also drives every
  /// DFF clock net to 0 and re-settles so the first rising edge registers.
  [[nodiscard]] static Result<EventEval> create(
      const Circuit& circuit, std::vector<NetId> in_nets,
      std::vector<NetId> out_nets,
      std::uint64_t max_events_per_vector = 2'000'000,
      std::vector<ExternalReg> regs = {});

  [[nodiscard]] const char* name() const noexcept override {
    return "event-driven";
  }
  [[nodiscard]] std::size_t input_count() const noexcept override {
    return in_nets_.size();
  }
  [[nodiscard]] std::size_t output_count() const noexcept override {
    return out_nets_.size();
  }
  [[nodiscard]] Status eval_packed(std::span<const PackedBits> inputs,
                                   std::span<PackedBits> outputs,
                                   int lanes = kBatchLanes) override;
  /// The multi-cycle differential oracle: each lane runs on a private copy
  /// of the settled base simulator, one settle per input change / clock
  /// phase, so glitch-accurate latch and async-reset behaviour is exact.
  /// Per cycle: drive the cycle's inputs (latch-enable-driving inputs
  /// first) and settle, sample outputs, then capture external-register D
  /// values, raise every clock together with the external Q pads, settle,
  /// and lower the clocks.  `reset` restarts every lane from the settled
  /// base (behavioural state X, external pads at their reset value);
  /// `reset = false` is unsupported here (lane simulators are not kept) and
  /// fails with kFailedPrecondition.
  [[nodiscard]] Status run_cycles(std::span<const std::uint64_t> in_value,
                                  std::span<const std::uint64_t> in_unknown,
                                  std::span<std::uint64_t> out_value,
                                  std::span<std::uint64_t> out_unknown,
                                  std::size_t cycles, std::size_t lanes,
                                  bool reset = true) override;
  [[nodiscard]] std::unique_ptr<Evaluator> clone() const override;

  /// Adjust the per-lane event budget (inherited by future clones).
  void set_max_events(std::uint64_t budget) noexcept { budget_ = budget; }

 private:
  EventEval(std::vector<NetId> in_nets, std::vector<NetId> out_nets,
            std::uint64_t budget);
  std::vector<NetId> in_nets_;
  std::vector<NetId> out_nets_;
  std::uint64_t budget_;
  std::optional<Simulator> sim_;
  const Circuit* circuit_ = nullptr;  ///< run_cycles clock validation
  std::vector<ExternalReg> regs_;     ///< external register loops (oracle)
  std::vector<NetId> clock_nets_;     ///< every DFF CLK net, deduplicated
  std::vector<std::size_t> en_first_; ///< input indexes, latch-EN drivers first
};

}  // namespace pp::sim
