// JIT-compiled evaluation kernels: emit the levelized CompiledEval program
// as a self-contained C translation unit, compile it out-of-process with
// the host C compiler, dlopen the shared object, and serve it behind the
// same sim::Evaluator interface as the interpreter.
//
// Why this exists: the interpreter (sim/evaluator.cpp) already runs SoA
// plane words through per-opcode loops, but every instruction still pays a
// dispatch (switch on Op, operand-table indirection, runtime stride).  The
// generated kernel eliminates all of it — one straight-line function per
// program, every slot offset a compile-time constant, the W-word inner
// loops fully visible to the host compiler's vectorizer.  This is the
// Verilator move: the fabric's levelized netlist *is* the program, so
// compile it like one.
//
// Trust model.  A generated kernel is never trusted by construction:
//  * every freshly built or cache-loaded kernel is differentially gated
//    bit-for-bit (value and unknown planes, partial-tail lanes) against a
//    private interpreter over the same Program before `build` returns it;
//  * cache entries carry the program digest, the .so byte CRC and size in
//    a sidecar; a truncated, bit-flipped, or hash-colliding stale entry
//    fails closed — the entry is evicted and rebuilt from source;
//  * a missing host compiler degrades cleanly: `build` returns a Status
//    (kUnavailable) and callers keep serving on the interpreter.
//
// The cache directory is shared: entries are written to a temp name and
// atomically renamed into place (the .meta sidecar last, as the commit
// marker), so concurrent devices — or concurrent processes — race
// benignly toward one shared kernel per program.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/evaluator.h"
#include "util/status.h"

namespace pp::sim {

/// Build-time knobs for JitEval::build.  The defaults are the production
/// configuration: host `cc`, a shared per-user cache directory, and the
/// differential verification gate on.
struct JitOptions {
  /// Compiler command (split on whitespace; `{"cc"}` semantics).  Empty
  /// selects $PP_JIT_CC when set, else "cc".  The identity reported by
  /// `<cc> --version` participates in the cache key, so switching
  /// compilers never aliases cached kernels.
  std::string cc;
  /// Kernel cache directory.  Empty selects $PP_JIT_CACHE when set, else
  /// `$TMPDIR/pp-jit-cache` (or /tmp).  Created on demand.
  std::string cache_dir;
  /// Extra flags appended after the fixed `-O2 -shared -fPIC` set (also
  /// part of the cache key).
  std::string extra_cflags;
  /// Differentially gate the kernel against a private interpreter before
  /// trusting it (combinational, sequential, and modal stimulus incl.
  /// X/Z and partial-tail lanes).  Leave on outside of benchmarks.
  bool verify = true;
  /// Keep the generated .c beside the cached .so for debugging.
  bool keep_source = false;
  /// Refuse programs above this instruction count (per mode image): the
  /// generated TU grows linearly and host-compiler time super-linearly,
  /// and past this size the interpreter is the better engine anyway.
  std::size_t max_instructions = 65536;
};

/// How a JitEval acquired its kernel — surfaced for stats threading
/// (ExecutorStats::jit_compiles / jit_cache_hits) and cache tests.
struct JitBuildInfo {
  bool cache_hit = false;  ///< every mode image came from the disk cache
  bool compiled = false;   ///< at least one mode image invoked the compiler
  bool evicted = false;    ///< a corrupt/stale cache entry was evicted
  std::string key;         ///< cache key of the mode-0 image
  std::string so_path;     ///< cached .so of the mode-0 image
  std::string compiler;    ///< resolved compiler identity line
};

struct JitKernel;       // one dlopened mode image (shared across clones)
struct KernelCounters;  // pass counters (shared across clones)

/// The generated-code backend.  One JitEval wraps one CompiledEval
/// program set (mode 0 plus modal images), each served by a dlopened
/// kernel at the program's fixed scratch width W.  Instances are
/// single-threaded like every Evaluator; clones share the immutable
/// kernel modules (and pass counters) and carry only their own scratch,
/// so per-thread sharding stays cheap.  The dlopened module is reference
/// counted across clones and closed exactly once.
class JitEval final : public Evaluator {
 public:
  /// Generate, compile (or cache-load), dlopen, validate, and
  /// differentially gate a kernel set for `base`'s program.  `base` is
  /// only read — it keeps serving traffic while this runs (typically on a
  /// warm-up thread).
  ///
  /// Failure modes:
  ///  * kUnavailable        — no working host compiler, or the program is
  ///                          too large for JIT (see JitOptions);
  ///  * kInternal           — the toolchain produced a kernel that failed
  ///                          validation or the differential gate (the
  ///                          cache entry is evicted, never served);
  ///  * filesystem Statuses — cache directory not creatable/writable.
  [[nodiscard]] static Result<JitEval> build(const CompiledEval& base,
                                             const JitOptions& options = {});

  [[nodiscard]] const char* name() const noexcept override {
    return "jit-native";
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
  /// Multi-cycle batch entry point, same contract as
  /// CompiledEval::run_cycles: the settle/commit control flow runs here in
  /// C++ (bit-identical to the interpreter's), only the combinational
  /// kernel passes are generated code.
  [[nodiscard]] Status run_cycles(std::span<const std::uint64_t> in_value,
                                  std::span<const std::uint64_t> in_unknown,
                                  std::span<std::uint64_t> out_value,
                                  std::span<std::uint64_t> out_unknown,
                                  std::size_t cycles, std::size_t lanes,
                                  bool reset = true) override;
  [[nodiscard]] std::size_t preferred_words() const noexcept override;
  [[nodiscard]] std::unique_ptr<Evaluator> clone() const override;

  /// Mode sweep over the generated images, same contract as
  /// CompiledEval::eval_modes (mode-major lane groups).
  [[nodiscard]] Status eval_modes(std::span<const std::uint64_t> in_value,
                                  std::span<const std::uint64_t> in_unknown,
                                  std::span<std::uint64_t> out_value,
                                  std::span<std::uint64_t> out_unknown,
                                  std::size_t lanes_per_mode);

  /// Environment modes served (1 unless built from a modal engine).
  [[nodiscard]] std::size_t mode_count() const noexcept;
  /// True when built from a compile_sequential program (run_cycles is the
  /// entry point).
  [[nodiscard]] bool sequential() const noexcept;
  /// Restore every register to its reset image (run_cycles with
  /// reset=true does this implicitly).
  void reset_state();

  /// Kernel pass accounting, shared by every clone of one build, in the
  /// interpreter's KernelStats schema so an executor sums the two engines
  /// with `+=`.  Every pass here is generated code, so jit_passes is the
  /// sum of the wide passes and clocked cycles; the build and routing
  /// counters (jit_compiles, jit_cache_hits, jit_fallbacks) are 0.
  [[nodiscard]] KernelStats kernel_stats() const noexcept;

  /// How this kernel set was acquired (cache hit vs fresh compile).
  [[nodiscard]] const JitBuildInfo& build_info() const noexcept {
    return *info_;
  }

 private:
  JitEval(std::vector<std::shared_ptr<const JitKernel>> kernels,
          std::shared_ptr<const JitBuildInfo> info,
          std::shared_ptr<KernelCounters> stats);

  [[nodiscard]] Status eval_wide_mode(std::size_t mode,
                                      std::span<const std::uint64_t> in_value,
                                      std::span<const std::uint64_t> in_unknown,
                                      std::span<std::uint64_t> out_value,
                                      std::span<std::uint64_t> out_unknown,
                                      std::size_t lanes);
  [[nodiscard]] bool settle_fixpoint(std::size_t nw, bool fast,
                                     std::size_t max_iters);

  std::vector<std::shared_ptr<const JitKernel>> kernels_;  ///< [0] = mode 0
  std::shared_ptr<const JitBuildInfo> info_;
  std::shared_ptr<KernelCounters> stats_;
  /// Per-mode SoA scratch at fixed stride W (constants pre-broadcast).
  std::vector<std::vector<std::uint64_t>> value_, unknown_;
  std::vector<std::uint64_t> shim_;     ///< eval_packed AoS<->SoA staging
  std::vector<std::uint64_t> seq_tmp_;  ///< simultaneous-commit staging
  std::vector<std::uint64_t> mode_buf_; ///< eval_modes subplane staging
  /// Live stride of the last run_cycles pass group — the reset=false
  /// carried-state width check, mirroring the interpreter's
  /// scratch_words_.
  std::size_t seq_words_ = 0;
};

}  // namespace pp::sim
