// Internal representation of a CompiledEval program, shared between the
// interpreter (sim/evaluator.cpp) and the JIT backend (sim/jit.cpp).  The
// JIT walks the exact instruction stream the interpreter executes —
// including the slot layout, constant image, and register wiring — so the
// two backends can be differentially gated bit-for-bit against each other.
//
// This header is implementation detail: it is included only from sim/*.cpp
// translation units (the public surface stays sim/evaluator.h and
// sim/jit.h), and nothing here is ABI for generated kernels — the emitted
// C re-states the semantics in source form.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "sim/evaluator.h"
#include "sim/logic.h"

namespace pp::sim {

/// Meaningful lanes of plane word `word` when `lanes` lanes are live in
/// total (always full except possibly the final word).
[[nodiscard]] constexpr std::size_t lanes_in_word(std::size_t lanes,
                                                  std::size_t word) noexcept {
  const std::size_t lane0 = word * Evaluator::kBatchLanes;
  return std::min<std::size_t>(Evaluator::kBatchLanes, lanes - lane0);
}

/// Bit mask selecting the meaningful lanes of plane word `word`.
[[nodiscard]] constexpr std::uint64_t word_mask(std::size_t lanes,
                                                std::size_t word) noexcept {
  const std::size_t n = lanes_in_word(lanes, word);
  return n >= static_cast<std::size_t>(Evaluator::kBatchLanes)
             ? ~std::uint64_t{0}
             : (std::uint64_t{1} << n) - 1;
}

enum class Op : std::uint8_t {
  kBuf,
  kNot,
  // Variadic forms (nin operands via the operand table).
  kAnd,
  kNand,
  kOr,
  kNor,
  kXor,
  kXnor,
  // Fixed-arity specializations: the platform compiler decomposes to <= 3
  // inputs, so nearly every emitted gate lands on one of these.  The
  // kernels unroll them without the variadic operand loop.
  kAnd2,
  kNand2,
  kOr2,
  kNor2,
  kXor2,
  kXnor2,
  kAnd3,
  kNand3,
  kOr3,
  kNor3,
  kXor3,
  kXnor3,
  kResolve,  ///< wired-and over always-driving sources: agree or X
};

/// Fixed-arity variant of a variadic op, when one exists for this arity.
[[nodiscard]] inline Op specialize_arity(Op op, std::size_t nin) noexcept {
  if (nin == 2) {
    switch (op) {
      case Op::kAnd: return Op::kAnd2;
      case Op::kNand: return Op::kNand2;
      case Op::kOr: return Op::kOr2;
      case Op::kNor: return Op::kNor2;
      case Op::kXor: return Op::kXor2;
      case Op::kXnor: return Op::kXnor2;
      default: return op;
    }
  }
  if (nin == 3) {
    switch (op) {
      case Op::kAnd: return Op::kAnd3;
      case Op::kNand: return Op::kNand3;
      case Op::kOr: return Op::kOr3;
      case Op::kNor: return Op::kNor3;
      case Op::kXor: return Op::kXor3;
      case Op::kXnor: return Op::kXnor3;
      default: return op;
    }
  }
  return op;
}

struct Instr {
  Op op;
  std::uint32_t nin;
  std::uint32_t in_ofs;  ///< first operand index in Program::operands
  std::uint32_t out;     ///< destination slot
};

constexpr std::uint32_t kNoSlot = 0xffff'ffffu;

[[nodiscard]] inline PackedBits broadcast(Logic v) noexcept {
  switch (v) {
    case Logic::k0: return {0, 0};
    case Logic::k1: return {~std::uint64_t{0}, 0};
    case Logic::kZ:
    case Logic::kX: break;
  }
  return {0, ~std::uint64_t{0}};
}

/// One register slot of a sequential program.  `q_slot` is an input-class
/// scratch slot that no instruction writes — the per-lane state plane; the
/// `d_slot` / `ctl_slot` taps are bound as (internal) program outputs so
/// DCE keeps their cones and every optimization pass applies unchanged.
struct SeqReg {
  enum class Kind : std::uint8_t {
    kDff,       ///< behavioural DFF, no reset pin
    kDffRst,    ///< behavioural DFF with active-low async reset (ctl)
    kLatch,     ///< behavioural transparent-high latch (ctl = enable)
    kExternal,  ///< externally closed loop (ExternalReg; edge-committed)
  };
  std::uint32_t q_slot = 0;
  std::uint32_t d_slot = 0;
  std::uint32_t ctl_slot = kNoSlot;  ///< RSTn / EN tap, kNoSlot when absent
  Kind kind = Kind::kDff;
  PackedBits reset;  ///< broadcast state image at reset (behavioural: X)
};

/// The KernelStats counters an engine measures, as relaxed atomics (pure
/// statistics, one increment per >=64-lane pass).  One instance is shared
/// by every clone of a compilation or JIT build.
struct KernelCounters {
  std::atomic<std::uint64_t> fast_passes{0};
  std::atomic<std::uint64_t> slow_passes{0};
  std::atomic<std::uint64_t> cycles_run{0};
  std::atomic<std::uint64_t> state_commits{0};
  std::atomic<std::uint64_t> fast_cycle_passes{0};

  [[nodiscard]] KernelStats load() const noexcept {
    constexpr auto kRelaxed = std::memory_order_relaxed;
    return {.fast_passes = fast_passes.load(kRelaxed),
            .slow_passes = slow_passes.load(kRelaxed),
            .cycles_run = cycles_run.load(kRelaxed),
            .state_commits = state_commits.load(kRelaxed),
            .fast_cycle_passes = fast_cycle_passes.load(kRelaxed)};
  }
};

struct CompiledEval::Program {
  std::vector<Instr> instrs;
  std::vector<std::uint32_t> operands;
  std::vector<PackedBits> init;          ///< initial slot image (constants)
  std::vector<std::uint32_t> in_slots;   ///< per bound input net
  std::vector<std::uint32_t> out_slots;  ///< per bound output net
  /// Slots no instruction or input load ever writes — the constants whose
  /// init image must be re-broadcast when the scratch stride changes.
  std::vector<std::uint32_t> const_slots;
  std::uint32_t levels = 0;
  int wide_words = kDefaultWideWords;  ///< scratch width W (words per slot)
  bool fast_path_ok = false;  ///< single-plane kernel exact for known inputs
  // Sequential extension (compile_sequential).  in_slots/out_slots carry
  // the register state slots and D/EN/RSTn taps after the public bindings;
  // n_public_in/out are what input_count()/output_count() report.
  std::vector<SeqReg> regs;
  std::uint32_t n_public_in = 0;
  std::uint32_t n_public_out = 0;
  bool is_sequential = false;  ///< built by compile_sequential
  bool has_settle_regs = false;  ///< any latch / resettable DFF (fixpoint)
  std::uint32_t n_edge_regs = 0;  ///< registers committed at the clock edge
  mutable KernelCounters counters;  ///< shared by every clone
};

}  // namespace pp::sim
