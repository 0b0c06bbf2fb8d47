#include "sim/evaluator.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <utility>

#include "sim/compiled_program.h"

namespace pp::sim {

namespace {

/// "eval_*: lanes must be 1..N" with N derived from the batch constant.
[[nodiscard]] std::string lanes_range_message(const char* fn) {
  return std::string(fn) + ": lanes must be 1.." +
         std::to_string(Evaluator::kBatchLanes);
}

/// Shared span-shape validation for eval_wide implementations.
[[nodiscard]] Status check_wide_shape(std::size_t nin, std::size_t nout,
                                      std::size_t in_value, std::size_t in_unknown,
                                      std::size_t out_value,
                                      std::size_t out_unknown,
                                      std::size_t lanes, std::size_t& words) {
  if (lanes < 1)
    return Status::invalid_argument("eval_wide: lanes must be >= 1");
  words = (lanes + Evaluator::kBatchLanes - 1) / Evaluator::kBatchLanes;
  if (in_value != nin * words || in_unknown != nin * words ||
      out_value != nout * words || out_unknown != nout * words)
    return Status::invalid_argument(
        "eval_wide: " + std::to_string(lanes) + " lanes span " +
        std::to_string(words) + " words, so expected " +
        std::to_string(nin * words) + " input and " +
        std::to_string(nout * words) +
        " output plane words per plane (value/unknown)");
  return Status();
}

}  // namespace

// ---------------------------------------------------------------------------
// Evaluator: base wide-batch adapter
// ---------------------------------------------------------------------------

Status Evaluator::eval_wide(std::span<const std::uint64_t> in_value,
                            std::span<const std::uint64_t> in_unknown,
                            std::span<std::uint64_t> out_value,
                            std::span<std::uint64_t> out_unknown,
                            std::size_t lanes) {
  const std::size_t nin = input_count();
  const std::size_t nout = output_count();
  std::size_t words = 0;
  if (Status s = check_wide_shape(nin, nout, in_value.size(), in_unknown.size(),
                                  out_value.size(), out_unknown.size(), lanes,
                                  words);
      !s.ok())
    return s;
  // Word-at-a-time adapter over eval_packed: correct for any engine, and
  // exactly the lane-at-a-time behaviour EventEval wants behind the wide
  // interface.
  std::vector<PackedBits> in(nin), out(nout);
  for (std::size_t w = 0; w < words; ++w) {
    for (std::size_t i = 0; i < nin; ++i)
      in[i] = {in_value[i * words + w], in_unknown[i * words + w]};
    if (Status s =
            eval_packed(in, out, static_cast<int>(lanes_in_word(lanes, w)));
        !s.ok())
      return s;
    for (std::size_t k = 0; k < nout; ++k) {
      out_value[k * words + w] = out[k].value;
      out_unknown[k * words + w] = out[k].unknown;
    }
  }
  return Status();
}

Status Evaluator::run_cycles(std::span<const std::uint64_t> /*in_value*/,
                             std::span<const std::uint64_t> /*in_unknown*/,
                             std::span<std::uint64_t> /*out_value*/,
                             std::span<std::uint64_t> /*out_unknown*/,
                             std::size_t /*cycles*/, std::size_t /*lanes*/,
                             bool /*reset*/) {
  return Status::failed_precondition(
      std::string("run_cycles: engine '") + name() +
      "' has no sequential entry point");
}

// ---------------------------------------------------------------------------
// Levelization
// ---------------------------------------------------------------------------

namespace {

[[nodiscard]] std::string net_label(const Circuit& c, NetId n) {
  const std::string& name = c.net_name(n);
  std::string label;
  if (name.empty()) {
    label = '#' + std::to_string(n);
  } else {
    label.reserve(name.size() + 2);
    label += '\'';
    label += name;
    label += '\'';
  }
  return label;
}

}  // namespace

Result<LevelMap> levelize(const Circuit& circuit) {
  const std::size_t ngates = circuit.gate_count();
  const std::size_t nnets = circuit.net_count();

  // net -> driving gates (several when 3-state drivers share the net) and
  // net -> reading gates (one entry per reading pin).
  std::vector<std::vector<GateId>> drivers(nnets);
  for (GateId g = 0; g < ngates; ++g)
    drivers[circuit.gate(g).output].push_back(g);
  std::vector<std::vector<GateId>> readers(nnets);
  std::vector<std::uint32_t> indegree(ngates, 0);
  for (GateId g = 0; g < ngates; ++g)
    for (NetId in : circuit.gate(g).inputs) {
      readers[in].push_back(g);
      indegree[g] += static_cast<std::uint32_t>(drivers[in].size());
    }

  // Kahn's algorithm over driver->reader edges.  A gate's level is one above
  // its deepest input driver, so the FIFO pop order is already topological.
  LevelMap lm;
  lm.gate_level.assign(ngates, 0);
  lm.order.reserve(ngates);
  std::vector<GateId> ready;
  for (GateId g = 0; g < ngates; ++g)
    if (indegree[g] == 0) ready.push_back(g);
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const GateId g = ready[head];
    lm.order.push_back(g);
    std::uint32_t level = 0;
    for (NetId in : circuit.gate(g).inputs)
      for (GateId d : drivers[in])
        level = std::max(level, lm.gate_level[d] + 1);
    lm.gate_level[g] = level;
    lm.max_level = std::max(lm.max_level, level);
    for (GateId r : readers[circuit.gate(g).output])
      if (--indegree[r] == 0) ready.push_back(r);
  }

  if (lm.order.size() != ngates) {
    // Diagnose the cycle: re-run the sort with every edge *out of* a
    // state-holding gate (DFF/latch/C-element) removed.  If that completes,
    // every loop closes only at a register output — a clocked design, not a
    // combinational cycle — and the caller should reach for the sequential
    // compiled engine (or the event engine) instead.  If it still stalls,
    // the netlist has a genuine combinational cycle.
    const auto is_state_gate = [&](GateId g) {
      const GateKind k = circuit.gate(g).kind;
      return k == GateKind::kDff || k == GateKind::kLatch ||
             k == GateKind::kCElement;
    };
    std::vector<std::uint32_t> cut_indegree(ngates, 0);
    for (GateId g = 0; g < ngates; ++g)
      for (NetId in : circuit.gate(g).inputs)
        for (GateId d : drivers[in])
          if (!is_state_gate(d)) ++cut_indegree[g];
    std::vector<GateId> cut_ready;
    for (GateId g = 0; g < ngates; ++g)
      if (cut_indegree[g] == 0) cut_ready.push_back(g);
    for (std::size_t head = 0; head < cut_ready.size(); ++head) {
      const GateId g = cut_ready[head];
      if (is_state_gate(g)) continue;  // its out-edges were never counted
      for (GateId r : readers[circuit.gate(g).output])
        if (--cut_indegree[r] == 0) cut_ready.push_back(r);
    }
    if (cut_ready.size() == ngates) {
      for (GateId g = 0; g < ngates; ++g)
        if (indegree[g] != 0 && is_state_gate(g))
          return Status::failed_precondition(
              "levelize: sequential feedback loop through register output "
              "net " +
              net_label(circuit, circuit.gate(g).output) +
              " — every cycle closes at a state-holding gate "
              "(DFF/latch/C-element), so this is a clocked design; use "
              "CompiledEval::compile_sequential or the event-driven engine");
      // Unreachable in practice (a register-broken stall always leaves a
      // state gate stuck), but keep a diagnostic rather than fall through.
      for (GateId g = 0; g < ngates; ++g)
        if (indegree[g] != 0)
          return Status::failed_precondition(
              "levelize: sequential feedback loop through net " +
              net_label(circuit, circuit.gate(g).output));
    }
    for (GateId g = 0; g < ngates; ++g)
      if (cut_indegree[g] != 0)
        return Status::failed_precondition(
            "levelize: true combinational cycle through net " +
            net_label(circuit, circuit.gate(g).output) +
            " — no register breaks the loop, so only the event-driven "
            "engine can evaluate it");
  }
  return lm;
}

// ---------------------------------------------------------------------------
// CompiledEval
// ---------------------------------------------------------------------------

namespace {

/// Scalar settled value of a non-3-state combinational gate, mirroring
/// Simulator::compute_gate exactly (Z inputs behave as X).
[[nodiscard]] Logic fold_gate(GateKind kind, std::span<const Logic> ins) {
  switch (kind) {
    case GateKind::kNand: return nand_of(ins);
    case GateKind::kAnd: return and_of(ins);
    case GateKind::kOr: return or_of(ins);
    case GateKind::kNor: return not_of(or_of(ins));
    case GateKind::kXor: return xor_of(ins);
    case GateKind::kXnor: return not_of(xor_of(ins));
    case GateKind::kNot: return not_of(ins[0]);
    case GateKind::kBuf:
    case GateKind::kDelay: return is_binary(ins[0]) ? ins[0] : Logic::kX;
    case GateKind::kConst0: return Logic::k0;
    case GateKind::kConst1: return Logic::k1;
    default: return Logic::kX;
  }
}

/// True when `lm` verifiably belongs to this circuit: `order` is a
/// permutation of all gates in which every driver of every input net of a
/// gate precedes that gate (the invariant the classification pass depends
/// on), and `gate_level`/`max_level` match what that order implies.  Guards
/// against a stale LevelMap (e.g. recorded for a differently configured
/// fabric of the same size).
[[nodiscard]] bool levels_fit_circuit(
    const Circuit& c, const std::vector<std::vector<GateId>>& drivers,
    const LevelMap& lm) {
  const std::size_t ngates = c.gate_count();
  if (lm.gate_level.size() != ngates || lm.order.size() != ngates)
    return false;
  std::vector<char> done(ngates, 0);
  std::uint32_t max_seen = 0;
  for (GateId g : lm.order) {
    if (g >= ngates || done[g]) return false;
    std::uint32_t level = 0;
    for (NetId in : c.gate(g).inputs)
      for (GateId d : drivers[in]) {
        if (!done[d]) return false;
        level = std::max(level, lm.gate_level[d] + 1);
      }
    if (lm.gate_level[g] != level) return false;
    max_seen = std::max(max_seen, level);
    done[g] = 1;
  }
  return max_seen == lm.max_level;
}

[[nodiscard]] Op op_for(GateKind kind) {
  switch (kind) {
    case GateKind::kNand: return Op::kNand;
    case GateKind::kAnd: return Op::kAnd;
    case GateKind::kOr: return Op::kOr;
    case GateKind::kNor: return Op::kNor;
    case GateKind::kXor: return Op::kXor;
    case GateKind::kXnor: return Op::kXnor;
    case GateKind::kNot: return Op::kNot;
    default: return Op::kBuf;  // kBuf / kDelay (transport delay is identity
                               // once settled)
  }
}

/// Whether a one-input gate of this op complements its input: NOT, NAND,
/// NOR and XNOR do; BUF, AND, OR and XOR pass it through.
[[nodiscard]] bool inverts(Op op) {
  return op == Op::kNot || op == Op::kNand || op == Op::kNor ||
         op == Op::kXnor;
}

}  // namespace

// Op / Instr / SeqReg / CompiledEval::Program moved to
// sim/compiled_program.h so the JIT backend (sim/jit.cpp) can walk the
// same instruction stream this interpreter executes.

namespace {

/// Level-major slot renumbering: slots are renamed in first-use order of
/// the emitted program (inputs, then each instruction's operands and
/// destination, then the outputs), so consecutive instructions touch
/// nearby scratch and slots orphaned by copy-propagation are dropped.
/// Mutates every slot reference in place; `init` shrinks to the live set.
void renumber_slots(std::vector<Instr>& instrs,
                    std::vector<std::uint32_t>& operands,
                    std::vector<PackedBits>& init,
                    std::vector<std::uint32_t>& in_slots,
                    std::vector<std::uint32_t>& out_slots) {
  std::vector<std::uint32_t> remap(init.size(), kNoSlot);
  std::vector<PackedBits> packed;
  packed.reserve(init.size());
  auto touch = [&](std::uint32_t s) {
    if (remap[s] == kNoSlot) {
      remap[s] = static_cast<std::uint32_t>(packed.size());
      packed.push_back(init[s]);
    }
    return remap[s];
  };
  for (std::uint32_t& s : in_slots) s = touch(s);
  for (Instr& it : instrs) {
    for (std::uint32_t j = 0; j < it.nin; ++j) {
      std::uint32_t& o = operands[it.in_ofs + j];
      o = touch(o);
    }
    it.out = touch(it.out);
  }
  for (std::uint32_t& s : out_slots) s = touch(s);
  init = std::move(packed);
}

}  // namespace

CompiledEval::CompiledEval(std::shared_ptr<const Program> program)
    : program_(std::move(program)) {
  // Capacity is fixed at W words per slot for the engine's lifetime; only
  // the live stride (scratch_words_) changes between passes.
  const auto W = static_cast<std::size_t>(program_->wide_words);
  value_.assign(program_->init.size() * W, 0);
  unknown_.assign(program_->init.size() * W, 0);
  ensure_scratch(W);
  // A fresh engine (clones included) starts with every register at its
  // reset value — the same contract as a fresh event simulator.
  if (!program_->regs.empty()) reset_state();
}

void CompiledEval::ensure_scratch(std::size_t words) {
  if (scratch_words_ == words) return;
  scratch_words_ = words;
  // A stride switch (a partial final pass, or eval_packed after a wide
  // call) only needs the constant slots re-broadcast at the new stride:
  // every other slot is written — at this stride — before it is read in
  // every pass, so no zeroing or reallocation happens on the hot path.
  for (const std::uint32_t s : program_->const_slots) {
    const PackedBits p = program_->init[s];
    for (std::size_t w = 0; w < words; ++w) {
      value_[std::size_t{s} * words + w] = p.value;
      unknown_[std::size_t{s} * words + w] = p.unknown;
    }
  }
}

std::size_t CompiledEval::input_count() const noexcept {
  return program_->n_public_in;
}
std::size_t CompiledEval::output_count() const noexcept {
  return program_->n_public_out;
}
std::size_t CompiledEval::instruction_count() const noexcept {
  return program_->instrs.size();
}
std::uint32_t CompiledEval::level_count() const noexcept {
  return program_->levels;
}
bool CompiledEval::sequential() const noexcept {
  return program_->is_sequential;
}
std::size_t CompiledEval::register_count() const noexcept {
  return program_->regs.size();
}

void CompiledEval::reset_state() {
  const Program& p = *program_;
  const std::size_t nw = scratch_words_;
  for (const SeqReg& r : p.regs) {
    std::uint64_t* qv = value_.data() + std::size_t{r.q_slot} * nw;
    std::uint64_t* qu = unknown_.data() + std::size_t{r.q_slot} * nw;
    for (std::size_t w = 0; w < nw; ++w) {
      qv[w] = r.reset.value;
      qu[w] = r.reset.unknown;
    }
  }
}

std::unique_ptr<Evaluator> CompiledEval::clone() const {
  auto copy = std::unique_ptr<CompiledEval>(new CompiledEval(program_));
  copy->modal_.reserve(modal_.size());
  for (const auto& sub : modal_)
    copy->modal_.emplace_back(new CompiledEval(sub->program_));
  return copy;
}

std::size_t CompiledEval::mode_count() const noexcept {
  return 1 + modal_.size();
}

Result<CompiledEval> CompiledEval::compile(const Circuit& circuit,
                                           std::vector<NetId> in_nets,
                                           std::vector<NetId> out_nets,
                                           const LevelMap* levels) {
  return compile(circuit, std::move(in_nets), std::move(out_nets), levels,
                 CompileOptions{});
}

Result<CompiledEval> CompiledEval::compile(const Circuit& circuit,
                                           std::vector<NetId> in_nets,
                                           std::vector<NetId> out_nets,
                                           const LevelMap* levels,
                                           const CompileOptions& options) {
  auto program = compile_impl(circuit, std::move(in_nets), std::move(out_nets),
                              levels, options);
  if (!program.ok()) return program.status();
  return CompiledEval(std::move(*program));
}

Result<CompiledEval> CompiledEval::compile_modal(
    const Circuit& circuit, std::vector<NetId> in_nets,
    std::vector<NetId> out_nets,
    std::span<const std::vector<ModeOverride>> mode_overrides,
    const LevelMap* levels) {
  return compile_modal(circuit, std::move(in_nets), std::move(out_nets),
                       mode_overrides, levels, CompileOptions{});
}

Result<CompiledEval> CompiledEval::compile_modal(
    const Circuit& circuit, std::vector<NetId> in_nets,
    std::vector<NetId> out_nets,
    std::span<const std::vector<ModeOverride>> mode_overrides,
    const LevelMap* levels, const CompileOptions& options) {
  if (mode_overrides.empty())
    return Status::invalid_argument("compile_modal: no modes");
  // Each mode's configuration view is the base circuit with its
  // polymorphic gates re-personalized; kind overrides keep the gate graph
  // (and therefore the levelization) intact, so every view compiles
  // through the full pipeline against the same topology and the images
  // differ only where the modes genuinely diverge after optimization.
  std::vector<std::shared_ptr<const Program>> programs;
  programs.reserve(mode_overrides.size());
  for (std::size_t m = 0; m < mode_overrides.size(); ++m) {
    Circuit view = circuit;
    for (const ModeOverride& o : mode_overrides[m])
      if (!view.set_gate_kind(o.gate, o.kind))
        return Status::invalid_argument(
            "compile_modal: mode " + std::to_string(m) +
            " override of gate " + std::to_string(o.gate) +
            " is out of range or changes the pin shape");
    auto program = compile_impl(view, in_nets, out_nets, levels, options);
    if (!program.ok())
      return Status(program.status().code(),
                    "compile_modal: mode " + std::to_string(m) + ": " +
                        program.status().message());
    if ((*program)->is_sequential)
      return Status::failed_precondition(
          "compile_modal: sequential programs sweep per-mode, not by lane "
          "group");
    programs.push_back(std::move(*program));
  }
  CompiledEval engine(std::move(programs.front()));
  engine.modal_.reserve(programs.size() - 1);
  for (std::size_t m = 1; m < programs.size(); ++m)
    engine.modal_.emplace_back(new CompiledEval(std::move(programs[m])));
  return engine;
}

Status CompiledEval::eval_modes(std::span<const std::uint64_t> in_value,
                                std::span<const std::uint64_t> in_unknown,
                                std::span<std::uint64_t> out_value,
                                std::span<std::uint64_t> out_unknown,
                                std::size_t lanes_per_mode) {
  const std::size_t modes = mode_count();
  if (modes == 1)
    return eval_wide(in_value, in_unknown, out_value, out_unknown,
                     lanes_per_mode);
  const std::size_t nin = program_->in_slots.size();
  const std::size_t nout = program_->out_slots.size();
  if (lanes_per_mode == 0)
    return Status::invalid_argument("eval_modes: lanes_per_mode must be >= 1");
  const std::size_t wpm =
      (lanes_per_mode + kBatchLanes - 1) / kBatchLanes;
  if (in_value.size() != nin * modes * wpm ||
      in_unknown.size() != nin * modes * wpm ||
      out_value.size() != nout * modes * wpm ||
      out_unknown.size() != nout * modes * wpm)
    return Status::invalid_argument(
        "eval_modes: plane spans must be exactly nets * modes * " +
        std::to_string(wpm) + " words (mode-major lane groups)");

  // Per-mode staging: gather each mode's lane group into the contiguous
  // layout eval_wide expects, run that mode's image, scatter the results
  // back.  The copies are a few words per net — noise against the kernel
  // passes — and keep every image's pass structure (fast-path choice, dead
  // -lane masking) exactly what a standalone engine would do.
  mode_buf_.resize(2 * (nin + nout) * wpm);
  std::uint64_t* iv = mode_buf_.data();
  std::uint64_t* iu = iv + nin * wpm;
  std::uint64_t* ov = iu + nin * wpm;
  std::uint64_t* ou = ov + nout * wpm;
  for (std::size_t m = 0; m < modes; ++m) {
    CompiledEval* engine = m == 0 ? this : modal_[m - 1].get();
    for (std::size_t i = 0; i < nin; ++i)
      for (std::size_t w = 0; w < wpm; ++w) {
        iv[i * wpm + w] = in_value[(i * modes + m) * wpm + w];
        iu[i * wpm + w] = in_unknown[(i * modes + m) * wpm + w];
      }
    if (Status s = engine->eval_wide({iv, nin * wpm}, {iu, nin * wpm},
                                     {ov, nout * wpm}, {ou, nout * wpm},
                                     lanes_per_mode);
        !s.ok())
      return Status(s.code(),
                    "eval_modes: mode " + std::to_string(m) + ": " +
                        s.message());
    for (std::size_t k = 0; k < nout; ++k)
      for (std::size_t w = 0; w < wpm; ++w) {
        out_value[(k * modes + m) * wpm + w] = ov[k * wpm + w];
        out_unknown[(k * modes + m) * wpm + w] = ou[k * wpm + w];
      }
  }
  return Status();
}

Result<std::shared_ptr<CompiledEval::Program>> CompiledEval::compile_impl(
    const Circuit& circuit, std::vector<NetId> in_nets,
    std::vector<NetId> out_nets, const LevelMap* levels,
    const CompileOptions& options) {
  if (options.wide_words < 1)
    return Status::invalid_argument(
        "CompiledEval: wide_words must be >= 1, got " +
        std::to_string(options.wide_words));
  if (const std::string diag = circuit.validate(); !diag.empty())
    return Status::invalid_argument("CompiledEval: invalid circuit:\n" + diag);

  const std::size_t ngates = circuit.gate_count();
  const std::size_t nnets = circuit.net_count();

  for (GateId g = 0; g < ngates; ++g) {
    const GateKind k = circuit.gate(g).kind;
    if (k == GateKind::kDff || k == GateKind::kLatch ||
        k == GateKind::kCElement)
      return Status::failed_precondition(
          std::string("CompiledEval: behavioural state-holding gate (") +
          gate_kind_name(k) + ") needs the event-driven engine");
  }

  std::vector<std::vector<GateId>> drivers(nnets);
  for (GateId g = 0; g < ngates; ++g)
    drivers[circuit.gate(g).output].push_back(g);

  // Levelize, reusing the caller's metadata only when it verifiably fits
  // *this* circuit (the check is O(pins), far cheaper than the sort it
  // skips); anything stale falls back to a fresh levelization, so a reused
  // map can never bypass cycle rejection or break the topo-order invariant
  // the classification pass depends on.
  LevelMap computed;
  const LevelMap* lm = nullptr;
  if (levels && levels_fit_circuit(circuit, drivers, *levels)) {
    lm = levels;
  } else {
    auto lv = levelize(circuit);
    if (!lv.ok()) return lv.status();
    computed = std::move(*lv);
    lm = &computed;
  }

  // Bound-net checks.  Externally driven nets must be pure attachment
  // points: a gate driver alongside the external slot would resolve against
  // a possibly-floating (Z) external value, which two planes cannot express.
  std::vector<char> ext(nnets, 0);
  for (NetId n : in_nets) {
    if (n >= nnets)
      return Status::invalid_argument("CompiledEval: input net out of range");
    if (!circuit.is_input(n))
      return Status::invalid_argument("CompiledEval: net " +
                                      net_label(circuit, n) +
                                      " is not a primary input");
    if (!drivers[n].empty())
      return Status::failed_precondition(
          "CompiledEval: bound input net " + net_label(circuit, n) +
          " is also gate-driven (external/driver resolution)");
    ext[n] = 1;
  }
  for (NetId n : out_nets)
    if (n >= nnets)
      return Status::invalid_argument("CompiledEval: output net out of range");

  // --- Pass A: classify every gate and net in topological order. ----------
  // A gate/net is either a compile-time constant (configuration structure:
  // const rows, released or always-on 3-state drivers, undriven lines) or
  // varying (depends on bound inputs).  Constant folding here is what turns
  // the elaborated fabric's 3-state abutment forest into plain logic.
  struct GateRec {
    bool varying = false;
    Logic cval = Logic::kZ;      // settled driver value when !varying
    Op op = Op::kBuf;            // when varying
    std::vector<NetId> srcs;     // nets read when varying
    std::uint32_t slot = kNoSlot;  // destination slot once emitted
    bool inv = false;            // reads as the complement of `slot`
    bool needed = false;
  };
  struct NetRec {
    bool finalized = false;
    bool varying = false;
    Logic cval = Logic::kZ;           // settled value when !varying
    Logic cpart = Logic::kZ;          // constant resolution participant
    std::vector<GateId> vdrivers;     // varying drivers
    std::uint32_t slot = kNoSlot;
    bool inv = false;                 // reads as the complement of `slot`
    bool needed = false;
  };
  std::vector<GateRec> grec(ngates);
  std::vector<NetRec> nrec(nnets);

  // All of a net's drivers precede any reader in topo order, so a net can be
  // finalized the first time a reader (or the output binding) looks at it.
  auto finalize_net = [&](NetId n) -> NetRec& {
    NetRec& r = nrec[n];
    if (r.finalized) return r;
    r.finalized = true;
    if (ext[n]) {
      r.varying = true;
      return r;
    }
    Logic cpart = Logic::kZ;
    for (GateId d : drivers[n]) {
      if (grec[d].varying) r.vdrivers.push_back(d);
      else cpart = resolve(cpart, grec[d].cval);
    }
    if (cpart == Logic::kX || r.vdrivers.empty()) {
      // X from constant contention dominates any varying driver
      // (resolve(X, v) == X); otherwise the net is fully constant
      // (possibly Z: an undriven or all-released line).
      r.cval = cpart;
      r.vdrivers.clear();
      return r;
    }
    r.varying = true;
    r.cpart = cpart;  // kZ (absent) or a binary constant co-driver
    return r;
  };

  for (const GateId g : lm->order) {
    const Gate& gate = circuit.gate(g);
    GateRec& gr = grec[g];

    if (gate.kind == GateKind::kConst0 || gate.kind == GateKind::kConst1) {
      gr.cval = gate.kind == GateKind::kConst1 ? Logic::k1 : Logic::k0;
      continue;
    }

    if (is_tristate(gate.kind)) {
      const NetRec& en = finalize_net(gate.inputs[1]);
      if (en.varying)
        return Status::failed_precondition(
            "CompiledEval: 3-state driver on net " +
            net_label(circuit, gate.output) +
            " has a non-constant enable (dynamic contention is not "
            "representable bit-parallel)");
      if (en.cval == Logic::k0) {
        gr.cval = Logic::kZ;  // released for every vector
        continue;
      }
      if (en.cval != Logic::k1) {
        gr.cval = Logic::kX;  // unknown enable poisons the output
        continue;
      }
      // Always-on driver: plain buffer/inverter of the data input.
      const NetRec& data = finalize_net(gate.inputs[0]);
      const bool invert = gate.kind == GateKind::kTriInv;
      if (!data.varying) {
        gr.cval = invert ? not_of(data.cval)
                         : (is_binary(data.cval) ? data.cval : Logic::kX);
        continue;
      }
      gr.varying = true;
      gr.op = invert ? Op::kNot : Op::kBuf;
      gr.srcs = {gate.inputs[0]};
      continue;
    }

    // Plain combinational gate: fold when every input is constant, shortcut
    // when a dominant constant forces the output, else emit.
    bool all_const = true;
    bool dominated = false;
    Logic dom_val = Logic::kX;
    for (NetId in : gate.inputs) {
      const NetRec& ir = finalize_net(in);
      if (ir.varying) {
        all_const = false;
        continue;
      }
      switch (gate.kind) {
        case GateKind::kNand:
        case GateKind::kAnd:
          if (ir.cval == Logic::k0) {
            dominated = true;
            dom_val = gate.kind == GateKind::kNand ? Logic::k1 : Logic::k0;
          }
          break;
        case GateKind::kOr:
        case GateKind::kNor:
          if (ir.cval == Logic::k1) {
            dominated = true;
            dom_val = gate.kind == GateKind::kOr ? Logic::k1 : Logic::k0;
          }
          break;
        case GateKind::kXor:
        case GateKind::kXnor:
          if (!is_binary(ir.cval)) {
            dominated = true;
            dom_val = Logic::kX;
          }
          break;
        default: break;
      }
    }
    if (dominated) {
      gr.cval = dom_val;
      continue;
    }
    if (all_const) {
      std::vector<Logic> ins;
      ins.reserve(gate.inputs.size());
      for (NetId in : gate.inputs) ins.push_back(nrec[in].cval);
      gr.cval = fold_gate(gate.kind, ins);
      continue;
    }
    gr.varying = true;
    gr.op = op_for(gate.kind);
    gr.srcs.assign(gate.inputs.begin(), gate.inputs.end());
  }
  for (NetId n : out_nets) finalize_net(n);

  // --- Pass B: dead-code elimination. --------------------------------------
  // Only the cone feeding the bound outputs is evaluated; on an elaborated
  // fabric this strips every unconfigured block.
  {
    std::vector<NetId> stack(out_nets.begin(), out_nets.end());
    while (!stack.empty()) {
      const NetId n = stack.back();
      stack.pop_back();
      NetRec& r = nrec[n];
      if (r.needed) continue;
      r.needed = true;
      for (GateId d : r.vdrivers) {
        GateRec& gr = grec[d];
        if (gr.needed) continue;
        gr.needed = true;
        for (NetId src : gr.srcs) stack.push_back(src);
      }
    }
  }

  // --- Pass C: compact slot assignment + instruction emission. -------------
  auto program = std::make_shared<Program>();
  program->levels = lm->max_level + (ngates ? 1 : 0);
  program->wide_words = options.wide_words;
  auto new_slot = [&](PackedBits init) {
    program->init.push_back(init);
    return static_cast<std::uint32_t>(program->init.size() - 1);
  };
  auto net_slot = [&](NetId n) {
    NetRec& r = nrec[n];
    if (r.slot == kNoSlot)
      r.slot = new_slot(r.varying ? PackedBits{} : broadcast(r.cval));
    return r.slot;
  };

  // Inputs get the first slots (even when dead — they are written per batch).
  program->in_slots.reserve(in_nets.size());
  for (NetId n : in_nets) program->in_slots.push_back(net_slot(n));

  std::vector<std::uint32_t> pending(nnets, 0);
  for (NetId n = 0; n < nnets; ++n)
    pending[n] = static_cast<std::uint32_t>(nrec[n].vdrivers.size());

  auto emit = [&](Op op, std::span<const std::uint32_t> operands,
                  std::uint32_t out) {
    const auto ofs = static_cast<std::uint32_t>(program->operands.size());
    program->operands.insert(program->operands.end(), operands.begin(),
                             operands.end());
    program->instrs.push_back(
        {op, static_cast<std::uint32_t>(operands.size()), ofs, out});
  };

  // The slot holding (slot, inv): the slot itself, or its complement — one
  // kNot per source slot, emitted at its first reader and shared by the rest.
  std::vector<std::uint32_t> not_slot;
  auto read = [&](std::uint32_t slot, bool inv) {
    if (!inv) return slot;
    if (slot >= not_slot.size()) not_slot.resize(slot + 1, kNoSlot);
    if (not_slot[slot] == kNoSlot) {
      not_slot[slot] = new_slot({});
      emit(Op::kNot, {&slot, 1}, not_slot[slot]);
    }
    return not_slot[slot];
  };
  auto read_net = [&](NetId n) { return read(net_slot(n), nrec[n].inv); };

  for (const GateId g : lm->order) {
    GateRec& gr = grec[g];
    if (!gr.needed) continue;
    const NetId out = circuit.gate(g).output;
    NetRec& onet = nrec[out];
    const bool multi = onet.vdrivers.size() > 1 || onet.cpart != Logic::kZ;
    if (options.optimize && gr.srcs.size() == 1 &&
        (multi || onet.slot == kNoSlot)) {
      // Copy-propagation: a one-input gate (BUF, NOT, a buf- or inv-shaped
      // always-on driver, one-pin AND/OR/XOR/NAND/NOR/XNOR) is an alias of
      // its source slot, complemented when the gate inverts — readers (and
      // the wire-resolution below) pick it up through read().  Exact on
      // canonical planes (value 0 where unknown), which every pass keeps:
      // inputs are canonicalized at load and every two-plane op writes
      // canonical planes.  There NOT(NOT(x)) == x and each one-pin gate is
      // BUF or NOT, X included, so a feed-through hop's inverter pair
      // becomes no code.
      const NetId src = gr.srcs[0];
      gr.slot = net_slot(src);
      gr.inv = nrec[src].inv != inverts(gr.op);
      if (!multi) {
        onet.slot = gr.slot;
        onet.inv = gr.inv;
      }
    } else {
      std::vector<std::uint32_t> operands;
      operands.reserve(gr.srcs.size());
      for (NetId src : gr.srcs) operands.push_back(read_net(src));
      gr.slot = multi ? new_slot({}) : net_slot(out);
      emit(options.optimize ? specialize_arity(gr.op, operands.size())
                            : gr.op,
           operands, gr.slot);
    }
    if (multi && --pending[out] == 0) {
      // All drivers of this net are computed: wire-resolve them (plus the
      // constant co-driver, if any) into the net's slot before any reader.
      std::vector<std::uint32_t> rops;
      rops.reserve(onet.vdrivers.size() + 1);
      for (GateId d : onet.vdrivers)
        rops.push_back(read(grec[d].slot, grec[d].inv));
      if (onet.cpart != Logic::kZ) rops.push_back(new_slot(broadcast(onet.cpart)));
      emit(Op::kResolve, rops, net_slot(out));
    }
  }

  program->out_slots.reserve(out_nets.size());
  for (NetId n : out_nets) program->out_slots.push_back(read_net(n));

  // --- Pass D: level-major slot renumbering (cache locality). --------------
  if (options.optimize)
    renumber_slots(program->instrs, program->operands, program->init,
                   program->in_slots, program->out_slots);

  // --- Pass E: two-valued fast-path eligibility. ---------------------------
  // The single-plane kernel is exact iff no unknown can appear anywhere in
  // the live cone when the inputs carry none: written slots start 0/0, so
  // the only unknown sources are (a) wired-resolution, which manufactures
  // X from disagreeing binary drivers, and (b) constant-unknown slots
  // (folded undriven/contended nets) read by an instruction or bound as an
  // output.
  if (options.two_valued) {
    bool ok = true;
    for (const Instr& it : program->instrs) {
      if (it.op == Op::kResolve) {
        ok = false;
        break;
      }
      for (std::uint32_t j = 0; j < it.nin && ok; ++j)
        if (program->init[program->operands[it.in_ofs + j]].unknown != 0)
          ok = false;
      if (!ok) break;
    }
    if (ok)
      for (std::uint32_t s : program->out_slots)
        if (program->init[s].unknown != 0) {
          ok = false;
          break;
        }
    program->fast_path_ok = ok;
  }

  // --- Pass F: constant-slot inventory for stride switches. ----------------
  // Slots no input load or instruction writes hold their init image for the
  // engine's lifetime; ensure_scratch re-broadcasts exactly these when the
  // live scratch stride changes (all-zero constants included — a narrower
  // stride re-reads words that belonged to other slots at the wider one).
  {
    std::vector<char> written(program->init.size(), 0);
    for (const std::uint32_t s : program->in_slots) written[s] = 1;
    for (const Instr& it : program->instrs) written[it.out] = 1;
    for (std::uint32_t s = 0; s < program->init.size(); ++s)
      if (!written[s]) program->const_slots.push_back(s);
  }

  program->n_public_in = static_cast<std::uint32_t>(program->in_slots.size());
  program->n_public_out = static_cast<std::uint32_t>(program->out_slots.size());
  return program;
}

Result<CompiledEval> CompiledEval::compile_sequential(
    const Circuit& circuit, std::vector<NetId> in_nets,
    std::vector<NetId> out_nets, std::vector<ExternalReg> regs,
    const LevelMap* levels) {
  return compile_sequential(circuit, std::move(in_nets), std::move(out_nets),
                            std::move(regs), levels, CompileOptions{});
}

Result<CompiledEval> CompiledEval::compile_sequential(
    const Circuit& circuit, std::vector<NetId> in_nets,
    std::vector<NetId> out_nets, std::vector<ExternalReg> regs,
    const LevelMap* levels, const CompileOptions& options) {
  if (const std::string diag = circuit.validate(); !diag.empty())
    return Status::invalid_argument("compile_sequential: invalid circuit:\n" +
                                    diag);
  const std::size_t ngates = circuit.gate_count();
  const std::size_t nnets = circuit.net_count();

  // --- Scan behavioural state and the implicit clock domain. ---------------
  std::vector<GateId> reg_gates;
  std::vector<char> is_reg_gate(ngates, 0);
  std::vector<NetId> clock_nets;
  for (GateId g = 0; g < ngates; ++g) {
    const Gate& gate = circuit.gate(g);
    if (gate.kind == GateKind::kCElement)
      return Status::failed_precondition(
          "compile_sequential: C-element on net " +
          net_label(circuit, gate.output) +
          " holds state with no clock discipline (asynchronous handshake) — "
          "use the event-driven engine");
    if (gate.kind == GateKind::kDff) {
      reg_gates.push_back(g);
      is_reg_gate[g] = 1;
      clock_nets.push_back(gate.inputs[1]);
    } else if (gate.kind == GateKind::kLatch) {
      reg_gates.push_back(g);
      is_reg_gate[g] = 1;
    }
  }
  std::sort(clock_nets.begin(), clock_nets.end());
  clock_nets.erase(std::unique(clock_nets.begin(), clock_nets.end()),
                   clock_nets.end());

  std::vector<std::vector<GateId>> drivers(nnets);
  for (GateId g = 0; g < ngates; ++g)
    drivers[circuit.gate(g).output].push_back(g);

  // Clock discipline: each clock net is a pure primary input that feeds
  // nothing but DFF CLK pins and is invisible to every binding — run_cycles
  // models it only as "all clocks pulse once per cycle", so any other use
  // (gated/derived clock, clock observed as data) must be rejected.
  std::vector<char> is_clock(nnets, 0);
  for (NetId clk : clock_nets) {
    is_clock[clk] = 1;
    if (!circuit.is_input(clk))
      return Status::failed_precondition(
          "compile_sequential: DFF clock net " + net_label(circuit, clk) +
          " is not a primary input (derived clocks need the event-driven "
          "engine)");
    if (!drivers[clk].empty())
      return Status::failed_precondition(
          "compile_sequential: clock net " + net_label(circuit, clk) +
          " is also gate-driven (gated clocks need the event-driven engine)");
  }
  for (GateId g = 0; g < ngates; ++g) {
    const Gate& gate = circuit.gate(g);
    for (std::size_t pin = 0; pin < gate.inputs.size(); ++pin)
      if (is_clock[gate.inputs[pin]] &&
          !(gate.kind == GateKind::kDff && pin == 1))
        return Status::failed_precondition(
            "compile_sequential: clock net " +
            net_label(circuit, gate.inputs[pin]) + " also feeds a " +
            gate_kind_name(gate.kind) +
            " pin (a clock observed as data cannot ride the implicit "
            "once-per-cycle pulse)");
  }

  // Public bindings are validated against the *original* circuit: the
  // derived circuit marks register outputs as primary inputs, so compiling
  // it would silently accept a register Q bound as a public input.
  const auto bound_as_input = [&](NetId n) {
    return std::find(in_nets.begin(), in_nets.end(), n) != in_nets.end();
  };
  for (NetId n : in_nets) {
    if (n >= nnets)
      return Status::invalid_argument(
          "compile_sequential: input net out of range");
    if (!circuit.is_input(n))
      return Status::invalid_argument("compile_sequential: net " +
                                      net_label(circuit, n) +
                                      " is not a primary input");
    if (is_clock[n])
      return Status::failed_precondition(
          "compile_sequential: clock net " + net_label(circuit, n) +
          " must not be bound as a data input (run_cycles pulses it "
          "implicitly)");
  }
  for (NetId n : out_nets) {
    if (n >= nnets)
      return Status::invalid_argument(
          "compile_sequential: output net out of range");
    if (is_clock[n])
      return Status::failed_precondition(
          "compile_sequential: clock net " + net_label(circuit, n) +
          " must not be bound as an output");
  }

  std::vector<char> ext_q(nnets, 0);
  for (const ExternalReg& r : regs) {
    if (r.q >= nnets || r.d >= nnets)
      return Status::invalid_argument(
          "compile_sequential: external register net out of range");
    if (!circuit.is_input(r.q))
      return Status::invalid_argument(
          "compile_sequential: external register Q net " +
          net_label(circuit, r.q) + " is not a primary input");
    if (is_clock[r.q] || is_clock[r.d])
      return Status::failed_precondition(
          "compile_sequential: external register touches clock net " +
          net_label(circuit, is_clock[r.q] ? r.q : r.d));
    if (ext_q[r.q])
      return Status::invalid_argument(
          "compile_sequential: external register Q net " +
          net_label(circuit, r.q) + " declared twice");
    if (bound_as_input(r.q))
      return Status::invalid_argument(
          "compile_sequential: external register Q net " +
          net_label(circuit, r.q) +
          " is also bound as a public input (the input load would clobber "
          "its state every cycle)");
    ext_q[r.q] = 1;
  }
  for (const GateId g : reg_gates) {
    const NetId q = circuit.gate(g).output;
    if (drivers[q].size() != 1)
      return Status::failed_precondition(
          "compile_sequential: register output net " + net_label(circuit, q) +
          " has multiple drivers (wired resolution of state is not "
          "representable bit-parallel)");
    if (circuit.is_input(q))
      return Status::failed_precondition(
          "compile_sequential: register output net " + net_label(circuit, q) +
          " is externally drivable (external/driver resolution)");
  }

  // --- Derive the combinational view. --------------------------------------
  // Same nets (ids and names preserved), register Q nets promoted to primary
  // inputs, register gates dropped; every other gate copied verbatim.  The
  // whole combinational compiler — constant folding, DCE, copy-propagation,
  // arity specialization, renumbering, fast-path analysis — then applies
  // unchanged.  `levels` is forwarded: compile_impl verifies fit and
  // recomputes when the gate list changed (any behavioural register), so a
  // stale map still cannot corrupt compilation.
  Circuit derived;
  for (NetId n = 0; n < nnets; ++n) {
    derived.add_net(circuit.net_name(n));
    if (circuit.is_input(n)) derived.mark_input(n);
  }
  for (const GateId g : reg_gates) derived.mark_input(circuit.gate(g).output);
  for (GateId g = 0; g < ngates; ++g) {
    if (is_reg_gate[g]) continue;
    const Gate& gate = circuit.gate(g);
    const GateId ng =
        derived.add_gate(gate.kind, gate.inputs, gate.output, gate.delay_ps);
    derived.set_inertial(ng, gate.inertial_ps);
  }

  // Derived binding: public inputs, then behavioural Q state, then external
  // Q state; public outputs, then each register's D (and EN/RSTn) taps.
  std::vector<NetId> dins = in_nets;
  std::vector<NetId> douts = out_nets;
  struct TapRec {
    SeqReg::Kind kind;
    PackedBits reset;
    bool has_ctl;
  };
  std::vector<TapRec> taps;
  taps.reserve(reg_gates.size() + regs.size());
  for (const GateId g : reg_gates) {
    const Gate& gate = circuit.gate(g);
    dins.push_back(gate.output);
    douts.push_back(gate.inputs[0]);  // D
    if (gate.kind == GateKind::kLatch) {
      douts.push_back(gate.inputs[1]);  // EN
      taps.push_back({SeqReg::Kind::kLatch, broadcast(Logic::kX), true});
    } else if (gate.inputs.size() == 3) {
      douts.push_back(gate.inputs[2]);  // RSTn
      taps.push_back({SeqReg::Kind::kDffRst, broadcast(Logic::kX), true});
    } else {
      taps.push_back({SeqReg::Kind::kDff, broadcast(Logic::kX), false});
    }
  }
  for (const ExternalReg& r : regs) {
    dins.push_back(r.q);
    douts.push_back(r.d);
    taps.push_back({SeqReg::Kind::kExternal, broadcast(r.reset), false});
  }

  auto compiled = compile_impl(derived, std::move(dins), std::move(douts),
                               levels, options);
  if (!compiled.ok()) return compiled.status();
  std::shared_ptr<Program>& program = *compiled;

  program->is_sequential = true;
  program->n_public_in = static_cast<std::uint32_t>(in_nets.size());
  program->n_public_out = static_cast<std::uint32_t>(out_nets.size());
  program->regs.reserve(taps.size());
  std::size_t qi = in_nets.size();
  std::size_t ti = out_nets.size();
  for (const TapRec& t : taps) {
    SeqReg r;
    r.kind = t.kind;
    r.reset = t.reset;
    r.q_slot = program->in_slots[qi++];
    r.d_slot = program->out_slots[ti++];
    if (t.has_ctl) r.ctl_slot = program->out_slots[ti++];
    if (t.kind != SeqReg::Kind::kLatch) ++program->n_edge_regs;
    if (t.kind == SeqReg::Kind::kLatch || t.kind == SeqReg::Kind::kDffRst)
      program->has_settle_regs = true;
    program->regs.push_back(r);
  }

  return CompiledEval(std::move(program));
}

namespace {

// The wide kernels.  Scratch is structure-of-arrays: slot s's words are
// val[s*nw .. s*nw+nw-1] (and likewise unk), so every case body is a small
// fixed-shape loop over nw words that the compiler can unroll and
// auto-vectorize.  Destination slots are in SSA form (each written by
// exactly one instruction, allocated at emission), so dst never aliases a
// source and the accumulate-in-place pattern below is safe.

/// Two-plane (4-state) kernel: the always-correct interpretation.
void run_two_plane(std::span<const Instr> instrs, const std::uint32_t* ops,
                   std::uint64_t* val, std::uint64_t* unk, std::size_t nw) {
  for (const Instr& it : instrs) {
    const std::uint32_t* o = ops + it.in_ofs;
    std::uint64_t* dv = val + std::size_t{it.out} * nw;
    std::uint64_t* du = unk + std::size_t{it.out} * nw;
    const std::uint64_t* a = val + std::size_t{o[0]} * nw;
    const std::uint64_t* x = unk + std::size_t{o[0]} * nw;
    switch (it.op) {
      case Op::kBuf:
        for (std::size_t w = 0; w < nw; ++w) {
          dv[w] = a[w];
          du[w] = x[w];
        }
        break;
      case Op::kNot:
        for (std::size_t w = 0; w < nw; ++w) {
          dv[w] = ~a[w] & ~x[w];
          du[w] = x[w];
        }
        break;
      case Op::kAnd:
      case Op::kNand: {
        // dv accumulates all1, du accumulates any0 until the finish loop.
        for (std::size_t w = 0; w < nw; ++w) {
          dv[w] = a[w];
          du[w] = ~a[w] & ~x[w];
        }
        for (std::uint32_t j = 1; j < it.nin; ++j) {
          const std::uint64_t* b = val + std::size_t{o[j]} * nw;
          const std::uint64_t* y = unk + std::size_t{o[j]} * nw;
          for (std::size_t w = 0; w < nw; ++w) {
            dv[w] &= b[w];
            du[w] |= ~b[w] & ~y[w];
          }
        }
        if (it.op == Op::kAnd) {
          for (std::size_t w = 0; w < nw; ++w) du[w] = ~(dv[w] | du[w]);
        } else {
          for (std::size_t w = 0; w < nw; ++w) {
            const std::uint64_t all1 = dv[w], any0 = du[w];
            dv[w] = any0;
            du[w] = ~(all1 | any0);
          }
        }
        break;
      }
      case Op::kOr:
      case Op::kNor: {
        // dv accumulates any1, du accumulates all0 until the finish loop.
        for (std::size_t w = 0; w < nw; ++w) {
          dv[w] = a[w];
          du[w] = ~a[w] & ~x[w];
        }
        for (std::uint32_t j = 1; j < it.nin; ++j) {
          const std::uint64_t* b = val + std::size_t{o[j]} * nw;
          const std::uint64_t* y = unk + std::size_t{o[j]} * nw;
          for (std::size_t w = 0; w < nw; ++w) {
            dv[w] |= b[w];
            du[w] &= ~b[w] & ~y[w];
          }
        }
        if (it.op == Op::kOr) {
          for (std::size_t w = 0; w < nw; ++w) du[w] = ~(dv[w] | du[w]);
        } else {
          for (std::size_t w = 0; w < nw; ++w) {
            const std::uint64_t any1 = dv[w], all0 = du[w];
            dv[w] = all0;
            du[w] = ~(any1 | all0);
          }
        }
        break;
      }
      case Op::kXor:
      case Op::kXnor: {
        for (std::size_t w = 0; w < nw; ++w) {
          dv[w] = a[w];
          du[w] = x[w];
        }
        for (std::uint32_t j = 1; j < it.nin; ++j) {
          const std::uint64_t* b = val + std::size_t{o[j]} * nw;
          const std::uint64_t* y = unk + std::size_t{o[j]} * nw;
          for (std::size_t w = 0; w < nw; ++w) {
            dv[w] ^= b[w];
            du[w] |= y[w];
          }
        }
        if (it.op == Op::kXnor) {
          for (std::size_t w = 0; w < nw; ++w) dv[w] = ~dv[w] & ~du[w];
        } else {
          for (std::size_t w = 0; w < nw; ++w) dv[w] &= ~du[w];
        }
        break;
      }
      case Op::kAnd2:
      case Op::kNand2: {
        const std::uint64_t* b = val + std::size_t{o[1]} * nw;
        const std::uint64_t* y = unk + std::size_t{o[1]} * nw;
        if (it.op == Op::kAnd2) {
          for (std::size_t w = 0; w < nw; ++w) {
            const std::uint64_t all1 = a[w] & b[w];
            const std::uint64_t any0 = (~a[w] & ~x[w]) | (~b[w] & ~y[w]);
            dv[w] = all1;
            du[w] = ~(all1 | any0);
          }
        } else {
          for (std::size_t w = 0; w < nw; ++w) {
            const std::uint64_t all1 = a[w] & b[w];
            const std::uint64_t any0 = (~a[w] & ~x[w]) | (~b[w] & ~y[w]);
            dv[w] = any0;
            du[w] = ~(all1 | any0);
          }
        }
        break;
      }
      case Op::kOr2:
      case Op::kNor2: {
        const std::uint64_t* b = val + std::size_t{o[1]} * nw;
        const std::uint64_t* y = unk + std::size_t{o[1]} * nw;
        if (it.op == Op::kOr2) {
          for (std::size_t w = 0; w < nw; ++w) {
            const std::uint64_t any1 = a[w] | b[w];
            const std::uint64_t all0 = ~a[w] & ~x[w] & ~b[w] & ~y[w];
            dv[w] = any1;
            du[w] = ~(any1 | all0);
          }
        } else {
          for (std::size_t w = 0; w < nw; ++w) {
            const std::uint64_t any1 = a[w] | b[w];
            const std::uint64_t all0 = ~a[w] & ~x[w] & ~b[w] & ~y[w];
            dv[w] = all0;
            du[w] = ~(any1 | all0);
          }
        }
        break;
      }
      case Op::kXor2:
      case Op::kXnor2: {
        const std::uint64_t* b = val + std::size_t{o[1]} * nw;
        const std::uint64_t* y = unk + std::size_t{o[1]} * nw;
        if (it.op == Op::kXor2) {
          for (std::size_t w = 0; w < nw; ++w) {
            const std::uint64_t u = x[w] | y[w];
            dv[w] = (a[w] ^ b[w]) & ~u;
            du[w] = u;
          }
        } else {
          for (std::size_t w = 0; w < nw; ++w) {
            const std::uint64_t u = x[w] | y[w];
            dv[w] = ~(a[w] ^ b[w]) & ~u;
            du[w] = u;
          }
        }
        break;
      }
      case Op::kAnd3:
      case Op::kNand3: {
        const std::uint64_t* b = val + std::size_t{o[1]} * nw;
        const std::uint64_t* y = unk + std::size_t{o[1]} * nw;
        const std::uint64_t* c = val + std::size_t{o[2]} * nw;
        const std::uint64_t* z = unk + std::size_t{o[2]} * nw;
        if (it.op == Op::kAnd3) {
          for (std::size_t w = 0; w < nw; ++w) {
            const std::uint64_t all1 = a[w] & b[w] & c[w];
            const std::uint64_t any0 =
                (~a[w] & ~x[w]) | (~b[w] & ~y[w]) | (~c[w] & ~z[w]);
            dv[w] = all1;
            du[w] = ~(all1 | any0);
          }
        } else {
          for (std::size_t w = 0; w < nw; ++w) {
            const std::uint64_t all1 = a[w] & b[w] & c[w];
            const std::uint64_t any0 =
                (~a[w] & ~x[w]) | (~b[w] & ~y[w]) | (~c[w] & ~z[w]);
            dv[w] = any0;
            du[w] = ~(all1 | any0);
          }
        }
        break;
      }
      case Op::kOr3:
      case Op::kNor3: {
        const std::uint64_t* b = val + std::size_t{o[1]} * nw;
        const std::uint64_t* y = unk + std::size_t{o[1]} * nw;
        const std::uint64_t* c = val + std::size_t{o[2]} * nw;
        const std::uint64_t* z = unk + std::size_t{o[2]} * nw;
        if (it.op == Op::kOr3) {
          for (std::size_t w = 0; w < nw; ++w) {
            const std::uint64_t any1 = a[w] | b[w] | c[w];
            const std::uint64_t all0 =
                ~a[w] & ~x[w] & ~b[w] & ~y[w] & ~c[w] & ~z[w];
            dv[w] = any1;
            du[w] = ~(any1 | all0);
          }
        } else {
          for (std::size_t w = 0; w < nw; ++w) {
            const std::uint64_t any1 = a[w] | b[w] | c[w];
            const std::uint64_t all0 =
                ~a[w] & ~x[w] & ~b[w] & ~y[w] & ~c[w] & ~z[w];
            dv[w] = all0;
            du[w] = ~(any1 | all0);
          }
        }
        break;
      }
      case Op::kXor3:
      case Op::kXnor3: {
        const std::uint64_t* b = val + std::size_t{o[1]} * nw;
        const std::uint64_t* y = unk + std::size_t{o[1]} * nw;
        const std::uint64_t* c = val + std::size_t{o[2]} * nw;
        const std::uint64_t* z = unk + std::size_t{o[2]} * nw;
        if (it.op == Op::kXor3) {
          for (std::size_t w = 0; w < nw; ++w) {
            const std::uint64_t u = x[w] | y[w] | z[w];
            dv[w] = (a[w] ^ b[w] ^ c[w]) & ~u;
            du[w] = u;
          }
        } else {
          for (std::size_t w = 0; w < nw; ++w) {
            const std::uint64_t u = x[w] | y[w] | z[w];
            dv[w] = ~(a[w] ^ b[w] ^ c[w]) & ~u;
            du[w] = u;
          }
        }
        break;
      }
      case Op::kResolve: {
        // dv/du accumulate the wired-and resolution pairwise.
        for (std::size_t w = 0; w < nw; ++w) {
          dv[w] = a[w];
          du[w] = x[w];
        }
        for (std::uint32_t j = 1; j < it.nin; ++j) {
          const std::uint64_t* b = val + std::size_t{o[j]} * nw;
          const std::uint64_t* y = unk + std::size_t{o[j]} * nw;
          for (std::size_t w = 0; w < nw; ++w) {
            du[w] |= y[w] | (dv[w] ^ b[w]);
            dv[w] &= b[w];
          }
        }
        for (std::size_t w = 0; w < nw; ++w) dv[w] &= ~du[w];
        break;
      }
    }
  }
}

/// Single-plane (two-valued) kernel: exact when the program is fast-path
/// eligible and no input lane carries an unknown — half the memory traffic
/// of the two-plane interpretation.  Op::kResolve never reaches here
/// (eligibility excludes it: resolution manufactures X from binary
/// disagreement, which one plane cannot express).
void run_one_plane(std::span<const Instr> instrs, const std::uint32_t* ops,
                   std::uint64_t* val, std::size_t nw) {
  for (const Instr& it : instrs) {
    const std::uint32_t* o = ops + it.in_ofs;
    std::uint64_t* dv = val + std::size_t{it.out} * nw;
    const std::uint64_t* a = val + std::size_t{o[0]} * nw;
    switch (it.op) {
      case Op::kBuf:
        for (std::size_t w = 0; w < nw; ++w) dv[w] = a[w];
        break;
      case Op::kNot:
        for (std::size_t w = 0; w < nw; ++w) dv[w] = ~a[w];
        break;
      case Op::kAnd:
      case Op::kNand: {
        for (std::size_t w = 0; w < nw; ++w) dv[w] = a[w];
        for (std::uint32_t j = 1; j < it.nin; ++j) {
          const std::uint64_t* b = val + std::size_t{o[j]} * nw;
          for (std::size_t w = 0; w < nw; ++w) dv[w] &= b[w];
        }
        if (it.op == Op::kNand)
          for (std::size_t w = 0; w < nw; ++w) dv[w] = ~dv[w];
        break;
      }
      case Op::kOr:
      case Op::kNor: {
        for (std::size_t w = 0; w < nw; ++w) dv[w] = a[w];
        for (std::uint32_t j = 1; j < it.nin; ++j) {
          const std::uint64_t* b = val + std::size_t{o[j]} * nw;
          for (std::size_t w = 0; w < nw; ++w) dv[w] |= b[w];
        }
        if (it.op == Op::kNor)
          for (std::size_t w = 0; w < nw; ++w) dv[w] = ~dv[w];
        break;
      }
      case Op::kXor:
      case Op::kXnor: {
        for (std::size_t w = 0; w < nw; ++w) dv[w] = a[w];
        for (std::uint32_t j = 1; j < it.nin; ++j) {
          const std::uint64_t* b = val + std::size_t{o[j]} * nw;
          for (std::size_t w = 0; w < nw; ++w) dv[w] ^= b[w];
        }
        if (it.op == Op::kXnor)
          for (std::size_t w = 0; w < nw; ++w) dv[w] = ~dv[w];
        break;
      }
      case Op::kAnd2: {
        const std::uint64_t* b = val + std::size_t{o[1]} * nw;
        for (std::size_t w = 0; w < nw; ++w) dv[w] = a[w] & b[w];
        break;
      }
      case Op::kNand2: {
        const std::uint64_t* b = val + std::size_t{o[1]} * nw;
        for (std::size_t w = 0; w < nw; ++w) dv[w] = ~(a[w] & b[w]);
        break;
      }
      case Op::kOr2: {
        const std::uint64_t* b = val + std::size_t{o[1]} * nw;
        for (std::size_t w = 0; w < nw; ++w) dv[w] = a[w] | b[w];
        break;
      }
      case Op::kNor2: {
        const std::uint64_t* b = val + std::size_t{o[1]} * nw;
        for (std::size_t w = 0; w < nw; ++w) dv[w] = ~(a[w] | b[w]);
        break;
      }
      case Op::kXor2: {
        const std::uint64_t* b = val + std::size_t{o[1]} * nw;
        for (std::size_t w = 0; w < nw; ++w) dv[w] = a[w] ^ b[w];
        break;
      }
      case Op::kXnor2: {
        const std::uint64_t* b = val + std::size_t{o[1]} * nw;
        for (std::size_t w = 0; w < nw; ++w) dv[w] = ~(a[w] ^ b[w]);
        break;
      }
      case Op::kAnd3: {
        const std::uint64_t* b = val + std::size_t{o[1]} * nw;
        const std::uint64_t* c = val + std::size_t{o[2]} * nw;
        for (std::size_t w = 0; w < nw; ++w) dv[w] = a[w] & b[w] & c[w];
        break;
      }
      case Op::kNand3: {
        const std::uint64_t* b = val + std::size_t{o[1]} * nw;
        const std::uint64_t* c = val + std::size_t{o[2]} * nw;
        for (std::size_t w = 0; w < nw; ++w) dv[w] = ~(a[w] & b[w] & c[w]);
        break;
      }
      case Op::kOr3: {
        const std::uint64_t* b = val + std::size_t{o[1]} * nw;
        const std::uint64_t* c = val + std::size_t{o[2]} * nw;
        for (std::size_t w = 0; w < nw; ++w) dv[w] = a[w] | b[w] | c[w];
        break;
      }
      case Op::kNor3: {
        const std::uint64_t* b = val + std::size_t{o[1]} * nw;
        const std::uint64_t* c = val + std::size_t{o[2]} * nw;
        for (std::size_t w = 0; w < nw; ++w) dv[w] = ~(a[w] | b[w] | c[w]);
        break;
      }
      case Op::kXor3: {
        const std::uint64_t* b = val + std::size_t{o[1]} * nw;
        const std::uint64_t* c = val + std::size_t{o[2]} * nw;
        for (std::size_t w = 0; w < nw; ++w) dv[w] = a[w] ^ b[w] ^ c[w];
        break;
      }
      case Op::kXnor3: {
        const std::uint64_t* b = val + std::size_t{o[1]} * nw;
        const std::uint64_t* c = val + std::size_t{o[2]} * nw;
        for (std::size_t w = 0; w < nw; ++w) dv[w] = ~(a[w] ^ b[w] ^ c[w]);
        break;
      }
      case Op::kResolve:
        break;  // unreachable: fast-path eligibility excludes resolution
    }
  }
}

}  // namespace

Status CompiledEval::eval_wide(std::span<const std::uint64_t> in_value,
                               std::span<const std::uint64_t> in_unknown,
                               std::span<std::uint64_t> out_value,
                               std::span<std::uint64_t> out_unknown,
                               std::size_t lanes) {
  const Program& p = *program_;
  if (p.is_sequential)
    return Status::failed_precondition(
        "eval_wide: sequential program (register state needs a cycle "
        "protocol) — use run_cycles");
  const std::size_t nin = p.in_slots.size();
  const std::size_t nout = p.out_slots.size();
  std::size_t words = 0;
  if (Status s = check_wide_shape(nin, nout, in_value.size(), in_unknown.size(),
                                  out_value.size(), out_unknown.size(), lanes,
                                  words);
      !s.ok())
    return s;

  const auto W = static_cast<std::size_t>(p.wide_words);
  for (std::size_t w0 = 0; w0 < words; w0 += W) {
    const std::size_t nw = std::min(W, words - w0);
    ensure_scratch(nw);

    // Load inputs into scratch: canonicalize (value 0 where unknown) and
    // zero the dead lanes of the final word, accumulating whether any live
    // lane carries an unknown — the per-pass fast-path condition.
    std::uint64_t any_unknown = 0;
    for (std::size_t i = 0; i < nin; ++i) {
      const std::uint64_t* sv = in_value.data() + i * words + w0;
      const std::uint64_t* su = in_unknown.data() + i * words + w0;
      std::uint64_t* dv = value_.data() + std::size_t{p.in_slots[i]} * nw;
      std::uint64_t* du = unknown_.data() + std::size_t{p.in_slots[i]} * nw;
      for (std::size_t w = 0; w < nw; ++w) {
        const std::uint64_t m = word_mask(lanes, w0 + w);
        const std::uint64_t u = su[w] & m;
        dv[w] = sv[w] & ~u & m;
        du[w] = u;
        any_unknown |= u;
      }
    }

    const bool fast = p.fast_path_ok && any_unknown == 0;
    (fast ? p.counters.fast_passes : p.counters.slow_passes)
        .fetch_add(1, std::memory_order_relaxed);
    if (fast)
      run_one_plane(p.instrs, p.operands.data(), value_.data(), nw);
    else
      run_two_plane(p.instrs, p.operands.data(), value_.data(),
                    unknown_.data(), nw);

    // Store outputs, masking dead lanes of the final word to 0/0.  A fast
    // pass never touches the unknown plane; its outputs are all-known by
    // construction.
    for (std::size_t k = 0; k < nout; ++k) {
      const std::uint64_t* sv = value_.data() + std::size_t{p.out_slots[k]} * nw;
      const std::uint64_t* su =
          unknown_.data() + std::size_t{p.out_slots[k]} * nw;
      std::uint64_t* dv = out_value.data() + k * words + w0;
      std::uint64_t* du = out_unknown.data() + k * words + w0;
      for (std::size_t w = 0; w < nw; ++w) {
        const std::uint64_t m = word_mask(lanes, w0 + w);
        dv[w] = sv[w] & m;
        du[w] = fast ? 0 : su[w] & m;
      }
    }
  }
  return Status();
}

bool CompiledEval::settle_fixpoint(std::size_t nw, bool fast,
                                   std::size_t max_iters) {
  const Program& p = *program_;
  std::uint64_t* val = value_.data();
  std::uint64_t* unk = unknown_.data();
  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    if (fast)
      run_one_plane(p.instrs, p.operands.data(), val, nw);
    else
      run_two_plane(p.instrs, p.operands.data(), val, unk, nw);
    if (!p.has_settle_regs) return true;  // edge-triggered only: one pass

    // Stage every level-sensitive update (transparent-latch capture, async
    // reset) before writing any of them: a D tap can alias another
    // register's Q slot through copy-propagation, so the rules must see a
    // consistent pre-update snapshot — exactly the simultaneous semantics
    // the settled event simulator converges to.
    std::uint64_t* tv = seq_tmp_.data();
    std::uint64_t* tu = tv + p.regs.size() * nw;
    for (std::size_t ri = 0; ri < p.regs.size(); ++ri) {
      const SeqReg& r = p.regs[ri];
      if (r.kind != SeqReg::Kind::kLatch && r.kind != SeqReg::Kind::kDffRst)
        continue;
      const std::uint64_t* qv = val + std::size_t{r.q_slot} * nw;
      const std::uint64_t* qu = unk + std::size_t{r.q_slot} * nw;
      const std::uint64_t* dv = val + std::size_t{r.d_slot} * nw;
      const std::uint64_t* du = unk + std::size_t{r.d_slot} * nw;
      const std::uint64_t* cv = val + std::size_t{r.ctl_slot} * nw;
      const std::uint64_t* cu = unk + std::size_t{r.ctl_slot} * nw;
      std::uint64_t* nv = tv + ri * nw;
      std::uint64_t* nu = tu + ri * nw;
      if (r.kind == SeqReg::Kind::kLatch) {
        // Capture where EN is a known 1; hold elsewhere (EN of 0/X/Z all
        // hold, mirroring the behavioural latch exactly).
        if (fast) {
          for (std::size_t w = 0; w < nw; ++w)
            nv[w] = (cv[w] & dv[w]) | (~cv[w] & qv[w]);
        } else {
          for (std::size_t w = 0; w < nw; ++w) {
            const std::uint64_t en1 = cv[w] & ~cu[w];
            nv[w] = (en1 & dv[w]) | (~en1 & qv[w]);
            nu[w] = (en1 & du[w]) | (~en1 & qu[w]);
          }
        }
      } else {
        // Async reset: clear state where RSTn is a known 0 (an unknown
        // RSTn does not reset, mirroring the behavioural DFF exactly).
        if (fast) {
          for (std::size_t w = 0; w < nw; ++w) nv[w] = qv[w] & cv[w];
        } else {
          for (std::size_t w = 0; w < nw; ++w) {
            const std::uint64_t rst0 = ~cv[w] & ~cu[w];
            nv[w] = qv[w] & ~rst0;
            nu[w] = qu[w] & ~rst0;
          }
        }
      }
    }
    std::uint64_t delta = 0;
    for (std::size_t ri = 0; ri < p.regs.size(); ++ri) {
      const SeqReg& r = p.regs[ri];
      if (r.kind != SeqReg::Kind::kLatch && r.kind != SeqReg::Kind::kDffRst)
        continue;
      std::uint64_t* qv = val + std::size_t{r.q_slot} * nw;
      std::uint64_t* qu = unk + std::size_t{r.q_slot} * nw;
      const std::uint64_t* nv = tv + ri * nw;
      const std::uint64_t* nu = tu + ri * nw;
      for (std::size_t w = 0; w < nw; ++w) {
        delta |= qv[w] ^ nv[w];
        qv[w] = nv[w];
      }
      if (!fast)
        for (std::size_t w = 0; w < nw; ++w) {
          delta |= qu[w] ^ nu[w];
          qu[w] = nu[w];
        }
    }
    if (delta == 0) return true;
  }
  return false;
}

Status CompiledEval::run_cycles(std::span<const std::uint64_t> in_value,
                                std::span<const std::uint64_t> in_unknown,
                                std::span<std::uint64_t> out_value,
                                std::span<std::uint64_t> out_unknown,
                                std::size_t cycles, std::size_t lanes,
                                bool reset) {
  const Program& p = *program_;
  const std::size_t nin = p.n_public_in;
  const std::size_t nout = p.n_public_out;
  if (cycles < 1)
    return Status::invalid_argument("run_cycles: cycles must be >= 1");
  if (lanes < 1)
    return Status::invalid_argument("run_cycles: lanes must be >= 1");
  const std::size_t words =
      (lanes + Evaluator::kBatchLanes - 1) / Evaluator::kBatchLanes;
  if (in_value.size() != nin * cycles * words ||
      in_unknown.size() != nin * cycles * words ||
      out_value.size() != nout * cycles * words ||
      out_unknown.size() != nout * cycles * words)
    return Status::invalid_argument(
        "run_cycles: " + std::to_string(lanes) + " lanes over " +
        std::to_string(cycles) + " cycles expect " +
        std::to_string(nin * cycles * words) + " input and " +
        std::to_string(nout * cycles * words) +
        " output plane words per plane");
  if (!reset && scratch_words_ != words)
    return Status::failed_precondition(
        "run_cycles: reset=false continues from carried register state, "
        "which lives at the previous call's lane width (" +
        std::to_string(scratch_words_) + " plane words, got " +
        std::to_string(words) + ")");

  const auto W = static_cast<std::size_t>(p.wide_words);
  seq_tmp_.resize(2 * p.regs.size() * W);
  // Latch chains propagate one stage per fixpoint iteration (each iteration
  // re-runs the whole combinational program), so any converging
  // arrangement settles within the register count; the margin keeps tiny
  // programs from tripping on reset transients.
  const std::size_t max_iters = p.regs.size() + 8;

  for (std::size_t w0 = 0; w0 < words; w0 += W) {
    const std::size_t nw = std::min(W, words - w0);
    ensure_scratch(nw);
    // Each pass group carries its own independent register files in the
    // state slots; reset=false is single-group by the width check above.
    if (reset) reset_state();
    for (std::size_t c = 0; c < cycles; ++c) {
      // Load cycle c's inputs (canonicalized, dead lanes forced to 0/0).
      std::uint64_t any_unknown = 0;
      for (std::size_t i = 0; i < nin; ++i) {
        const std::uint64_t* sv = in_value.data() + (c * nin + i) * words + w0;
        const std::uint64_t* su =
            in_unknown.data() + (c * nin + i) * words + w0;
        std::uint64_t* dv = value_.data() + std::size_t{p.in_slots[i]} * nw;
        std::uint64_t* du = unknown_.data() + std::size_t{p.in_slots[i]} * nw;
        for (std::size_t w = 0; w < nw; ++w) {
          const std::uint64_t m = word_mask(lanes, w0 + w);
          const std::uint64_t u = su[w] & m;
          dv[w] = sv[w] & ~u & m;
          du[w] = u;
          any_unknown |= u;
        }
      }
      // Fast cycles need the register state known too: behavioural state
      // starts at X, so the first cycles of a batch run two-plane until
      // every register has captured a binary value.
      // Dead lanes are excluded: reset parks them at X (whole-word
      // broadcast) and a latch holds that X forever, which must not pin
      // live all-known lanes onto the two-plane kernel.
      std::uint64_t state_unknown = 0;
      for (const SeqReg& r : p.regs) {
        const std::uint64_t* qu =
            unknown_.data() + std::size_t{r.q_slot} * nw;
        for (std::size_t w = 0; w < nw; ++w)
          state_unknown |= qu[w] & word_mask(lanes, w0 + w);
      }
      const bool fast =
          p.fast_path_ok && any_unknown == 0 && state_unknown == 0;
      p.counters.cycles_run.fetch_add(1, std::memory_order_relaxed);
      if (fast)
        p.counters.fast_cycle_passes.fetch_add(1, std::memory_order_relaxed);

      // Settle the combinational program with the pre-edge state.
      if (!settle_fixpoint(nw, fast, max_iters))
        return Status::resource_exhausted(
            "run_cycles: level-sensitive feedback failed to settle after " +
            std::to_string(max_iters) + " iterations (oscillation?)");

      // Sample outputs pre-edge, masking dead lanes to 0/0.
      for (std::size_t k = 0; k < nout; ++k) {
        const std::uint64_t* sv =
            value_.data() + std::size_t{p.out_slots[k]} * nw;
        const std::uint64_t* su =
            unknown_.data() + std::size_t{p.out_slots[k]} * nw;
        std::uint64_t* dv = out_value.data() + (c * nout + k) * words + w0;
        std::uint64_t* du = out_unknown.data() + (c * nout + k) * words + w0;
        for (std::size_t w = 0; w < nw; ++w) {
          const std::uint64_t m = word_mask(lanes, w0 + w);
          dv[w] = sv[w] & m;
          du[w] = fast ? 0 : su[w] & m;
        }
      }

      // Clock edge: every edge-triggered register commits its settled D
      // simultaneously (two-phase through seq_tmp_, since a D tap can alias
      // another register's Q slot).  A non-binary D captures X; a known-0
      // RSTn overrides the capture with 0, an unknown RSTn does not.
      if (p.n_edge_regs != 0) {
        std::uint64_t* tv = seq_tmp_.data();
        std::uint64_t* tu = tv + p.regs.size() * nw;
        for (std::size_t ri = 0; ri < p.regs.size(); ++ri) {
          const SeqReg& r = p.regs[ri];
          if (r.kind == SeqReg::Kind::kLatch) continue;
          const std::uint64_t* dvs =
              value_.data() + std::size_t{r.d_slot} * nw;
          const std::uint64_t* dus =
              unknown_.data() + std::size_t{r.d_slot} * nw;
          std::uint64_t* nv = tv + ri * nw;
          std::uint64_t* nu = tu + ri * nw;
          if (r.kind == SeqReg::Kind::kDffRst) {
            const std::uint64_t* cv =
                value_.data() + std::size_t{r.ctl_slot} * nw;
            const std::uint64_t* cu =
                unknown_.data() + std::size_t{r.ctl_slot} * nw;
            if (fast) {
              for (std::size_t w = 0; w < nw; ++w) nv[w] = dvs[w] & cv[w];
            } else {
              for (std::size_t w = 0; w < nw; ++w) {
                const std::uint64_t rst0 = ~cv[w] & ~cu[w];
                nv[w] = dvs[w] & ~rst0;
                nu[w] = dus[w] & ~rst0;
              }
            }
          } else if (fast) {
            for (std::size_t w = 0; w < nw; ++w) nv[w] = dvs[w];
          } else {
            for (std::size_t w = 0; w < nw; ++w) {
              nv[w] = dvs[w];
              nu[w] = dus[w];
            }
          }
        }
        std::uint64_t edge_delta = 0;
        for (std::size_t ri = 0; ri < p.regs.size(); ++ri) {
          const SeqReg& r = p.regs[ri];
          if (r.kind == SeqReg::Kind::kLatch) continue;
          std::uint64_t* qv = value_.data() + std::size_t{r.q_slot} * nw;
          std::uint64_t* qu = unknown_.data() + std::size_t{r.q_slot} * nw;
          const std::uint64_t* nv = tv + ri * nw;
          const std::uint64_t* nu = tu + ri * nw;
          for (std::size_t w = 0; w < nw; ++w) {
            edge_delta |= qv[w] ^ nv[w];
            qv[w] = nv[w];
          }
          if (!fast)
            for (std::size_t w = 0; w < nw; ++w) {
              edge_delta |= qu[w] ^ nu[w];
              qu[w] = nu[w];
            }
        }
        p.counters.state_commits.fetch_add(p.n_edge_regs,
                                           std::memory_order_relaxed);

        // Post-edge settle: the committed state must reach still-open
        // latches and Q-dependent async resets *before* the next cycle's
        // inputs can close them — the event simulator propagates the edge
        // under cycle-c inputs, so the compiled engine must too.
        if (edge_delta != 0 && p.has_settle_regs &&
            !settle_fixpoint(nw, fast, max_iters))
          return Status::resource_exhausted(
              "run_cycles: post-edge feedback failed to settle after " +
              std::to_string(max_iters) + " iterations (oscillation?)");
      }
    }
  }
  return Status();
}

Status CompiledEval::eval_packed(std::span<const PackedBits> inputs,
                                 std::span<PackedBits> outputs, int lanes) {
  if (program_->is_sequential)
    return Status::failed_precondition(
        "eval_packed: sequential program (register state needs a cycle "
        "protocol) — use run_cycles");
  if (lanes < 1 || lanes > kBatchLanes)
    return Status::invalid_argument(lanes_range_message("eval_packed"));
  const std::size_t nin = program_->in_slots.size();
  const std::size_t nout = program_->out_slots.size();
  if (inputs.size() != nin || outputs.size() != nout)
    return Status::invalid_argument(
        "eval_packed: expected " + std::to_string(nin) + " inputs and " +
        std::to_string(nout) + " outputs");

  // One-word AoS<->SoA shim: with words == 1 the two layouts coincide per
  // signal, so staging is a flat copy into the wide entry point.
  shim_.resize(2 * (nin + nout));
  std::uint64_t* iv = shim_.data();
  std::uint64_t* iu = iv + nin;
  std::uint64_t* ov = iu + nin;
  std::uint64_t* ou = ov + nout;
  for (std::size_t i = 0; i < nin; ++i) {
    iv[i] = inputs[i].value;
    iu[i] = inputs[i].unknown;
  }
  if (Status s = eval_wide({iv, nin}, {iu, nin}, {ov, nout}, {ou, nout},
                           static_cast<std::size_t>(lanes));
      !s.ok())
    return s;
  for (std::size_t k = 0; k < nout; ++k) outputs[k] = {ov[k], ou[k]};
  return Status();
}

std::size_t CompiledEval::preferred_words() const noexcept {
  return static_cast<std::size_t>(program_->wide_words);
}

bool CompiledEval::fast_path_available() const noexcept {
  return program_->fast_path_ok;
}

KernelStats CompiledEval::kernel_stats() const noexcept {
  KernelStats total = program_->counters.load();
  // A modal engine's sweep runs one image per mode; the counters of every
  // mode's shared program roll up into one view.
  for (const auto& sub : modal_) total += sub->kernel_stats();
  return total;
}

// ---------------------------------------------------------------------------
// EventEval
// ---------------------------------------------------------------------------

EventEval::EventEval(std::vector<NetId> in_nets, std::vector<NetId> out_nets,
                     std::uint64_t budget)
    : in_nets_(std::move(in_nets)),
      out_nets_(std::move(out_nets)),
      budget_(budget) {}

Result<EventEval> EventEval::create(const Circuit& circuit,
                                    std::vector<NetId> in_nets,
                                    std::vector<NetId> out_nets,
                                    std::uint64_t max_events_per_vector,
                                    std::vector<ExternalReg> regs) {
  for (NetId n : in_nets) {
    if (n >= circuit.net_count())
      return Status::invalid_argument("EventEval: input net out of range");
    if (!circuit.is_input(n))
      return Status::invalid_argument("EventEval: net " +
                                      net_label(circuit, n) +
                                      " is not a primary input");
  }
  for (NetId n : out_nets)
    if (n >= circuit.net_count())
      return Status::invalid_argument("EventEval: output net out of range");
  for (const ExternalReg& r : regs) {
    if (r.q >= circuit.net_count() || r.d >= circuit.net_count())
      return Status::invalid_argument(
          "EventEval: external register net out of range");
    if (!circuit.is_input(r.q))
      return Status::invalid_argument("EventEval: external register Q net " +
                                      net_label(circuit, r.q) +
                                      " is not a primary input");
  }
  auto sim = Simulator::create(circuit);
  if (!sim.ok()) return sim.status();
  EventEval ev(std::move(in_nets), std::move(out_nets),
               max_events_per_vector);
  ev.sim_.emplace(std::move(*sim));
  ev.circuit_ = &circuit;
  ev.regs_ = std::move(regs);
  // Discover the clock domain: every DFF CLK net, deduplicated.  The
  // preamble below arms each edge detector (the construction kick-start
  // leaves prev_clk at Z, so a first rising edge would not register) and
  // parks the external register pads at their reset value, giving
  // run_cycles the same base state as a freshly reset compiled engine.
  for (const Gate& g : circuit.gates())
    if (g.kind == GateKind::kDff) ev.clock_nets_.push_back(g.inputs[1]);
  std::sort(ev.clock_nets_.begin(), ev.clock_nets_.end());
  ev.clock_nets_.erase(
      std::unique(ev.clock_nets_.begin(), ev.clock_nets_.end()),
      ev.clock_nets_.end());
  for (NetId clk : ev.clock_nets_)
    if (circuit.is_input(clk)) ev.sim_->set_input(clk, Logic::k0);
  for (const ExternalReg& r : ev.regs_) ev.sim_->set_input(r.q, r.reset);
  // Latch-enable-driving inputs go first at each cycle: when an enable
  // falls in the same cycle a data input changes, the settled semantics
  // ("hold the previous cycle's value") require the enable to close before
  // the new data can race through a directly wired D pin.
  std::vector<char> drives_en(ev.in_nets_.size(), 0);
  for (const Gate& g : circuit.gates())
    if (g.kind == GateKind::kLatch)
      for (std::size_t j = 0; j < ev.in_nets_.size(); ++j)
        if (ev.in_nets_[j] == g.inputs[1]) drives_en[j] = 1;
  for (std::size_t j = 0; j < ev.in_nets_.size(); ++j)
    if (drives_en[j]) ev.en_first_.push_back(j);
  for (std::size_t j = 0; j < ev.in_nets_.size(); ++j)
    if (!drives_en[j]) ev.en_first_.push_back(j);
  if (!ev.sim_->settle())
    return Status::resource_exhausted("EventEval: base state never settled");
  return ev;
}

Status EventEval::run_cycles(std::span<const std::uint64_t> in_value,
                             std::span<const std::uint64_t> in_unknown,
                             std::span<std::uint64_t> out_value,
                             std::span<std::uint64_t> out_unknown,
                             std::size_t cycles, std::size_t lanes,
                             bool reset) {
  if (!reset)
    return Status::failed_precondition(
        "EventEval::run_cycles: carrying state across calls is not "
        "supported (lane simulators are rebuilt from the base per call)");
  if (cycles < 1)
    return Status::invalid_argument("run_cycles: cycles must be >= 1");
  if (lanes < 1)
    return Status::invalid_argument("run_cycles: lanes must be >= 1");
  const std::size_t nin = in_nets_.size();
  const std::size_t nout = out_nets_.size();
  const std::size_t words = (lanes + kBatchLanes - 1) / kBatchLanes;
  if (in_value.size() != nin * cycles * words ||
      in_unknown.size() != nin * cycles * words ||
      out_value.size() != nout * cycles * words ||
      out_unknown.size() != nout * cycles * words)
    return Status::invalid_argument(
        "run_cycles: " + std::to_string(lanes) + " lanes over " +
        std::to_string(cycles) + " cycles expect " +
        std::to_string(nin * cycles * words) + " input and " +
        std::to_string(nout * cycles * words) +
        " output plane words per plane");
  // The same implicit-clock contract as the compiled engine: run_cycles
  // models clocks only as "all pulse once per cycle", so a clock that is
  // gate-driven, not a primary input, or doubles as a bound data input
  // cannot be expressed (full timing simulation via the Simulator API can).
  for (NetId clk : clock_nets_) {
    if (!circuit_->is_input(clk))
      return Status::failed_precondition(
          "EventEval::run_cycles: DFF clock net " +
          net_label(*circuit_, clk) + " is not a primary input");
    for (NetId n : in_nets_)
      if (n == clk)
        return Status::failed_precondition(
            "EventEval::run_cycles: clock net " + net_label(*circuit_, clk) +
            " must not be bound as a data input");
  }
  if (!clock_nets_.empty()) {
    std::vector<char> is_clock(circuit_->net_count(), 0);
    for (NetId clk : clock_nets_) is_clock[clk] = 1;
    for (const Gate& g : circuit_->gates())
      if (is_clock[g.output])
        return Status::failed_precondition(
            "EventEval::run_cycles: clock net " +
            net_label(*circuit_, g.output) + " is gate-driven (gated clock)");
  }

  std::fill(out_value.begin(), out_value.end(), 0);
  std::fill(out_unknown.begin(), out_unknown.end(), 0);
  std::vector<Logic> captured(regs_.size());
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const std::size_t word = lane / kBatchLanes;
    const std::uint64_t bit = std::uint64_t{1} << (lane % kBatchLanes);
    // Each lane runs on a private copy of the settled, preamble-armed base.
    Simulator sim(*sim_);
    for (std::size_t c = 0; c < cycles; ++c) {
      for (const std::size_t i : en_first_) {
        const std::size_t ofs = (c * nin + i) * words + word;
        const Logic v = (in_unknown[ofs] & bit)
                            ? Logic::kX
                            : ((in_value[ofs] & bit) ? Logic::k1 : Logic::k0);
        sim.set_input(in_nets_[i], v);
      }
      if (!sim.settle(budget_))
        return Status::resource_exhausted(
            "EventEval: event budget exhausted (oscillation?)");
      for (std::size_t k = 0; k < nout; ++k) {
        const Logic v = sim.value(out_nets_[k]);
        const std::size_t ofs = (c * nout + k) * words + word;
        if (v == Logic::k1) out_value[ofs] |= bit;
        else if (v != Logic::k0) out_unknown[ofs] |= bit;
      }
      // Clock edge.  External D values are captured pre-edge; the clock
      // events are scheduled *before* the pad updates so a DFF whose D is
      // wired straight to a pad still captures the pre-edge value (events
      // at one timestamp apply in insertion order).
      for (std::size_t r = 0; r < regs_.size(); ++r) {
        const Logic d = sim.value(regs_[r].d);
        captured[r] = is_binary(d) ? d : Logic::kX;
      }
      for (NetId clk : clock_nets_) sim.set_input(clk, Logic::k1);
      for (std::size_t r = 0; r < regs_.size(); ++r)
        sim.set_input(regs_[r].q, captured[r]);
      if (!sim.settle(budget_))
        return Status::resource_exhausted(
            "EventEval: event budget exhausted (oscillation?)");
      for (NetId clk : clock_nets_) sim.set_input(clk, Logic::k0);
      if (!sim.settle(budget_))
        return Status::resource_exhausted(
            "EventEval: event budget exhausted (oscillation?)");
    }
  }
  return Status();
}

std::unique_ptr<Evaluator> EventEval::clone() const {
  return std::unique_ptr<Evaluator>(new EventEval(*this));
}

Status EventEval::eval_packed(std::span<const PackedBits> inputs,
                              std::span<PackedBits> outputs, int lanes) {
  if (lanes < 1 || lanes > kBatchLanes)
    return Status::invalid_argument(lanes_range_message("eval_packed"));
  if (inputs.size() != in_nets_.size() || outputs.size() != out_nets_.size())
    return Status::invalid_argument(
        "eval_packed: expected " + std::to_string(in_nets_.size()) +
        " inputs and " + std::to_string(out_nets_.size()) + " outputs");
  for (PackedBits& p : outputs) p = {};
  for (int lane = 0; lane < lanes; ++lane) {
    for (std::size_t j = 0; j < in_nets_.size(); ++j)
      sim_->set_input(in_nets_[j], get_lane(inputs[j], lane));
    if (!sim_->settle(budget_))
      return Status::resource_exhausted(
          "EventEval: event budget exhausted (oscillation?)");
    for (std::size_t k = 0; k < out_nets_.size(); ++k)
      set_lane(outputs[k], lane, sim_->value(out_nets_[k]));
  }
  return Status();
}

}  // namespace pp::sim
