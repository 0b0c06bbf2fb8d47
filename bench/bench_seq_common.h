// Shared clocked-batch comparison for the sequential bench sections (fig9,
// fig11, GALS): the same multi-cycle stimulus goes through the compiled
// sequential kernel (CompiledEval::run_cycles, SoA lanes with register
// planes — DESIGN.md §13) and the settled event oracle (EventEval's
// per-lane cycle protocol), every call's outputs are compared bit for bit
// (X included), and the speedup of the median calls is reported against
// the >= 20x acceptance gate at 512 lanes.  Each bench records its numbers
// under `seq_*` metrics; CI collects those into BENCH_seq.json.
#pragma once

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "sim/circuit.h"
#include "sim/evaluator.h"
#include "util/table.h"

namespace pp::bench {

/// Cycle-major two-valued stimulus planes in the layout run_cycles speaks:
/// input j of cycle c, lane l at `value[(c * inputs + j) * words + l/64]`.
struct SeqStimulus {
  std::vector<std::uint64_t> value;
  std::vector<std::uint64_t> unknown;  // all-zero: two-valued stimulus
  std::size_t inputs, words;

  SeqStimulus(std::size_t inputs, std::size_t cycles, std::size_t lanes)
      : value(inputs * cycles * ((lanes + 63) / 64), 0),
        unknown(value.size(), 0),
        inputs(inputs),
        words((lanes + 63) / 64) {}

  void set(std::size_t cycle, std::size_t input, std::size_t lane, bool v) {
    const std::size_t ofs = (cycle * inputs + input) * words + lane / 64;
    const std::uint64_t bit = std::uint64_t{1} << (lane % 64);
    if (v)
      value[ofs] |= bit;
    else
      value[ofs] &= ~bit;
  }
};

/// The numbers one compiled-vs-event comparison yields.
struct SeqCompare {
  double event_ms = 0;
  double compiled_ms = 0;
  double speedup = 0;
  bool identical = false;  ///< outputs bit-for-bit equal, X included
  bool ok = false;         ///< both engines ran and outputs matched
  sim::KernelStats kernel;  ///< compiled cycle counters of one call
};

/// Run `stimulus` for `cycles` cycles on `lanes` lanes through both
/// engines and compare.  `in_nets`/`out_nets`/`regs` follow
/// CompiledEval::compile_sequential's contract (clock nets are driven by
/// the engines, not listed as inputs).
inline SeqCompare compare_seq_engines(const sim::Circuit& circuit,
                                      const std::vector<sim::NetId>& in_nets,
                                      const std::vector<sim::NetId>& out_nets,
                                      const SeqStimulus& stimulus,
                                      std::size_t cycles, std::size_t lanes,
                                      std::vector<sim::ExternalReg> regs = {}) {
  SeqCompare r;
  const std::size_t words = (lanes + 63) / 64;
  const std::size_t out_sz = out_nets.size() * cycles * words;
  std::vector<std::uint64_t> ev_value(out_sz), ev_unknown(out_sz);
  std::vector<std::uint64_t> cv_value(out_sz), cv_unknown(out_sz);

  auto event = sim::EventEval::create(circuit, in_nets, out_nets,
                                      2'000'000, regs);
  if (!event.ok()) {
    std::printf("event engine: %s\n", event.status().to_string().c_str());
    return r;
  }
  auto compiled = sim::CompiledEval::compile_sequential(circuit, in_nets,
                                                        out_nets, regs);
  if (!compiled.ok()) {
    std::printf("compiled engine: %s\n", compiled.status().to_string().c_str());
    return r;
  }

  // The oracle's first output is the reference.  Both engines are then
  // timed the same way (median_call_ms: one warm-up call, then the median
  // of 5 samples of >= 1 ms), and every call's output must match the
  // reference bit for bit, dead lanes masked (the final partial word, if
  // any).
  std::vector<std::uint64_t> ref_value(out_sz), ref_unknown(out_sz);
  Status failed = event->run_cycles(stimulus.value, stimulus.unknown,
                                    ref_value, ref_unknown, cycles, lanes);
  const auto matches = [&](const std::vector<std::uint64_t>& value,
                           const std::vector<std::uint64_t>& unknown) {
    for (std::size_t i = 0; i < out_sz; ++i) {
      const std::size_t w = i % words;
      const std::uint64_t mask =
          (w + 1) * 64 <= lanes ? ~std::uint64_t{0}
                                : (std::uint64_t{1} << (lanes % 64)) - 1;
      if (((ref_value[i] ^ value[i]) & mask & ~ref_unknown[i]) != 0 ||
          ((ref_unknown[i] ^ unknown[i]) & mask) != 0)
        return false;
    }
    return true;
  };
  const auto time_ms = [&](sim::Evaluator& engine,
                           std::vector<std::uint64_t>& value,
                           std::vector<std::uint64_t>& unknown) {
    return median_call_ms(
        [&] {
          const Status s = engine.run_cycles(stimulus.value, stimulus.unknown,
                                             value, unknown, cycles, lanes);
          if (!s.ok()) failed = s;
          return s.ok();
        },
        [&] { return matches(value, unknown); }, 1.0);
  };
  // One untimed compiled call sets the kernel counters the table shows.
  if (failed.ok())
    failed = compiled->run_cycles(stimulus.value, stimulus.unknown, cv_value,
                                  cv_unknown, cycles, lanes);
  r.kernel = compiled->kernel_stats();
  if (failed.ok() && matches(cv_value, cv_unknown)) {
    r.event_ms = time_ms(*event, ev_value, ev_unknown);
    r.compiled_ms = time_ms(*compiled, cv_value, cv_unknown);
  }
  if (!failed.ok()) {
    std::printf("run_cycles: %s\n", failed.to_string().c_str());
    return r;
  }
  r.identical = r.event_ms > 0 && r.compiled_ms > 0;
  r.speedup = r.identical ? r.event_ms / r.compiled_ms : 0;
  r.ok = r.identical;
  return r;
}

/// Print the uniform compiled-vs-event table for one clocked bench section
/// and record the `seq_*` metrics.  Returns whether the section passes the
/// acceptance gate: bit-identical outputs and >= 20x speedup.
inline bool report_seq_section(const char* title, const SeqCompare& r,
                               std::size_t cycles, std::size_t lanes) {
  util::Table t(title);
  t.header({"lanes", "cycles", "event (ms)", "compiled (ms)", "speedup",
            "fast cycles", "state commits", "identical"});
  t.row({util::Table::num(static_cast<long long>(lanes)),
         util::Table::num(static_cast<long long>(cycles)),
         util::Table::num(r.event_ms, 1), util::Table::num(r.compiled_ms, 3),
         util::Table::num(r.speedup, 1),
         util::Table::num(static_cast<long long>(r.kernel.fast_cycle_passes)),
         util::Table::num(static_cast<long long>(r.kernel.state_commits)),
         r.identical ? "yes" : "NO"});
  t.print();
  record("seq_speedup", r.speedup);
  record("seq_compiled_ms", r.compiled_ms);
  record("seq_event_ms", r.event_ms);
  record("seq_identical", r.identical ? 1 : 0);
  const bool pass = r.ok && r.speedup >= 20.0;
  std::printf("sequential gate: %s (>= 20x at %zu lanes, bit-identical)\n\n",
              pass ? "pass" : "FAIL", lanes);
  return pass;
}

}  // namespace pp::bench
