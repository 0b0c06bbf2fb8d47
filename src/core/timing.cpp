#include "core/timing.h"

#include <algorithm>
#include <numeric>

namespace pp::core {

using sim::Circuit;
using sim::Gate;
using sim::GateId;
using sim::GateKind;
using sim::NetId;
using sim::SimTime;

namespace {

/// Gate output depends on gate inputs, except for state and constant gates,
/// whose outputs are timing start points.
bool combinational(const Gate& g) {
  const GateKind k = g.kind;
  return k != GateKind::kDff && k != GateKind::kLatch &&
         k != GateKind::kCElement && k != GateKind::kConst0 &&
         k != GateKind::kConst1;
}

}  // namespace

TimingReport analyze_timing(const Circuit& ckt) {
  const auto nnets = static_cast<std::uint32_t>(ckt.net_count());
  const auto ngates = static_cast<std::uint32_t>(ckt.gate_count());

  TimingReport rep;
  rep.arrival.assign(nnets, 0);
  rep.in_loop.assign(nnets, false);

  // Per net: its combinational drivers not yet fired, and (flat CSR) the
  // combinational gates reading it, once per pin.  Per gate: its input
  // pins not yet settled.
  std::vector<std::uint32_t> pending_drivers(nnets, 0);
  std::vector<std::uint32_t> pending_pins(ngates, 0);
  std::vector<std::uint32_t> fanout_begin(nnets + 1, 0);
  for (GateId g = 0; g < ngates; ++g) {
    const Gate& gate = ckt.gate(g);
    if (!combinational(gate)) continue;
    ++pending_drivers[gate.output];
    pending_pins[g] = static_cast<std::uint32_t>(gate.inputs.size());
    for (NetId in : gate.inputs) ++fanout_begin[in];
  }
  std::partial_sum(fanout_begin.begin(), fanout_begin.end(),
                   fanout_begin.begin());
  std::vector<GateId> fanout(fanout_begin[nnets]);
  for (GateId g = 0; g < ngates; ++g)
    if (combinational(ckt.gate(g)))
      for (NetId in : ckt.gate(g).inputs) fanout[--fanout_begin[in]] = g;

  // One Kahn pass: a gate fires once all its inputs have settled, and a net
  // settles once all its combinational drivers have fired, so a net's
  // arrival is final when it settles.
  std::vector<NetId> settled;
  settled.reserve(nnets);
  for (NetId n = 0; n < nnets; ++n)
    if (pending_drivers[n] == 0) settled.push_back(n);
  auto fire = [&](GateId g) {
    const Gate& gate = ckt.gate(g);
    SimTime in_arrival = 0;
    for (NetId in : gate.inputs)
      in_arrival = std::max(in_arrival, rep.arrival[in]);
    rep.arrival[gate.output] =
        std::max(rep.arrival[gate.output], in_arrival + gate.delay_ps);
    if (--pending_drivers[gate.output] == 0) settled.push_back(gate.output);
  };
  for (GateId g = 0; g < ngates; ++g)
    if (combinational(ckt.gate(g)) && pending_pins[g] == 0) fire(g);
  for (std::size_t head = 0; head < settled.size(); ++head) {
    const NetId n = settled[head];
    for (std::uint32_t i = fanout_begin[n]; i < fanout_begin[n + 1]; ++i)
      if (--pending_pins[fanout[i]] == 0) fire(fanout[i]);
  }

  for (NetId n = 0; n < nnets; ++n) {
    if (pending_drivers[n] != 0) {
      // Never settled: on a combinational loop or downstream of one, so
      // its arrival bound is unreliable.
      rep.in_loop[n] = true;
      rep.arrival[n] = 0;
      ++rep.loop_nets;
    } else if (rep.arrival[n] > rep.critical_path_ps) {
      rep.critical_path_ps = rep.arrival[n];
      rep.critical_net = n;
    }
  }
  return rep;
}

}  // namespace pp::core
