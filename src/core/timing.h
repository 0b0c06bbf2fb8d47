// Static timing analysis over elaborated circuits.
//
// Computes longest combinational arrival times from timing start points
// (primary inputs, state-element outputs, constants) to every net, treating
// state-holding gates (DFF/latch/C-element) as path endpoints.  Nets caught
// in purely combinational feedback loops (the fabric's cross-coupled NAND
// latches before they are recognised as state), and every net downstream of
// one, have no finite longest path: they are reported as loop nets and
// excluded from arrival propagation.
//
// This gives the paper-facing numbers (Fig. 9 clock-to-Q scale, Fig. 10
// ripple depth) without simulation, and lets tests assert that simulated
// settling times never exceed the static bound.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/circuit.h"

namespace pp::core {

struct TimingReport {
  /// Longest arrival time per net (ps); 0 for start points and loop nets.
  std::vector<sim::SimTime> arrival;
  /// True for nets on a combinational cycle or downstream of one.
  std::vector<bool> in_loop;
  /// Longest arrival over all nets (the combinational critical path).
  sim::SimTime critical_path_ps = 0;
  /// Net achieving the critical path (kNoNet if no arrival exceeds 0).
  sim::NetId critical_net = sim::kNoNet;
  /// Number of nets flagged in `in_loop`.
  int loop_nets = 0;
};

/// Analyse a circuit in one topological (Kahn) pass over the combinational
/// gates: O(nets + gate pins); the nets it cannot order are the loop nets.
[[nodiscard]] TimingReport analyze_timing(const sim::Circuit& circuit);

}  // namespace pp::core
