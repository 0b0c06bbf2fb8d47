// Logic synthesis on the polymorphic fabric: from truth tables to
// configured, timed, simulated hardware — driven through platform::Session.
//
//   1. A multi-output PLA pair (the paper's "6-input, 6-output, 6-term
//      LUT") computing majority + AND + NOR with shared product terms.
//   2. A 4-variable function mapped by Shannon decomposition (three 3-LUT
//      chains + feed-through ladder).
//   3. Static timing of both, cross-checked against simulation.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>

#include "core/timing.h"
#include "map/lut4.h"
#include "map/pla.h"
#include "platform/session.h"

int main() {
  using namespace pp;

  // ---- 1. Multi-output PLA pair ------------------------------------------
  const auto maj = map::TruthTable::from_function(
      3, [](std::uint8_t i) { return std::popcount(unsigned(i)) >= 2; });
  const auto and3 =
      map::TruthTable::from_function(3, [](std::uint8_t i) { return i == 7; });
  const auto nor3 =
      map::TruthTable::from_function(3, [](std::uint8_t i) { return i == 0; });

  core::Fabric pf(1, 4);
  const auto pla = map::pla_pair(pf, 0, 0, {maj, and3, nor3});
  std::printf("PLA pair: 3 outputs from %d shared terms (%d unshared)\n",
              pla.terms_used, pla.terms_unshared);
  auto psession = platform::Session::from_fabric(
      std::move(pf),
      {{"a", pla.inputs[0]}, {"b", pla.inputs[1]}, {"c", pla.inputs[2]}},
      {{"maj", pla.outputs[0]}, {"and", pla.outputs[1]},
       {"nor", pla.outputs[2]}});
  if (!psession.ok())
    return std::printf("%s\n", psession.status().to_string().c_str()), 1;
  // Every row is checked against the truth tables the PLA was built from;
  // an X output or a wrong bit is a mismatch.
  int mismatches = 0;
  const auto read = [&](const platform::Session& s, const std::string& port,
                        bool want) {
    const auto got = s.peek_bool(port);
    if (!got.ok() || *got != want) ++mismatches;
    return got.value_or(false);
  };
  std::printf(" cba | maj and nor\n-----+------------\n");
  for (int input = 0; input < 8; ++input) {
    (void)psession->poke("a", input & 1);
    (void)psession->poke("b", (input >> 1) & 1);
    (void)psession->poke("c", (input >> 2) & 1);
    (void)psession->settle();
    const auto i = static_cast<std::uint8_t>(input);
    std::printf(" %d%d%d |  %d   %d   %d\n", (input >> 2) & 1,
                (input >> 1) & 1, input & 1,
                int(read(*psession, "maj", maj.eval(i))),
                int(read(*psession, "and", and3.eval(i))),
                int(read(*psession, "nor", nor3.eval(i))));
  }

  // ---- 2. Shannon-decomposed LUT4 ----------------------------------------
  // f(x0..x3) = 1 iff the 4-bit value is prime (2,3,5,7,11,13).
  map::TruthTable prime(4);
  for (int v : {2, 3, 5, 7, 11, 13}) prime.set(static_cast<std::uint8_t>(v), true);
  core::Fabric lf(3, 8);
  const auto l4 = map::lut4(lf, 0, prime);
  std::vector<platform::PortBinding> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back({"f0_x" + std::to_string(i), l4.inputs_f0[i]});
    inputs.push_back({"f1_x" + std::to_string(i), l4.inputs_f1[i]});
  }
  inputs.push_back({"x3", l4.x3});
  auto lsession = platform::Session::from_fabric(std::move(lf), inputs,
                                                 {{"f", l4.out}});
  if (!lsession.ok())
    return std::printf("%s\n", lsession.status().to_string().c_str()), 1;
  std::printf("\nLUT4 'is-prime' on the fabric (%d blocks):\n  primes found:",
              l4.blocks_used);
  for (int v = 0; v < 16; ++v) {
    for (int i = 0; i < 3; ++i) {
      (void)lsession->poke("f0_x" + std::to_string(i), (v >> i) & 1);
      (void)lsession->poke("f1_x" + std::to_string(i), (v >> i) & 1);
    }
    (void)lsession->poke("x3", (v >> 3) & 1);
    (void)lsession->settle();
    if (read(*lsession, "f", prime.eval(static_cast<std::uint8_t>(v))))
      std::printf(" %d", v);
  }
  std::printf("\n");
  if (mismatches != 0)
    return std::printf("MISMATCH: %d outputs differ from the truth tables\n",
                       mismatches),
           1;

  // ---- 3. Static timing --------------------------------------------------
  const auto pt = core::analyze_timing(psession->circuit());
  const auto lt = core::analyze_timing(lsession->circuit());
  std::printf("\nstatic timing: PLA critical path %llu ps, "
              "LUT4 critical path %llu ps (loop nets: %d/%d)\n",
              static_cast<unsigned long long>(pt.critical_path_ps),
              static_cast<unsigned long long>(lt.critical_path_ps),
              pt.loop_nets, lt.loop_nets);
  return 0;
}
