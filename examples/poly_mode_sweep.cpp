// Polymorphic gates end-to-end: a dual-function datapath (NAND3 in
// environment mode A, NOR3 in mode B) taken from a multi-mode truth-table
// spec to silicon-ready views and swept in one batch.
//
//   1. Judge the gate library polymorphically complete (arXiv 1709.03065).
//   2. Synthesize the spec by bi-decomposition (arXiv 1709.03067) into one
//      netlist of polymorphic + ordinary cells.
//   3. Compile every environment mode to its configuration view and load
//      the whole design into one mode-aware Session.
//   4. Sweep both modes over all input rows in a single batch and print
//      the per-mode truth tables.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "map/netlist.h"
#include "map/truth_table.h"
#include "platform/compiler.h"
#include "platform/session.h"
#include "poly/gate.h"
#include "poly/synth.h"

int main() {
  using namespace pp;

  // ---- 1. The gate library and its completeness judgment -----------------
  // NAND/NOR is the paper's canonical polymorphic cell; with an ordinary
  // NAND alongside it this is the classic complete polymorphic basis.
  // (NAND/NOR alone is complete in each mode yet polymorphically
  // incomplete — no circuit over it can tell the modes apart.)
  // is_complete proves every (mode-A, mode-B) function pair is realizable
  // over this library before we ask for one.
  const poly::GateLibrary lib{
      2, {poly::make_nand_nor(),
          poly::make_ordinary(map::CellKind::kNand, 2, 2)}};
  auto judgment = poly::is_complete(lib);
  if (!judgment.ok())
    return std::printf("%s\n", judgment.status().to_string().c_str()), 1;
  std::printf("library {NAND/NOR, NAND}: %s\n  %s\n",
              judgment->complete ? "polymorphically complete" : "INCOMPLETE",
              judgment->reason.c_str());

  // ---- 2. A dual-function spec, synthesized ------------------------------
  poly::PolySpec spec;
  spec.modes = {
      map::TruthTable::from_function(3, [](std::uint8_t i) { return i != 7; }),
      map::TruthTable::from_function(3, [](std::uint8_t i) { return i == 0; }),
  };
  spec.input_names = {"a", "b", "c"};
  spec.output_name = "y";
  auto net = poly::synthesize(spec, lib);
  if (!net.ok())
    return std::printf("%s\n", net.status().to_string().c_str()), 1;
  std::printf("synthesized NAND3/NOR3: %zu cells, %d polymorphic\n",
              net->cell_count(), net->poly_count());

  // ---- 3. One configuration view per mode, one mode-aware Session --------
  auto design = platform::Compiler().compile_poly(*net);
  if (!design.ok())
    return std::printf("%s\n", design.status().to_string().c_str()), 1;
  std::printf("compiled %zu configuration views (mode A: %d bytes, "
              "mode B: %d bytes of bitstream)\n",
              design->views.size(),
              static_cast<int>(design->views[0].bitstream.size()),
              static_cast<int>(design->views[1].bitstream.size()));
  auto session = platform::Session::load_poly(*design);
  if (!session.ok())
    return std::printf("%s\n", session.status().to_string().c_str()), 1;

  // ---- 4. Sweep both modes in one batch ----------------------------------
  // sweep_modes answers every environment mode in a single mode-major
  // compiled pass: mode m's outputs for vector v land at m * V + v.
  std::vector<platform::InputVector> rows;
  for (int r = 0; r < 8; ++r)
    rows.push_back({(r & 1) != 0, (r & 2) != 0, (r & 4) != 0});
  auto swept = session->run_vectors(rows, {.sweep_modes = true});
  if (!swept.ok())
    return std::printf("%s\n", swept.status().to_string().c_str()), 1;

  std::printf("\n cba | mode A (NAND3) | mode B (NOR3)\n");
  std::printf("-----+----------------+--------------\n");
  for (std::size_t r = 0; r < rows.size(); ++r)
    std::printf(" %d%d%d |       %d        |       %d\n",
                int(rows[r][2]), int(rows[r][1]), int(rows[r][0]),
                int((*swept)[r][0]), int((*swept)[rows.size() + r][0]));
  std::printf("\nthe fabric never reconfigured between the two columns — "
              "the environment is the mode selector.\n");
  // Row r drives a, b, c = bits 0, 1, 2 of r: truth-table entry r.
  int mismatches = 0;
  for (std::size_t m = 0; m < spec.modes.size(); ++m)
    for (std::size_t r = 0; r < rows.size(); ++r)
      if ((*swept)[m * rows.size() + r][0] !=
          spec.modes[m].eval(static_cast<std::uint8_t>(r)))
        ++mismatches;
  if (mismatches != 0)
    return std::printf("MISMATCH: %d swept outputs differ from the spec\n",
                       mismatches),
           1;
  return 0;
}
