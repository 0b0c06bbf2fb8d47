// The block array of Fig. 8: adjacent-only connectivity with 90°-rotated
// neighbours, elaborated into a pp::sim circuit.
//
// Connectivity model (documented modelling decision — DESIGN.md §5):
//  * Block (r,c) owns six *input lines*, one per NAND column.  Input line j
//    can be driven, through 3-state drivers only, by
//       - output driver j of the WEST neighbour (r, c-1),
//       - output driver j of the NORTH neighbour (r-1, c),
//    which realises the paper's "outputs of each cell abut the inputs of the
//    two adjacent cells" under the 90° rotation.  At most one of the two may
//    be enabled; enabling both is a configuration error that the simulator
//    surfaces as contention (X).
//  * A block's output driver i is physically one driver whose output node
//    touches both abutting lines; we instantiate one 3-state gate per
//    abutted line sharing the same configuration.  With the driver released
//    the two lines float independently (the driver's output junction
//    isolates them), matching the electrical reality.
//  * Input lines on the array's west and north boundary are primary-input
//    attachment points; output-driver nets reaching the east and south
//    boundary are primary outputs.
//  * Column j of a block may instead read one of the block's two lfb lines
//    (local feedback, Fig. 8), each tapping a configured output row — this
//    is what makes state elements possible without global routing.
#pragma once

#include <cstdint>
#include <vector>

#include "core/block.h"
#include "sim/circuit.h"
#include "sim/simulator.h"
#include "util/status.h"

namespace pp::core {

/// Gate timing used during elaboration.  Values are picoseconds; defaults
/// are the 22 nm-class numbers produced by pp::arch::scaled_delays (kept
/// here literally so core does not depend on arch).
struct FabricDelays {
  sim::SimTime nand_ps = 10;    ///< NAND plane row evaluation
  sim::SimTime driver_ps = 8;   ///< restoring driver (invert/buffer)
  sim::SimTime pass_ps = 3;     ///< pass-transistor connection
  sim::SimTime lfb_ps = 2;      ///< local feedback tap

  bool operator==(const FabricDelays&) const = default;
};

/// Where a fabric net lives, for diagnostics and the mapper.
struct LinePos {
  int r, c, line;
  bool operator==(const LinePos&) const = default;
};

class Fabric;

/// The result of elaborating a configured fabric: a simulatable circuit plus
/// the net bookkeeping needed to drive and observe it.  Only what the
/// configuration uses is in the circuit (DESIGN.md §5); the accessors still
/// answer for every in-range coordinate, with a net that settles to what
/// the unmade part would.
class ElaboratedFabric {
 public:
  [[nodiscard]] const sim::Circuit& circuit() const noexcept { return circuit_; }

  /// Input line j of block (r,c); r in [0,rows], c in [0,cols] — the
  /// out-of-range row/col index addresses the south/east boundary nets.  A
  /// line no made gate reads or drives answers one shared undriven net
  /// (it floats, Z); the corner (rows, cols), which no block abuts, answers
  /// kNoNet.
  [[nodiscard]] sim::NetId in_line(int r, int c, int j) const;
  /// NAND row net i of block (r,c) (before the output driver).  A row of an
  /// unmade block (empty, and tapped by no lfb) answers the shared
  /// constant-1 net, the value its unconfigured NAND term settles to.
  [[nodiscard]] sim::NetId row_net(int r, int c, int i) const;
  /// lfb net k of block (r,c); kNoNet if that lfb has no source.
  [[nodiscard]] sim::NetId lfb_net(int r, int c, int k) const;

  /// Primary-input nets (all west- and north-boundary input lines).
  [[nodiscard]] const std::vector<sim::NetId>& primary_inputs() const noexcept {
    return primary_inputs_;
  }

  [[nodiscard]] int rows() const noexcept { return rows_; }
  [[nodiscard]] int cols() const noexcept { return cols_; }

 private:
  friend class Fabric;
  int rows_ = 0, cols_ = 0;
  sim::Circuit circuit_;
  // kNoNet marks an unmade line or row (the accessors answer for it).
  std::vector<sim::NetId> in_lines_;   // (rows+1) x (cols+1) x 6
  std::vector<sim::NetId> row_nets_;   // rows x cols x 6
  std::vector<sim::NetId> lfb_nets_;   // rows x cols x 2
  std::vector<sim::NetId> primary_inputs_;
  sim::NetId const1_ = sim::kNoNet;    // answers for an unmade row
  sim::NetId floating_ = sim::kNoNet;  // answers for an unmade input line
};

class Fabric {
 public:
  /// Throws std::invalid_argument on non-positive dimensions; prefer
  /// `create` in new code.
  Fabric(int rows, int cols);

  /// Status-returning factory.
  [[nodiscard]] static Result<Fabric> create(int rows, int cols);

  [[nodiscard]] int rows() const noexcept { return rows_; }
  [[nodiscard]] int cols() const noexcept { return cols_; }

  [[nodiscard]] BlockConfig& block(int r, int c);
  [[nodiscard]] const BlockConfig& block(int r, int c) const;

  /// Clear every block to the empty configuration.
  void clear();

  /// Count of instantiated leaf cells over the whole array (area proxy).
  [[nodiscard]] int active_cells() const;
  /// Number of non-empty blocks.
  [[nodiscard]] int used_blocks() const;

  /// Static configuration checks across blocks: per input line at most one
  /// enabled abutting driver; block-local validity.  The error message
  /// carries one diagnostic line per violation.  Only non-empty blocks can
  /// violate either, so only they are visited.
  [[nodiscard]] Status check() const;

  /// Build the simulatable circuit of what the configuration uses: the
  /// west/north boundary lines, the rows and gates of every non-empty block,
  /// the rows of every block an lfb taps, and the input lines those rows
  /// read and drivers drive (DESIGN.md §5).  Fails with kInvalidArgument
  /// when the configuration does not pass `check()`.
  [[nodiscard]] Result<ElaboratedFabric> try_elaborate(
      const FabricDelays& d = {}) const;

  /// Deprecated shim over `try_elaborate`; throws std::invalid_argument on a
  /// configuration error.
  [[nodiscard]] ElaboratedFabric elaborate(const FabricDelays& d = {}) const;

 private:
  [[nodiscard]] int idx(int r, int c) const { return r * cols_ + c; }
  /// Row-major indices of the non-empty blocks.
  [[nodiscard]] std::vector<int> used_indices() const;
  int rows_, cols_;
  std::vector<BlockConfig> blocks_;
};

}  // namespace pp::core
