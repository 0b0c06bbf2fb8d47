// The 6x6 NAND-array block of Fig. 7 — the unit of configuration of the
// polymorphic platform.
//
// A block is a 6-input / 6-output NAND plane built from polymorphic leaf
// cells (Figs. 4-6).  Each crosspoint holds one three-level back-gate bias:
//
//   kForce1 : the input is treated as constant 1 — it simply does not
//             participate in this row's NAND term (the "not instantiated"
//             state the paper's area argument depends on);
//   kActive : the input participates in the term;
//   kForce0 : the row is forced high regardless of inputs (row disabled).
//
// Each output row terminates in the configurable inverting / non-inverting /
// 3-state driver of Fig. 5, which (a) decouples the block from its
// neighbours, (b) sets the direction of logic flow, (c) provides the
// feed-through path that turns unused logic into interconnect, and (d) can
// degrade to a plain pass-transistor connection.
//
// Two local feedback lines (lfb, Fig. 8) can each tap one output row and be
// read by any input column in place of the abutted inter-block line; they
// provide the local feedback from which latches and flip-flops are built
// "using standard asynchronous state machine techniques" (Fig. 9).
//
// Configuration storage: the paper states each block appears externally as a
// multi-valued 8x8 RAM requiring 128 bits.  Our layout accounts for exactly
// that: 64 three-level cells (trits), each encoded in 2 bits = 128 bits.
// See block.cpp for the cell-by-cell layout (36 crosspoints + 12 driver +
// 6 column-source + 4 lfb-select + 6 spare).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "device/nand2.h"

namespace pp::core {

inline constexpr int kBlockInputs = 6;   ///< input columns per block
inline constexpr int kBlockOutputs = 6;  ///< output rows (NAND terms)
inline constexpr int kLfbLines = 2;      ///< local feedback lines per block
inline constexpr int kConfigTrits = 64;  ///< 8x8 multi-valued RAM cells
inline constexpr int kConfigBits = 128;  ///< 2 bits per trit, paper's figure

using device::BiasLevel;

/// Output-row driver configuration (Fig. 5 modes).
enum class DriverCfg : std::uint8_t {
  kOff = 0,     ///< 3-state released: block decoupled from the abutted line
  kInvert = 1,  ///< drives the complement of the row (active NAND output)
  kBuffer = 2,  ///< drives the row value (feed-through / cascading)
  kPass = 3,    ///< pass-transistor connection (fast, non-restoring)
};

/// What an input column reads.
enum class ColSource : std::uint8_t {
  kAbut = 0,  ///< the abutted inter-block line (west/north neighbour)
  kLfb0 = 1,  ///< local feedback line 0
  kLfb1 = 2,  ///< local feedback line 1
};

/// Which block a local feedback line taps.  The paper draws the lfb lines
/// running between members of a configured block *pair* (Fig. 8): feedback
/// may come from the block's own rows (latch inside one block) or from the
/// rows of the block immediately east or south (the downstream half of the
/// pair) — this is what closes the loop for flip-flops (Fig. 9) and the
/// Muller C-element (Fig. 11) without any non-local wiring.
enum class LfbWhich : std::uint8_t { kOff = 0, kOwn = 1, kEast = 2, kSouth = 3 };

struct LfbSel {
  LfbWhich which = LfbWhich::kOff;
  std::uint8_t row = 0;  ///< tapped output row of the selected block
  bool operator==(const LfbSel&) const = default;
};

struct BlockConfig {
  /// xpoint[row][col]; default kForce1 = input not instantiated in the term.
  std::array<std::array<BiasLevel, kBlockInputs>, kBlockOutputs> xpoint{};
  std::array<DriverCfg, kBlockOutputs> driver{};
  std::array<ColSource, kBlockInputs> col_src{};
  std::array<LfbSel, kLfbLines> lfb_src{};

  BlockConfig();

  /// All-off block: every crosspoint ignored, every driver released.
  [[nodiscard]] static BlockConfig empty();

  /// True if nothing in the block is instantiated (the idle tile).
  [[nodiscard]] bool is_empty() const;

  /// Count of leaf cells actually instantiated (active crosspoints +
  /// enabled drivers + lfb taps) — the quantity the paper's area argument
  /// counts, since unused polymorphic cells are *configured away*.
  [[nodiscard]] int active_cells() const;

  /// Rows whose NAND term has at least one active input.
  [[nodiscard]] int used_terms() const;

  /// Sanity diagnostics (e.g. lfb select out of range, column reading an
  /// unsourced lfb).  Empty string = OK.  Neighbour existence is checked by
  /// Fabric::check, which knows the block's position.
  [[nodiscard]] std::string validate() const;

  bool operator==(const BlockConfig&) const = default;
};

/// Evaluate one row's NAND term digitally for given column values — the
/// ideal semantics the elaborated circuit must match (used by tests and the
/// truth-table oracle in pp::map).
[[nodiscard]] bool block_row_value(const BlockConfig& cfg, int row,
                                   const std::array<bool, kBlockInputs>& in);

/// Value leaving driver `row` given its row value; nullopt = Z (driver off).
[[nodiscard]] std::optional<bool> block_driver_value(const BlockConfig& cfg,
                                                     int row, bool row_value);

}  // namespace pp::core
