#include "core/block.h"

#include <cstring>
#include <string>
#include <type_traits>

namespace pp::core {

BlockConfig::BlockConfig() {
  for (auto& row : xpoint) row.fill(BiasLevel::kForce1);
  driver.fill(DriverCfg::kOff);
  col_src.fill(ColSource::kAbut);
  lfb_src.fill(LfbSel{});
}

BlockConfig BlockConfig::empty() { return BlockConfig{}; }

bool BlockConfig::is_empty() const {
  // Every field is one byte, so the bytes are the value: one memcmp instead
  // of a field-by-field compare, which a whole-array scan feels.
  static_assert(std::has_unique_object_representations_v<BlockConfig>);
  static const BlockConfig kEmpty;
  return std::memcmp(this, &kEmpty, sizeof kEmpty) == 0;
}

int BlockConfig::active_cells() const {
  int count = 0;
  for (const auto& row : xpoint)
    for (BiasLevel b : row)
      if (b != BiasLevel::kForce1) ++count;
  for (DriverCfg d : driver)
    if (d != DriverCfg::kOff) ++count;
  for (const LfbSel& s : lfb_src)
    if (s.which != LfbWhich::kOff) ++count;
  return count;
}

int BlockConfig::used_terms() const {
  int count = 0;
  for (int r = 0; r < kBlockOutputs; ++r) {
    bool any = false;
    for (BiasLevel b : xpoint[r])
      if (b == BiasLevel::kActive) any = true;
    if (any) ++count;
  }
  return count;
}

std::string BlockConfig::validate() const {
  // Plain appends: a stream per call would cost more than the checks.
  std::string err;
  for (int k = 0; k < kLfbLines; ++k) {
    if (lfb_src[k].which != LfbWhich::kOff &&
        lfb_src[k].row >= kBlockOutputs)
      err += "lfb" + std::to_string(k) + " selects nonexistent row " +
             std::to_string(lfb_src[k].row) + "\n";
  }
  for (int c = 0; c < kBlockInputs; ++c) {
    const ColSource s = col_src[c];
    if (s == ColSource::kLfb0 && lfb_src[0].which == LfbWhich::kOff)
      err += "column " + std::to_string(c) +
             " reads lfb0 which has no source\n";
    if (s == ColSource::kLfb1 && lfb_src[1].which == LfbWhich::kOff)
      err += "column " + std::to_string(c) +
             " reads lfb1 which has no source\n";
  }
  return err;
}

bool block_row_value(const BlockConfig& cfg, int row,
                     const std::array<bool, kBlockInputs>& in) {
  bool any_active = false;
  for (int c = 0; c < kBlockInputs; ++c) {
    switch (cfg.xpoint[row][c]) {
      case BiasLevel::kForce0:
        return true;  // row disabled: pull-up wins unconditionally
      case BiasLevel::kForce1:
        break;  // input not instantiated
      case BiasLevel::kActive:
        if (!in[c]) return true;  // dominant 0 on a NAND term
        any_active = true;
        break;
    }
  }
  // No dominant 0: /(AND of actives) = 0 if the term has active inputs,
  // else the pulled-up constant 1.
  return !any_active;
}

std::optional<bool> block_driver_value(const BlockConfig& cfg, int row,
                                       bool row_value) {
  switch (cfg.driver[row]) {
    case DriverCfg::kOff: return std::nullopt;
    case DriverCfg::kInvert: return !row_value;
    case DriverCfg::kBuffer:
    case DriverCfg::kPass: return row_value;
  }
  return std::nullopt;
}

}  // namespace pp::core
