// The whole-array configuration check, as Fabric::check ran it when it
// visited every block and every input line.  Fabric::check now visits only
// the used blocks; this reference is what it is held to, on
// property_test's random fabrics and on every bitstream_fuzz_test mutation
// that decodes.
#pragma once

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/fabric.h"
#include "util/status.h"

namespace pp::core::check_test {

/// Block-local validity, lfb taps off the array edge, and abutment
/// contention, scanned over the whole array in row-major order.
[[nodiscard]] inline Status reference_check(const Fabric& f) {
  std::ostringstream err;
  for (int r = 0; r < f.rows(); ++r) {
    for (int c = 0; c < f.cols(); ++c) {
      const BlockConfig& b = f.block(r, c);
      const std::string local = b.validate();
      if (!local.empty())
        err << "block(" << r << "," << c << "): " << local;
      for (int k = 0; k < kLfbLines; ++k) {
        if (b.lfb_src[k].which == LfbWhich::kEast && c == f.cols() - 1)
          err << "block(" << r << "," << c << "): lfb" << k
              << " taps east neighbour at array edge\n";
        if (b.lfb_src[k].which == LfbWhich::kSouth && r == f.rows() - 1)
          err << "block(" << r << "," << c << "): lfb" << k
              << " taps south neighbour at array edge\n";
      }
    }
  }
  for (int r = 0; r <= f.rows(); ++r) {
    for (int c = 0; c <= f.cols(); ++c) {
      for (int j = 0; j < kBlockInputs; ++j) {
        int drivers = 0;
        if (c > 0 && r < f.rows() &&
            f.block(r, c - 1).driver[j] != DriverCfg::kOff)
          ++drivers;
        if (r > 0 && c < f.cols() &&
            f.block(r - 1, c).driver[j] != DriverCfg::kOff)
          ++drivers;
        if (drivers > 1)
          err << "input line (" << r << "," << c << "," << j
              << "): driven by both west and north neighbours\n";
      }
    }
  }
  std::string diag = err.str();
  if (diag.empty()) return Status();
  return Status::invalid_argument(std::move(diag));
}

/// Fabric::check gives the reference's status code and diagnostic lines,
/// in order, and try_elaborate rejects exactly what the reference rejects.
/// Returns whether the reference accepted the fabric.
inline bool expect_checks_like_reference(const Fabric& f) {
  const Status want = reference_check(f);
  const Status got = f.check();
  EXPECT_EQ(got.code(), want.code());
  EXPECT_EQ(got.message(), want.message());
  const auto elab = f.try_elaborate();
  if (want.ok()) {
    EXPECT_TRUE(elab.ok()) << elab.status().to_string();
  } else {
    EXPECT_EQ(elab.status().code(), StatusCode::kInvalidArgument);
  }
  return want.ok();
}

}  // namespace pp::core::check_test
