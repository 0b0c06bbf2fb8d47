#include "core/fabric.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace pp::core {

Fabric::Fabric(int rows, int cols) : rows_(rows), cols_(cols) {
  if (rows < 1 || cols < 1)
    throw std::invalid_argument("Fabric: dimensions must be positive");
  blocks_.assign(static_cast<std::size_t>(rows) * cols, BlockConfig{});
}

BlockConfig& Fabric::block(int r, int c) {
  if (r < 0 || r >= rows_ || c < 0 || c >= cols_)
    throw std::out_of_range("Fabric::block");
  return blocks_[idx(r, c)];
}

const BlockConfig& Fabric::block(int r, int c) const {
  if (r < 0 || r >= rows_ || c < 0 || c >= cols_)
    throw std::out_of_range("Fabric::block");
  return blocks_[idx(r, c)];
}

void Fabric::clear() {
  for (auto& b : blocks_) b = BlockConfig{};
}

int Fabric::active_cells() const {
  int total = 0;
  for (const auto& b : blocks_) total += b.active_cells();
  return total;
}

int Fabric::used_blocks() const {
  int total = 0;
  for (const auto& b : blocks_)
    if (!b.is_empty()) ++total;
  return total;
}

Result<Fabric> Fabric::create(int rows, int cols) {
  if (rows < 1 || cols < 1)
    return Status::invalid_argument("Fabric: dimensions must be positive");
  return Fabric(rows, cols);
}

std::vector<int> Fabric::used_indices() const {
  std::vector<int> used;
  for (int b = 0; b < static_cast<int>(blocks_.size()); ++b)
    if (!blocks_[b].is_empty()) used.push_back(b);
  return used;
}

Status Fabric::check() const {
  // An empty block validates, taps nothing and drives nothing, so only the
  // used blocks can be at fault.  Visiting them in row-major order keeps
  // the diagnostic lines in the order of a whole-array scan.
  const std::vector<int> used = used_indices();
  std::ostringstream err;
  for (const int b : used) {
    const int r = b / cols_, c = b % cols_;
    const BlockConfig& cfg = blocks_[b];
    const std::string local = cfg.validate();
    if (!local.empty())
      err << "block(" << r << "," << c << "): " << local;
    for (int k = 0; k < kLfbLines; ++k) {
      if (cfg.lfb_src[k].which == LfbWhich::kEast && c == cols_ - 1)
        err << "block(" << r << "," << c << "): lfb" << k
            << " taps east neighbour at array edge\n";
      if (cfg.lfb_src[k].which == LfbWhich::kSouth && r == rows_ - 1)
        err << "block(" << r << "," << c << "): lfb" << k
            << " taps south neighbour at array edge\n";
    }
  }
  // Abutment contention: input line j of (r,c) must not be driven by both
  // the west and north neighbours.  Each such line is found from its west
  // driver (r, c-1), so the lines come out in row-major order too.
  for (const int b : used) {
    const int r = b / cols_, c = b % cols_;
    if (r == 0 || c + 1 == cols_) continue;  // line (r, c+1) has no north
    const BlockConfig& west = blocks_[b];
    const BlockConfig& north = blocks_[idx(r - 1, c + 1)];
    for (int j = 0; j < kBlockInputs; ++j)
      if (west.driver[j] != DriverCfg::kOff &&
          north.driver[j] != DriverCfg::kOff)
        err << "input line (" << r << "," << c + 1 << "," << j
            << "): driven by both west and north neighbours\n";
  }
  std::string diag = err.str();
  if (diag.empty()) return Status();
  return Status::invalid_argument(std::move(diag));
}

sim::NetId ElaboratedFabric::in_line(int r, int c, int j) const {
  if (r < 0 || r > rows_ || c < 0 || c > cols_ || j < 0 || j >= kBlockInputs)
    throw std::out_of_range("ElaboratedFabric::in_line");
  if (r == rows_ && c == cols_) return sim::kNoNet;  // no block abuts it
  const sim::NetId net =
      in_lines_[(static_cast<std::size_t>(r) * (cols_ + 1) + c) *
                    kBlockInputs +
                j];
  return net == sim::kNoNet ? floating_ : net;
}

sim::NetId ElaboratedFabric::row_net(int r, int c, int i) const {
  if (r < 0 || r >= rows_ || c < 0 || c >= cols_ || i < 0 ||
      i >= kBlockOutputs)
    throw std::out_of_range("ElaboratedFabric::row_net");
  const sim::NetId net =
      row_nets_[(static_cast<std::size_t>(r) * cols_ + c) * kBlockOutputs +
                i];
  return net == sim::kNoNet ? const1_ : net;
}

sim::NetId ElaboratedFabric::lfb_net(int r, int c, int k) const {
  if (r < 0 || r >= rows_ || c < 0 || c >= cols_ || k < 0 || k >= kLfbLines)
    throw std::out_of_range("ElaboratedFabric::lfb_net");
  return lfb_nets_[(static_cast<std::size_t>(r) * cols_ + c) * kLfbLines + k];
}

ElaboratedFabric Fabric::elaborate(const FabricDelays& d) const {
  auto result = try_elaborate(d);
  result.status().throw_if_error();
  return std::move(result).value();
}

Result<ElaboratedFabric> Fabric::try_elaborate(const FabricDelays& d) const {
  if (const Status s = check(); !s.ok())
    return Status::invalid_argument("Fabric::elaborate: invalid config:\n" +
                                    s.message());

  ElaboratedFabric ef;
  ef.rows_ = rows_;
  ef.cols_ = cols_;
  sim::Circuit& ckt = ef.circuit_;

  // kind_r_c_i, short enough to stay in std::string's inline buffer (a
  // stream per net would cost half of elaboration).
  auto name = [](std::string kind, int r, int c, int i) {
    for (const int v : {r, c, i}) (kind += '_') += std::to_string(v);
    return kind;
  };

  // 1. Decide what to make.  Every non-empty block is made, and so is the
  //    east/south partner an lfb taps, even an empty one, since its rows
  //    feed the lfb.  An input line is made when a made row reads it or a
  //    made driver drives it, or when it lies on the west/north boundary,
  //    whose lines are the primary inputs.  Everything else is configured
  //    away, as in the paper's area count: its row would settle to 1 and
  //    its line would float, which is what the accessors answer for it.
  constexpr sim::NetId kWanted = sim::kNoNet - 1;  // a line to make
  ef.in_lines_.assign(
      static_cast<std::size_t>(rows_ + 1) * (cols_ + 1) * kBlockInputs,
      sim::kNoNet);
  const auto line = [&](int r, int c, int j) -> sim::NetId& {
    return ef.in_lines_[(static_cast<std::size_t>(r) * (cols_ + 1) + c) *
                            kBlockInputs +
                        j];
  };
  std::vector<char> made(blocks_.size(), 0);
  for (const int b : used_indices()) {
    const int r = b / cols_, c = b % cols_;
    const BlockConfig& cfg = blocks_[b];
    made[b] = 1;
    for (const LfbSel& sel : cfg.lfb_src) {
      if (sel.which == LfbWhich::kEast) made[idx(r, c + 1)] = 1;
      if (sel.which == LfbWhich::kSouth) made[idx(r + 1, c)] = 1;
    }
    for (int i = 0; i < kBlockOutputs; ++i) {
      const auto& xp = cfg.xpoint[i];
      if (std::find(xp.begin(), xp.end(), BiasLevel::kForce0) == xp.end())
        for (int j = 0; j < kBlockInputs; ++j)
          if (xp[j] == BiasLevel::kActive && cfg.col_src[j] == ColSource::kAbut)
            line(r, c, j) = kWanted;
      if (cfg.driver[i] != DriverCfg::kOff) {
        line(r, c + 1, i) = kWanted;  // east abutment
        line(r + 1, c, i) = kWanted;  // south abutment
      }
    }
  }
  std::vector<int> made_blocks;
  for (int b = 0; b < static_cast<int>(made.size()); ++b)
    if (made[b]) made_blocks.push_back(b);

  // 2. Nets, in the order a whole-array elaboration would create them (input
  //    lines row-major, then each block's rows and lfbs), so what is made
  //    keeps its relative net and gate order.
  for (int r = 0; r <= rows_; ++r) {
    for (int c = 0; c <= cols_; ++c) {
      // West/north boundary lines expose external (3-state) input pads —
      // the paper's IO happens at the array edge only.  A boundary line
      // may also be driven by its one existing neighbour; driving both
      // shows up as contention in simulation.
      const bool boundary = (c == 0 && r < rows_) || (r == 0 && c < cols_);
      for (int j = 0; j < kBlockInputs; ++j) {
        sim::NetId& net = line(r, c, j);
        if (!boundary && net != kWanted) continue;
        net = ckt.add_net(name("il", r, c, j));
        if (boundary) {
          ckt.mark_input(net);
          ef.primary_inputs_.push_back(net);
        }
      }
    }
  }
  ef.row_nets_.assign(static_cast<std::size_t>(rows_) * cols_ * kBlockOutputs,
                      sim::kNoNet);
  ef.lfb_nets_.assign(static_cast<std::size_t>(rows_) * cols_ * kLfbLines,
                      sim::kNoNet);
  for (const int b : made_blocks) {
    const int r = b / cols_, c = b % cols_;
    const BlockConfig& cfg = blocks_[b];
    for (int i = 0; i < kBlockOutputs; ++i)
      ef.row_nets_[static_cast<std::size_t>(b) * kBlockOutputs + i] =
          ckt.add_net(name("row", r, c, i));
    for (int k = 0; k < kLfbLines; ++k)
      if (cfg.lfb_src[k].which != LfbWhich::kOff)
        ef.lfb_nets_[static_cast<std::size_t>(b) * kLfbLines + k] =
            ckt.add_net(name("lfb", r, c, k));
  }

  // A shared constant-1 net enables all configured-on 3-state drivers and
  // stands in for every unmade row; one undriven net stands in for every
  // unmade input line.
  const sim::NetId one = ckt.add_net("const1");
  ckt.add_gate(sim::GateKind::kConst1, {}, one, 1);
  ef.const1_ = one;
  ef.floating_ = ckt.add_net("floating");

  // 3. Per-block gates.
  for (const int b : made_blocks) {
    const int r = b / cols_, c = b % cols_;
    const BlockConfig& cfg = blocks_[b];

    // Column source nets for this block.
    std::array<sim::NetId, kBlockInputs> col_net{};
    for (int j = 0; j < kBlockInputs; ++j) {
      switch (cfg.col_src[j]) {
        case ColSource::kAbut: col_net[j] = ef.in_line(r, c, j); break;
        case ColSource::kLfb0: col_net[j] = ef.lfb_net(r, c, 0); break;
        case ColSource::kLfb1: col_net[j] = ef.lfb_net(r, c, 1); break;
      }
      if (col_net[j] == sim::kNoNet)
        return Status::internal("elaborate: column reads unsourced lfb");
    }

    // NAND rows.
    for (int i = 0; i < kBlockOutputs; ++i) {
      const sim::NetId out = ef.row_net(r, c, i);
      bool disabled = false;
      std::vector<sim::NetId> ins;
      for (int j = 0; j < kBlockInputs; ++j) {
        if (cfg.xpoint[i][j] == BiasLevel::kForce0) disabled = true;
        if (cfg.xpoint[i][j] == BiasLevel::kActive)
          ins.push_back(col_net[j]);
      }
      if (disabled || ins.empty()) {
        ckt.add_gate(sim::GateKind::kConst1, {}, out, d.nand_ps);
      } else {
        ckt.add_gate(sim::GateKind::kNand, std::move(ins), out, d.nand_ps);
      }
    }

    // Output drivers: one physical driver = up to two elaborated 3-state
    // gates (east abutment + south abutment) sharing the configuration.
    for (int i = 0; i < kBlockOutputs; ++i) {
      const DriverCfg dc = cfg.driver[i];
      if (dc == DriverCfg::kOff) continue;
      const sim::GateKind kind = dc == DriverCfg::kInvert
                                     ? sim::GateKind::kTriInv
                                     : sim::GateKind::kTriBuf;
      const sim::SimTime delay =
          dc == DriverCfg::kPass ? d.pass_ps : d.driver_ps;
      const sim::NetId src = ef.row_net(r, c, i);
      // East abutment: input line i of (r, c+1).
      ckt.add_gate(kind, {src, one}, ef.in_line(r, c + 1, i), delay);
      // South abutment: input line i of (r+1, c).
      ckt.add_gate(kind, {src, one}, ef.in_line(r + 1, c, i), delay);
    }

    // lfb taps: own row, or a row of the east/south pair partner.
    for (int k = 0; k < kLfbLines; ++k) {
      const LfbSel& sel = cfg.lfb_src[k];
      if (sel.which == LfbWhich::kOff) continue;
      int sr = r, sc = c;
      if (sel.which == LfbWhich::kEast) ++sc;
      if (sel.which == LfbWhich::kSouth) ++sr;
      ckt.add_gate(sim::GateKind::kTriBuf,
                   {ef.row_net(sr, sc, sel.row), one},
                   ef.lfb_net(r, c, k), d.lfb_ps);
    }
  }

  const std::string cdiag = ckt.validate();
  if (!cdiag.empty())
    return Status::internal("Fabric::elaborate produced invalid circuit:\n" +
                            cdiag);
  return ef;
}

}  // namespace pp::core
