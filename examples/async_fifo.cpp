// The Fig. 11/12 scenario: a 4-stage, 8-bit Sutherland micropipeline FIFO
// moving a burst of tokens under a slow consumer, with a VCD trace of the
// handshake you can open in any waveform viewer.
//
// The pipeline is a raw sim::Circuit (no fabric involved), so it rides the
// platform API through Session::from_circuit — the session owns the
// simulator; the async harness drives the handshake on it directly.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <vector>

#include "async/micropipeline.h"
#include "platform/session.h"
#include "sim/waveform.h"

int main() {
  using namespace pp;

  async::MicropipelineParams params;
  params.stages = 4;
  params.width = 8;
  params.stage_delay_ps = 40;

  sim::Circuit circuit;
  const auto ports = async::build_micropipeline(circuit, params);
  auto session = platform::Session::from_circuit(
      std::move(circuit),
      {{"req_in", ports.req_in}, {"ack_out", ports.ack_out}},
      {{"ack_in", ports.ack_in}, {"req_out", ports.req_out}});
  if (!session.ok())
    return std::printf("%s\n", session.status().to_string().c_str()), 1;

  // Record the control handshake for inspection.
  std::vector<sim::NetId> watch{ports.req_in, ports.ack_in, ports.req_out,
                                ports.ack_out};
  for (std::size_t i = 0; i + 1 < ports.stage_req.size(); ++i)
    watch.push_back(ports.stage_req[i]);
  sim::Waveform wf(session->simulator(), session->circuit(), watch);

  std::printf("pushing 16 tokens through a %d-stage micropipeline "
              "(sink 10x slower than source)...\n",
              params.stages);
  const auto stats =
      async::run_tokens(session->simulator(), ports, params.width, 16,
                        /*source_delay_ps=*/10,
                        /*sink_delay_ps=*/100);

  std::printf("delivered %d/%d tokens in %llu ps "
              "(%.3f tokens/ns)\nvalues: ",
              stats.tokens_received, stats.tokens_sent,
              static_cast<unsigned long long>(stats.total_time_ps),
              stats.throughput_tokens_per_ns());
  for (auto v : stats.received_values)
    std::printf("%llu ", static_cast<unsigned long long>(v));
  std::printf("\n");
  // The source sends 1, 2, ..., 16; a FIFO delivers exactly those, in order.
  std::vector<std::uint64_t> sent(16);
  for (std::size_t i = 0; i < sent.size(); ++i) sent[i] = i + 1;
  if (stats.received_values != sent)
    return std::printf("MISMATCH: delivered values differ from 1..16\n"), 1;

  std::ofstream vcd("micropipeline.vcd");
  vcd << wf.to_vcd("micropipeline");
  if (!vcd.flush())
    return std::printf("could not write micropipeline.vcd\n"), 1;
  std::printf("handshake trace written to micropipeline.vcd (%zu changes)\n",
              wf.changes().size());
  return 0;
}
