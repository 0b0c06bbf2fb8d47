// Serving quickstart: the in-process DevicePool from pool_fleet.cpp, put
// behind a TCP socket.  A serve::Server wraps a 2-device pool on an
// ephemeral loopback port; two tenants connect with serve::Client, upload
// the same adder under their own namespaces, and run batches — one
// synchronously, one pipelined with an interactive priority and a deadline.
// Everything the clients see travels as PPSV frames
// (docs/serving-protocol.md); nothing here links against platform::Session.
#include <cstdio>

#include "map/netlist.h"
#include "platform/compiler.h"
#include "rt/pool.h"
#include "serve/client.h"
#include "serve/server.h"

int main() {
  using namespace pp;

  const map::Netlist netlist = map::make_ripple_adder(4);  // a, b, cin -> s, cout
  auto design = platform::compile(netlist);
  if (!design.ok())
    return std::printf("compile: %s\n", design.status().to_string().c_str()), 1;

  // --- server side: a pool with a socket in front --------------------------
  auto pool = rt::DevicePool::create(2, design->fabric.rows(),
                                     design->fabric.cols());
  if (!pool.ok())
    return std::printf("pool: %s\n", pool.status().to_string().c_str()), 1;
  auto server = serve::Server::create(std::move(*pool));
  if (!server.ok())
    return std::printf("serve: %s\n", server.status().to_string().c_str()), 1;
  std::printf("serving a 2-device pool on 127.0.0.1:%u\n\n", server->port());

  // --- tenant "alice": register + synchronous run --------------------------
  auto alice = serve::Client::connect("127.0.0.1", server->port(), "alice");
  if (!alice.ok())
    return std::printf("%s\n", alice.status().to_string().c_str()), 1;
  if (Status s = alice->register_design("adder4", *design); !s.ok())
    return std::printf("%s\n", s.to_string().c_str()), 1;

  // 11 + 6: inputs are a0..a3, b0..b3, cin; outputs s0..s3 then carry.
  platform::InputVector v(9);
  for (int i = 0; i < 4; ++i) v[i] = (11 >> i) & 1;
  for (int i = 0; i < 4; ++i) v[4 + i] = (6 >> i) & 1;
  auto sum = alice->run("adder4", std::vector<platform::InputVector>{v});
  if (!sum.ok()) return std::printf("%s\n", sum.status().to_string().c_str()), 1;
  int result = 0;
  for (int i = 0; i < 5; ++i) result |= static_cast<int>((*sum)[0][i]) << i;
  std::printf("alice: 11 + 6 = %d over the wire (session %llu)\n", result,
              static_cast<unsigned long long>(alice->session_id()));
  int mismatches = result == 11 + 6 ? 0 : 1;

  // --- tenant "bob": same design name, own namespace, pipelined ------------
  auto bob = serve::Client::connect("127.0.0.1", server->port(), "bob");
  if (!bob.ok()) return std::printf("%s\n", bob.status().to_string().c_str()), 1;
  if (Status s = bob->register_design("adder4", *design); !s.ok())
    return std::printf("%s\n", s.to_string().c_str()), 1;

  serve::ClientSubmitOptions interactive;
  interactive.priority = rt::Priority::kInteractive;
  interactive.deadline_ms = 5000;  // expire rather than run stale
  std::vector<std::uint64_t> requests;
  for (int a = 0; a < 4; ++a) {  // pipeline 4 batches back-to-back
    platform::InputVector in(9);
    for (int i = 0; i < 4; ++i) in[i] = (a >> i) & 1;
    for (int i = 0; i < 4; ++i) in[4 + i] = 1;  // + 15
    auto id = bob->submit("adder4",
                          std::vector<platform::InputVector>{in}, interactive);
    if (!id.ok())
      return std::printf("%s\n", id.status().to_string().c_str()), 1;
    requests.push_back(*id);
  }
  for (std::size_t a = 0; a < requests.size(); ++a) {
    auto reply = bob->wait(requests[a]);
    if (!reply.ok())
      return std::printf("%s\n", reply.status().to_string().c_str()), 1;
    int total = 0;
    for (int i = 0; i < 5; ++i) total |= static_cast<int>((*reply)[0][i]) << i;
    std::printf("bob:   %zu + 15 = %d (request %llu)\n", a, total,
                static_cast<unsigned long long>(requests[a]));
    if (total != static_cast<int>(a) + 15) ++mismatches;
  }
  if (mismatches != 0)
    return std::printf("MISMATCH: %d sums over the wire are wrong\n",
                       mismatches),
           1;

  auto stats = bob->stats();
  if (stats.ok())
    std::printf("\nbob's session: %llu submitted, %llu completed, pool depth "
                "%llu\n",
                static_cast<unsigned long long>(stats->jobs_submitted),
                static_cast<unsigned long long>(stats->jobs_completed),
                static_cast<unsigned long long>(stats->pool_queue_depth));
  return 0;
}
