// The benchmark's three workloads, each run once per process ("one rep"):
//
//   tower_noisy      one sublayered-TCP bulk transfer r0 -> r2 over two
//                    hops of the Fig. 2 datalink tower on a noisy wire
//   fattree_mono     4096 flows on the 14-router fat-tree, one Simulator
//   fattree_sharded  the same flows on a 4-shard ParallelSimulator, one
//                    worker
//
// A rep builds the topology, converges routing, opens the flows, runs
// until every flow has delivered its payload, and checks every delivered
// byte against the payload it was sent.  See README.md for the metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  /// Traced runs write their spans here (empty: keep them in memory only).
  std::string spans_out;
};

struct Result {
  std::size_t flows = 0;
  std::size_t ok_flows = 0;  // delivered in full and byte-identical
  std::size_t threads = 1;   // threads that ran the simulation
  double setup_s = 0;        // wall: topology, routing, hosts
  double traffic_s = 0;      // wall: first connect to last byte
  std::uint64_t verified_bytes = 0;
  double virt_goodput_mbps = 0;
  double fct_virt_ms_p50 = 0;
  double fct_virt_ms_p99 = 0;
  /// Exact counts over the traffic phase; equal seeds must repeat them
  /// exactly, traced or not.
  std::map<std::string, std::uint64_t> counts;
  /// Per-layer metrics (span-derived ones only in a traced run).
  std::map<std::string, double> layers;
  /// Per span name: count, self ns, total ns (traced run only).
  std::map<std::string, std::map<std::string, double>> spans;
};

/// Runs one rep; throws std::invalid_argument on an unknown workload.
Result run_workload(const Options& options);

}  // namespace perfbench
