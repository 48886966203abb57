// The benchmark's three workloads. Each one generates its inputs from the
// seed (set-up), then runs rounds: every solve of the workload once, each
// timed from outside and checked against the benchmark's own reference.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "async/async_engine.hpp"
#include "core/metrics.hpp"
#include "dfs/dfs.hpp"
#include "host_trace.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/// Worker-seconds of virtual time per phase, summed from a traced solve's
/// obs::TraceSink spans.
struct PhaseSums {
  double compute_s = 0.0;  // "compute" and "keepalive" iterations
  double gate_blocked_s = 0.0;
  double down_s = 0.0;
  double recovering_s = 0.0;
  double slot_wait_s = 0.0;  // cluster AcquireSlot queueing
};

/// What the benchmark sees of one solve: the host time of the call, the
/// check's verdict, and the counters the library exposes.
struct SolveRecord {
  std::string app;     // pagerank, sssp, components, jacobi
  std::string engine;  // async, general (mr layer) or eager (core layer)
  double host_s = 0.0;
  double virtual_s = 0.0;
  bool converged = false;
  bool check_passed = false;
  double error = 0.0;
  uint64_t events = 0;  // EventQueue::fired_count
  asyncmr::net::NetworkStats net;
  asyncmr::dfs::DfsStats dfs;
  asyncmr::core::RunTrace trace;
  asyncmr::async::AsyncResult async;  // async engine solves only
  PhaseSums phases;                   // traced solves only
  uint64_t trace_events = 0;          // traced solves only

  bool ok() const { return converged && check_passed; }
};

/// Host seconds of one set-up, split by layer.
struct SetupTimes {
  double generate_s = 0.0;   // graphs, edge weights, right-hand sides
  double partition_s = 0.0;  // vertex partitioning
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates (or regenerates) every input from `seed`.
  virtual SetupTimes Setup(uint64_t seed, HostTrace& host) = 0;
  /// Computes the reference answers the checks compare against. Untimed.
  virtual void PrepareChecks(HostTrace& host) = 0;
  /// Runs and checks every solve once. A non-null `sink` is attached to
  /// every solve (the traced round) and its spans summed into PhaseSums.
  virtual std::vector<SolveRecord> RunRound(asyncmr::obs::TraceSink* sink,
                                            HostTrace& host) = 0;
};

/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);
const std::vector<std::string>& WorkloadNames();

}  // namespace perfbench
