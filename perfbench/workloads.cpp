#include "workloads.hpp"

#include <algorithm>
#include <utility>

#include "apps/components.hpp"
#include "apps/jacobi.hpp"
#include "apps/pagerank.hpp"
#include "apps/sssp.hpp"
#include "checks.hpp"
#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "graph/generator.hpp"
#include "graph/partitioner.hpp"

namespace perfbench {
namespace {

using namespace asyncmr;

/// Crawl-locality preferential attachment at `n` vertices: the frontier
/// window and edge age scale with n as in the paper's Graph A.
graph::PrefAttachConfig CrawlGraph(graph::PrefAttachConfig config,
                                   graph::VertexId n) {
  config.num_vertices = n;
  config.locality_window = std::max<graph::VertexId>(8, n / 1000);
  config.max_edge_age = 4 * config.locality_window;
  return config;
}

PhaseSums SumPhases(const obs::TraceSink& sink) {
  PhaseSums sums;
  for (const obs::TraceSink::Event& e : sink.events()) {
    if (e.phase != obs::TraceSink::Phase::kSpan) continue;
    const std::string_view name = e.name;
    if (name == "compute" || name == "keepalive") {
      sums.compute_s += e.dur_s;
    } else if (name == "gate-blocked") {
      sums.gate_blocked_s += e.dur_s;
    } else if (name == "down") {
      sums.down_s += e.dur_s;
    } else if (name == "recovering") {
      sums.recovering_s += e.dur_s;
    } else if (name == "slot-wait") {
      sums.slot_wait_s += e.dur_s;
    }
  }
  return sums;
}

/// Runs `solve(cluster, record)` on a fresh cluster built from `spec` and
/// times the call; then reads the cluster's counters and, in the traced
/// round, sums the virtual-time phases the solve recorded.
template <typename SolveFn>
SolveRecord RunSolve(const char* app, const char* engine,
                     const cluster::ClusterSpec& spec, obs::TraceSink* sink,
                     HostTrace& host, SolveFn&& solve) {
  SolveRecord r;
  r.app = app;
  r.engine = engine;
  cluster::SimCluster sim(spec);
  // The async engine installs (and detaches) the sink itself; the wave
  // engines take it on the cluster and network directly.
  const bool wave = r.engine != "async";
  if (sink != nullptr && wave) {
    sim.set_trace(sink);
    sim.network().set_trace(sink);
  }
  r.host_s = Timed(host, r.engine + "." + r.app, "solve",
                   [&] { solve(sim, r); });
  r.virtual_s = r.trace.total_seconds();
  r.events = sim.queue().fired_count();
  r.net = sim.network().stats();
  r.dfs = sim.dfs().stats();
  if (sink != nullptr) {
    if (wave) {
      sim.set_trace(nullptr);
      sim.network().set_trace(nullptr);
    }
    r.phases = SumPhases(*sink);
    r.trace_events = sink->num_events();
    sink->Clear();
  }
  return r;
}

template <typename CheckFn>
void Check(HostTrace& host, SolveRecord& r, CheckFn&& check) {
  Timed(host, "check." + r.app, "check", [&] {
    const CheckResult c = check();
    r.check_passed = c.passed;
    r.error = c.error;
  });
}

/// Transport tuning every async workload shares: coalesced batches and a
/// token pause scaled to the measured circuit time.
async::EngineTuning AsyncTuning(obs::TraceSink* sink) {
  async::EngineTuning tuning;
  tuning.coalesce_batches = true;
  tuning.adaptive_token_backoff = true;
  tuning.token_backoff_s = 0.05;
  tuning.obs.trace = sink;
  return tuning;
}

// ---------------------------------------------------------------------------
// async-fine: P = 384 PageRank workers on Cloud(48), ~98 vertices each.
// Little app math per iteration, so the event queue, the fluid network and
// engine bookkeeping dominate host time.
// ---------------------------------------------------------------------------
class AsyncFine final : public Workload {
 public:
  static constexpr uint32_t kWorkers = 384;

  SetupTimes Setup(uint64_t seed, HostTrace& host) override {
    seed_ = seed;
    graph::PrefAttachConfig config;
    config.num_in = 3;
    config.num_out = 3;
    config.seed = seed;
    config = CrawlGraph(config, 37'500);
    SetupTimes t;
    t.generate_s = Timed(host, "graph.generate", "setup",
                         [&] { g_ = graph::PreferentialAttachment(config); });
    t.partition_s = Timed(host, "graph.partition", "setup", [&] {
      part_ = graph::MultilevelPartition(g_, kWorkers, seed);
    });
    return t;
  }

  void PrepareChecks(HostTrace& host) override {
    Timed(host, "reference.pagerank", "check",
          [&] { reference_ = ReferencePageRank(g_, Config(nullptr).damping); });
  }

  std::vector<SolveRecord> RunRound(obs::TraceSink* sink, HostTrace& host) override {
    auto spec = cluster::ClusterSpec::Cloud(kWorkers / 8);
    spec.topology.fluid_rate_tolerance = 0.05;
    spec.seed = seed_;
    std::vector<double> ranks;
    SolveRecord r = RunSolve(
        "pagerank", "async", spec, sink, host,
        [&](cluster::SimCluster& sim, SolveRecord& rec) {
          auto result = apps::AsyncPageRank(sim, g_, part_, Config(sink),
                                            async::kUnboundedStaleness,
                                            &rec.async);
          rec.converged = result.converged;
          rec.trace = std::move(result.trace);
          ranks = std::move(result.ranks);
        });
    Check(host, r, [&] { return CheckPageRank(ranks, reference_); });
    return {std::move(r)};
  }

 private:
  static apps::PageRankConfig Config(obs::TraceSink* sink) {
    apps::PageRankConfig config;
    config.max_global_iterations = 40;  // the engine caps workers at 10x
    config.async_tuning = AsyncTuning(sink);
    return config;
  }

  uint64_t seed_ = 0;
  graph::Digraph g_;
  graph::Partitioning part_;
  std::vector<double> reference_;
};

// ---------------------------------------------------------------------------
// wave-partial-sync: the paper's own comparison, General (one MapReduce job
// per iteration) vs Eager (local MapReduce to convergence inside each gmap)
// PageRank on Graph A at an eighth of its size (35k vertices, 175 per
// partition), on the paper's testbed.
// ---------------------------------------------------------------------------
class WavePartialSync final : public Workload {
 public:
  static constexpr uint32_t kPartitions = 200;

  SetupTimes Setup(uint64_t seed, HostTrace& host) override {
    seed_ = seed;
    const auto config =
        CrawlGraph(graph::PrefAttachConfig::PaperGraphA(seed), 35'000);
    SetupTimes t;
    t.generate_s = Timed(host, "graph.generate", "setup",
                         [&] { g_ = graph::PreferentialAttachment(config); });
    t.partition_s = Timed(host, "graph.partition", "setup", [&] {
      part_ = graph::MultilevelPartition(g_, kPartitions, seed);
    });
    return t;
  }

  void PrepareChecks(HostTrace& host) override {
    Timed(host, "reference.pagerank", "check", [&] {
      reference_ = ReferencePageRank(g_, apps::PageRankConfig{}.damping);
    });
  }

  std::vector<SolveRecord> RunRound(obs::TraceSink* sink, HostTrace& host) override {
    auto spec = cluster::ClusterSpec::Ec2Large8();
    spec.seed = seed_;
    const apps::PageRankConfig config;
    std::vector<SolveRecord> records;
    for (const bool eager : {false, true}) {
      std::vector<double> ranks;
      SolveRecord r = RunSolve(
          "pagerank", eager ? "eager" : "general", spec, sink, host,
          [&](cluster::SimCluster& sim, SolveRecord& rec) {
            auto result = eager ? apps::EagerPageRank(sim, g_, part_, config)
                                : apps::GeneralPageRank(sim, g_, part_, config);
            rec.converged = result.converged;
            rec.trace = std::move(result.trace);
            ranks = std::move(result.ranks);
          });
      Check(host, r, [&] { return CheckPageRank(ranks, reference_); });
      records.push_back(std::move(r));
    }
    return records;
  }

 private:
  uint64_t seed_ = 0;
  graph::Digraph g_;
  graph::Partitioning part_;
  std::vector<double> reference_;
};

// ---------------------------------------------------------------------------
// async-faults: four graph apps through whole-node crashes, rack episodes,
// 1% flow loss and a short token-regeneration timeout, so checkpoint
// restore, relaunch, fencing, retry and token regeneration all run. Under
// this dose one solve's time to solution is a wait for a quiet window and
// swings several-fold with the fault timeline, so a round runs many small
// instances, each with its own graph and fault timeline, and the round's
// totals average over them.
// ---------------------------------------------------------------------------
class AsyncFaults final : public Workload {
 public:
  static constexpr uint32_t kInstances = 32;
  static constexpr graph::VertexId kVertices = 2'500;
  static constexpr uint32_t kPartitions = 12;

  SetupTimes Setup(uint64_t seed, HostTrace& host) override {
    instances_.assign(kInstances, Instance{});
    SetupTimes t;
    for (uint32_t i = 0; i < kInstances; ++i) {
      Instance& in = instances_[i];
      in.seed = seed * kInstances + i;
      in.fault_seed = kFaultSeedBase + i;
      const auto config =
          CrawlGraph(graph::PrefAttachConfig::PaperGraphA(in.seed), kVertices);
      t.generate_s += Timed(host, "graph.generate", "setup", [&] {
        in.g = graph::PreferentialAttachment(config);
        in.weighted = graph::WithRandomWeights(in.g, 1.0, 10.0, in.seed + 3);
        in.symmetric = apps::Symmetrized(in.g);
        Rng rng(in.seed + 5);
        in.b.resize(in.g.num_vertices());
        for (double& v : in.b) v = rng.NextDouble(-1.0, 1.0);
      });
      t.partition_s += Timed(host, "graph.partition", "setup", [&] {
        in.part = graph::MultilevelPartition(in.g, kPartitions, in.seed);
      });
    }
    return t;
  }

  void PrepareChecks(HostTrace& host) override {
    for (Instance& in : instances_) {
      Timed(host, "reference.pagerank", "check", [&] {
        in.ranks = ReferencePageRank(in.g, apps::PageRankConfig{}.damping);
      });
      Timed(host, "reference.sssp", "check", [&] {
        in.distances = ReferenceDistances(in.weighted, apps::SsspConfig{}.source);
      });
      Timed(host, "reference.components", "check",
            [&] { in.labels = ReferenceComponents(in.g); });
    }
  }

  std::vector<SolveRecord> RunRound(obs::TraceSink* sink, HostTrace& host) override {
    std::vector<SolveRecord> records;
    for (const Instance& in : instances_) Solve(in, sink, host, records);
    return records;
  }

 private:
  // Fault timelines are the cluster's own draws, fixed per instance; the
  // seed makes the graphs. With the timelines seeded as well, the round's
  // simulated time had a quartile spread of 30% across six seeds.
  static constexpr uint64_t kFaultSeedBase = 7919;

  struct Instance {
    uint64_t seed = 0;
    uint64_t fault_seed = 0;
    graph::Digraph g;
    graph::Digraph weighted;
    graph::Digraph symmetric;
    std::vector<double> b;
    graph::Partitioning part;
    std::vector<double> ranks;
    std::vector<double> distances;
    std::vector<uint32_t> labels;
  };

  void Solve(const Instance& in, obs::TraceSink* sink, HostTrace& host,
             std::vector<SolveRecord>& records) const {
    auto spec = cluster::ClusterSpec::Ec2Large8();
    spec.seed = in.fault_seed;
    spec.node_crash_rate = 0.3;
    spec.rack_crash_rate = 0.05;
    spec.node_repair_s = 0.5;
    spec.worker_restart_delay_s = 0.25;
    spec.topology.flow_loss_prob = 0.01;
    async::EngineTuning tuning = AsyncTuning(sink);
    tuning.token_regen_timeout_s = 0.25;
    {
      apps::PageRankConfig config;
      config.async_tuning = tuning;
      std::vector<double> ranks;
      records.push_back(RunSolve(
          "pagerank", "async", spec, sink, host,
          [&](cluster::SimCluster& sim, SolveRecord& rec) {
            auto result = apps::AsyncPageRank(sim, in.g, in.part, config,
                                              async::kUnboundedStaleness,
                                              &rec.async);
            rec.converged = result.converged;
            rec.trace = std::move(result.trace);
            ranks = std::move(result.ranks);
          }));
      Check(host, records.back(), [&] { return CheckPageRank(ranks, in.ranks); });
    }
    {
      apps::SsspConfig config;
      config.async_tuning = tuning;
      std::vector<double> distances;
      records.push_back(RunSolve(
          "sssp", "async", spec, sink, host,
          [&](cluster::SimCluster& sim, SolveRecord& rec) {
            auto result = apps::AsyncSssp(sim, in.weighted, in.part, config,
                                          async::kUnboundedStaleness,
                                          &rec.async);
            rec.converged = result.converged;
            rec.trace = std::move(result.trace);
            distances = std::move(result.distances);
          }));
      Check(host, records.back(),
            [&] { return CheckDistances(distances, in.distances); });
    }
    {
      apps::ComponentsConfig config;
      config.async_tuning = tuning;
      std::vector<uint32_t> labels;
      records.push_back(RunSolve(
          "components", "async", spec, sink, host,
          [&](cluster::SimCluster& sim, SolveRecord& rec) {
            auto result = apps::AsyncComponents(sim, in.g, in.part, config,
                                                async::kUnboundedStaleness,
                                                &rec.async);
            rec.converged = result.converged;
            rec.trace = std::move(result.trace);
            labels = std::move(result.labels);
          }));
      Check(host, records.back(),
            [&] { return CheckComponents(labels, in.labels); });
    }
    {
      // At the default 1e-8 one Jacobi solve took 10-18 s of host time
      // under this fault dose; 1e-6 keeps it in proportion to the others.
      apps::JacobiConfig config;
      config.tolerance = 1e-6;
      config.local_tolerance = 1e-7;
      config.async_tuning = tuning;
      std::vector<double> x;
      records.push_back(RunSolve(
          "jacobi", "async", spec, sink, host,
          [&](cluster::SimCluster& sim, SolveRecord& rec) {
            auto result = apps::AsyncJacobi(sim, in.symmetric, in.b, in.part,
                                            config, async::kUnboundedStaleness,
                                            &rec.async);
            rec.converged = result.converged;
            rec.trace = std::move(result.trace);
            x = std::move(result.x);
          }));
      Check(host, records.back(),
            [&] { return CheckJacobi(in.g, in.b, x, config.tolerance); });
    }
  }

  std::vector<Instance> instances_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "async-fine") return std::make_unique<AsyncFine>();
  if (name == "wave-partial-sync") return std::make_unique<WavePartialSync>();
  if (name == "async-faults") return std::make_unique<AsyncFaults>();
  return nullptr;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "async-fine", "wave-partial-sync", "async-faults"};
  return names;
}

}  // namespace perfbench
