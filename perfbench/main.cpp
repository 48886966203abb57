// perfbench: times one workload of the simulator from outside and prints
// its metrics as one JSON line (see README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--host-trace-out PATH]
//
// The run sets up the workload's inputs kSetups times (set-up time is their
// median), computes the reference answers, then runs whole rounds (every
// solve of the workload once, each checked) for S seconds. --trace 0 prints
// the end-to-end metrics; --trace 1 prints the per-layer metrics and adds
// one traced round: the library's virtual-time TraceSink on every solve and
// host-time spans written as Chrome trace JSON to PATH. It exits 1 when a
// solve failed or a round did not repeat round 0, after printing its result.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string host_trace_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--host-trace-out PATH]\n"
               "workloads:",
               why);
  for (const auto& name : WorkloadNames()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      o.trace = std::strcmp(value, "1") == 0;
      if (!o.trace && std::strcmp(value, "0") != 0) Usage("--trace takes 0 or 1");
    } else if (arg == "--host-trace-out") {
      o.host_trace_out = value;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      Usage(("bad number for " + arg).c_str());
    }
  }
  if (o.workload.empty()) Usage("--workload is required");
  if (!(o.seconds > 0)) Usage("--seconds must be positive");
  return o;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// What must repeat exactly from round to round: the simulator is
/// deterministic for fixed inputs, so any difference is a fault.
struct Signature {
  double virtual_s;
  uint64_t events;
  uint64_t iterations;
  uint64_t flows;
  bool operator==(const Signature&) const = default;
};

std::vector<Signature> Sign(const std::vector<SolveRecord>& round) {
  std::vector<Signature> s;
  for (const SolveRecord& r : round) {
    s.push_back({r.virtual_s, r.events, r.async.total_iterations,
                 r.net.flows_started});
  }
  return s;
}

template <typename Field>
double Sum(const std::vector<SolveRecord>& round, Field&& field) {
  double total = 0.0;
  for (const SolveRecord& r : round) total += static_cast<double>(field(r));
  return total;
}

/// Metrics in print order; counts print as integers, times with all digits.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit, false});
  }
  void AddCount(const std::string& name, double value) {
    entries_.push_back({name, value, "count", true});
  }

  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + Number(e) +
             ", \"unit\": \"" + e.unit + "\"}";
    }
    return out + "}";
  }

  void PrintTable(std::FILE* f) const {
    for (const Entry& e : entries_) {
      std::fprintf(f, "  %-34s %22s %s\n", e.name.c_str(), Number(e).c_str(),
                   e.unit);
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
    bool integer;
  };

  static std::string Number(const Entry& e) {
    char buf[64];
    // JSON has no infinity; a check that found a non-finite error prints the
    // largest double instead (its solve is already counted as failed).
    const double v = std::isfinite(e.value) ? e.value : 1.7976931348623157e308;
    if (e.integer) {
      std::snprintf(buf, sizeof buf, "%.0f", v);
    } else {
      std::snprintf(buf, sizeof buf, "%.17g", v);
    }
    return buf;
  }

  std::vector<Entry> entries_;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void AddPerLayer(MetricSet& m, const std::vector<SetupTimes>& setups,
                 const std::vector<std::vector<SolveRecord>>& rounds,
                 const std::vector<SolveRecord>& traced, double traced_wall,
                 double median_wall) {
  const std::vector<SolveRecord>& first = rounds.front();
  const auto median_host = [&](auto&& select) {
    std::vector<double> per_round;
    for (const auto& round : rounds) {
      double s = 0.0;
      for (const SolveRecord& r : round) {
        if (select(r)) s += r.host_s;
      }
      per_round.push_back(s);
    }
    return Median(per_round);
  };
  const auto total = [&](auto&& field) { return Sum(first, field); };
  const auto is_async = [](const SolveRecord& r) { return r.engine == "async"; };

  std::vector<double> generate, partition;
  for (const SetupTimes& t : setups) {
    generate.push_back(t.generate_s);
    partition.push_back(t.partition_s);
  }
  m.Add("graph.generate_s", Median(generate), "s");
  m.Add("graph.partition_s", Median(partition), "s");

  const double events = total([](const SolveRecord& r) { return r.events; });
  m.AddCount("sim.events", events);
  m.Add("sim.events_per_s", events / median_wall, "1/s");

  const double flows = total([](const SolveRecord& r) { return r.net.flows_started; });
  const double rate_updates =
      total([](const SolveRecord& r) { return r.net.flow_rate_updates; });
  m.AddCount("net.flows", flows);
  m.AddCount("net.rate_updates", rate_updates);
  m.Add("net.rate_updates_per_flow", flows > 0 ? rate_updates / flows : 0.0, "ratio");
  m.Add("net.bytes", total([](const SolveRecord& r) { return r.net.bytes_transferred; }),
        "bytes");
  m.AddCount("net.flows_failed",
             total([](const SolveRecord& r) { return r.net.flows_failed; }));

  const auto phase = [&](double PhaseSums::*field) {
    double s = 0.0;
    for (const SolveRecord& r : traced) s += r.phases.*field;
    return s;
  };
  m.Add("cluster.slot_wait_virtual_s", phase(&PhaseSums::slot_wait_s), "s");

  m.Add("dfs.bytes_written", total([](const SolveRecord& r) { return r.dfs.bytes_written; }),
        "bytes");
  m.Add("dfs.bytes_read", total([](const SolveRecord& r) { return r.dfs.bytes_read; }),
        "bytes");

  const auto wave = [](const SolveRecord& r) { return r.engine != "async"; };
  double general_ops = 0.0, eager_ops = 0.0;
  for (const SolveRecord& r : first) {
    if (r.engine == "general") general_ops += r.trace.total_ops();
    if (r.engine == "eager") eager_ops += r.trace.total_ops();
  }
  m.Add("mr.general_run_s",
        median_host([](const SolveRecord& r) { return r.engine == "general"; }), "s");
  m.AddCount("mr.global_rounds", total([&](const SolveRecord& r) {
               return wave(r) ? r.trace.global_iterations() : 0u;
             }));
  m.Add("mr.shuffle_bytes", total([&](const SolveRecord& r) {
          return wave(r) ? r.trace.total_shuffle_bytes() : 0u;
        }),
        "bytes");
  m.Add("core.eager_run_s",
        median_host([](const SolveRecord& r) { return r.engine == "eager"; }), "s");
  m.AddCount("core.local_iterations", total([](const SolveRecord& r) {
               return r.engine == "eager" ? r.trace.total_local_iterations() : 0u;
             }));
  m.Add("core.ops_ratio", general_ops > 0 ? eager_ops / general_ops : 0.0, "ratio");

  const double iterations =
      total([](const SolveRecord& r) { return r.async.total_iterations; });
  const double batches = total([](const SolveRecord& r) { return r.async.update_batches; });
  const double coalesced =
      total([](const SolveRecord& r) { return r.async.coalesced_batches; });
  m.AddCount("async.worker_iterations", iterations);
  m.Add("async.host_us_per_iteration",
        iterations > 0 ? median_host(is_async) / iterations * 1e6 : 0.0, "us");
  m.AddCount("async.batches", batches);
  m.AddCount("async.records",
             total([](const SolveRecord& r) { return r.async.update_records; }));
  m.Add("async.coalesced_share",
        batches + coalesced > 0 ? coalesced / (batches + coalesced) : 0.0, "ratio");
  m.AddCount("async.checkpoints",
             total([](const SolveRecord& r) { return r.async.checkpoints_written; }));
  m.Add("async.checkpoint_bytes",
        total([](const SolveRecord& r) { return r.async.checkpoint_bytes; }), "bytes");

  const double recoveries = total([](const SolveRecord& r) { return r.async.recoveries; });
  const double downtime =
      total([](const SolveRecord& r) { return r.async.downtime_seconds; });
  m.AddCount("async.restarts",
             total([](const SolveRecord& r) { return r.async.worker_restarts; }));
  m.Add("async.mttr_virtual_s", recoveries > 0 ? downtime / recoveries : 0.0, "s");
  m.AddCount("async.tokens_lost",
             total([](const SolveRecord& r) { return r.async.tokens_lost; }));
  m.AddCount("async.token_regenerations",
             total([](const SolveRecord& r) { return r.async.token_regenerations; }));
  m.AddCount("async.batch_retries",
             total([](const SolveRecord& r) { return r.async.batch_retries; }));

  m.Add("async.compute_virtual_s", phase(&PhaseSums::compute_s), "s");
  m.Add("async.gate_blocked_virtual_s", phase(&PhaseSums::gate_blocked_s), "s");
  m.Add("async.down_virtual_s", phase(&PhaseSums::down_s), "s");
  m.Add("async.recovering_virtual_s", phase(&PhaseSums::recovering_s), "s");
  double staleness_p95 = 0.0;
  for (const SolveRecord& r : first) {
    if (is_async(r)) staleness_p95 = std::max(staleness_p95, r.async.staleness_p95);
  }
  m.Add("async.staleness_p95", staleness_p95, "iterations");

  for (const char* app : {"pagerank", "sssp", "components", "jacobi"}) {
    double error = 0.0;
    for (const SolveRecord& r : first) {
      if (r.app == app) error = std::max(error, r.error);
    }
    m.Add(std::string("apps.") + app + ".run_s",
          median_host([&](const SolveRecord& r) { return r.app == app; }), "s");
    m.Add(std::string("apps.") + app + ".error", error, "error");
  }

  m.Add("obs.trace_overhead", traced_wall / median_wall, "ratio");
  m.AddCount("obs.trace_events",
             Sum(traced, [](const SolveRecord& r) { return r.trace_events; }));
}

int Main(int argc, char** argv) {
  const Options opts = Parse(argc, argv);
  HostTrace host(opts.trace);
  std::unique_ptr<Workload> workload = MakeWorkload(opts.workload);
  if (workload == nullptr) Usage(("unknown workload " + opts.workload).c_str());

  std::vector<SetupTimes> setups;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    SetupTimes t;
    setup_s.push_back(Timed(host, "setup", "setup",
                            [&] { t = workload->Setup(opts.seed, host); }));
    setups.push_back(t);
  }
  workload->PrepareChecks(host);

  std::vector<std::vector<SolveRecord>> rounds;
  std::vector<double> walls;
  uint64_t attempted = 0, failed = 0;
  bool repeatable = true;
  const auto tally = [&](const std::vector<SolveRecord>& round) {
    for (const SolveRecord& r : round) {
      if (rounds.empty()) {
        std::fprintf(stderr,
                     "  %-7s %-10s host %8.3f s  virtual %10.3f s  events %9llu  "
                     "iterations %7llu  restarts %5u  error %.3g\n",
                     r.engine.c_str(), r.app.c_str(), r.host_s, r.virtual_s,
                     static_cast<unsigned long long>(r.events),
                     static_cast<unsigned long long>(r.async.total_iterations),
                     r.async.worker_restarts, r.error);
      }
      ++attempted;
      if (!r.ok()) {
        ++failed;
        std::fprintf(stderr,
                     "perfbench: %s %s failed: converged=%d check=%d error=%g\n",
                     r.engine.c_str(), r.app.c_str(), r.converged ? 1 : 0,
                     r.check_passed ? 1 : 0, r.error);
      }
    }
    if (!rounds.empty() && Sign(round) != Sign(rounds.front())) {
      repeatable = false;
      std::fprintf(stderr, "perfbench: round %zu differs from round 0 in "
                           "simulated time or counts\n", rounds.size());
    }
  };

  asyncmr::Stopwatch measuring;
  for (double last_round = 0.0;
       rounds.empty() || measuring.ElapsedSeconds() + last_round <= opts.seconds;) {
    const double started = measuring.ElapsedSeconds();
    std::vector<SolveRecord> round;
    Timed(host, "round", "round", [&] { round = workload->RunRound(nullptr, host); });
    tally(round);
    walls.push_back(Sum(round, [](const SolveRecord& r) { return r.host_s; }));
    rounds.push_back(std::move(round));
    last_round = measuring.ElapsedSeconds() - started;
  }
  const double median_wall = Median(walls);

  MetricSet metrics;
  if (opts.trace) {
    asyncmr::obs::TraceSink sink;
    std::vector<SolveRecord> traced;
    Timed(host, "traced-round", "round",
          [&] { traced = workload->RunRound(&sink, host); });
    tally(traced);
    const double traced_wall =
        Sum(traced, [](const SolveRecord& r) { return r.host_s; });
    AddPerLayer(metrics, setups, rounds, traced, traced_wall, median_wall);
    if (!opts.host_trace_out.empty() && !host.WriteJson(opts.host_trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", opts.host_trace_out.c_str());
      return 1;
    }
  } else {
    metrics.Add("wall_s", median_wall, "s");
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
    metrics.Add("virtual_s",
                Sum(rounds.front(), [](const SolveRecord& r) { return r.virtual_s; }),
                "s");
  }

  std::fprintf(stderr, "perfbench %s seed %llu: %zu rounds of %zu solves, %llu failed\n",
               opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
               rounds.size(), rounds.front().size(),
               static_cast<unsigned long long>(failed));
  metrics.PrintTable(stderr);
  std::string round_walls;
  for (double w : walls) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.6f", round_walls.empty() ? "" : ", ", w);
    round_walls += buf;
  }
  std::printf(
      "{\"perfbench\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"rounds\": %zu, \"host_cores\": %u, "
      "\"build_type\": \"%s\", \"round_wall_s\": [%s]}}\n",
      opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
      opts.seconds, opts.trace ? 1 : 0, rounds.size(),
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      round_walls.c_str());
  const bool correct = repeatable && failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.Json().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
