// Repository benchmark: three workloads over the public library API, each
// with correctness checks, an untraced measurement, and an optional traced
// run that splits the same work into per-layer numbers.
//
//   perfbench --workload NAME --seed N --seconds T --trace 0|1 [--quick]
//   perfbench --replay-test
//
// Every workload has a simulation leg (setup -> timed rounds -> checks) and
// an analysis leg (exact §6.2 degree-MC and mean-field solves):
//
//   bulk_10m            10M nodes, engine only; the slab is far larger than
//                       L3, so initiate/drain/barrier dominate.
//   observed_chaos_50k  50k nodes with the full observer set and a seeded
//                       fault schedule; observation dominates.
//   certify_thresholds  the §6.3 design loop: select thresholds, then exact
//                       and mean-field sweeps at the paper's and the selected
//                       (s, dL); a small observed run at the selected
//                       thresholds cross-checks the solve against simulation.
//
// The traced run takes its timings only at this file's call sites: around
// constructor/seeding/prediction calls, around run_rounds chunks, around
// each observer stage (called here, in ShardedDriver's fixed order, instead of
// from ShardedDriver's own observe hook), and from the public PhaseProfiler.
// Observers draw no RNG, so the traced run must reproduce the untraced
// run's fingerprint and verdicts exactly; that is one of the checks.
//
// The last stdout line is one JSON object (see perfbench/run.py, which
// builds this program, adds the host manifest and prints the result line).

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "analysis/degree_mc.hpp"
#include "analysis/mean_field.hpp"
#include "analysis/prediction.hpp"
#include "analysis/thresholds.hpp"
#include "common/rng.hpp"
#include "core/flat_send_forget.hpp"
#include "core/send_forget.hpp"
#include "graph/graph_gen.hpp"
#include "obs/export/snapshot.hpp"
#include "obs/oracle/theory_oracle.hpp"
#include "obs/profiler.hpp"
#include "obs/recovery.hpp"
#include "obs/timeseries.hpp"
#include "obs/watchdog.hpp"
#include "sim/fault_plane.hpp"
#include "sim/retune.hpp"
#include "sim/sharded_driver.hpp"

namespace {

using namespace gossip;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Peak resident set of this process image in bytes (VmHWM). Not getrusage:
// its ru_maxrss carries the pre-exec peak of the parent process over exec,
// so a small child launched from a larger parent would read the parent's.
double peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib * 1024.0;
}

// ------------------------------------------------------------- workloads

// Worker threads of the timed (end-to-end) runs. Shards, not threads, fix
// the schedule, so a run is bit-identical at any thread count. On a shared
// 4-vCPU Xeon VM (the box the bounds were set on) the hypervisor withholds
// 5-40% of vCPU time whenever several vCPUs are busy, and lockstep rounds
// wait for the slowest worker: four-worker throughput swung 2x within
// minutes (bulk 9-21M, chaos 2.8-6.4M actions/s) while one-worker runs saw
// ~1% steal and stayed within ~10%. So the timed runs use one worker, and
// the traced run uses SimSpec::threads to split the parallel execution
// into initiate / drain / barrier time.
constexpr std::size_t kTimedThreads = 1;

struct SimSpec {
  std::size_t nodes = 0;
  std::size_t shards = 4;
  std::size_t threads = 4;  // workers of the traced run
  std::size_t view_size = 40;
  std::size_t min_degree = 18;
  double loss = 0.02;
  // Circulant install_slot seeding over seeded offsets (no Digraph
  // materialized); otherwise permutation_regular like sfgossip.
  bool circulant = false;
  // Attach the observer set to the driver for the whole run; otherwise the
  // observers only see one probe after the timed region.
  bool observed = false;
  // Seeded fault schedule plus a mass kill between two run_rounds calls.
  bool chaos = false;
  // Take (s, dL) from select_thresholds(30, 0.01) during setup.
  bool select = false;
  std::uint64_t stride = 5;
  // Rounds per repetition; 0 = chosen from the time budget by the first
  // repetition (1-round chunks) and then fixed for the others.
  std::uint64_t rounds = 0;
};

struct AnalysisSpec {
  bool select = false;  // add select_thresholds(30, 0.01) to the grid
  std::vector<double> losses;
};

struct Workload {
  std::string name;
  SimSpec sim;
  AnalysisSpec analysis;
  // The analysis leg, not the simulation leg, gets most of --seconds.
  bool analysis_major = false;
};

// Fault schedule for observed_chaos_50k. Round landmarks are fixed so every
// seed does the same amount of work; the seed picks the partition cut, the
// burst region, the spike rate, phase offsets and the kill victims.
constexpr std::uint64_t kChaosRounds = 700;
constexpr std::uint64_t kKillRound = 560;
constexpr double kKillFraction = 0.2;
// Oracle warmup: a dL-regular start needs ~250 rounds to mix into the
// stationary distribution the oracle judges against.
constexpr std::uint64_t kOracleWarmup = 250;
// Rounds per run_rounds call in attached runs (a multiple of the stride).
constexpr std::uint64_t kSegmentRounds = 35;
// Share of --seconds given to a workload's minor leg.
constexpr double kMinorShare = 0.12;

Workload make_workload(const std::string& name, bool quick) {
  Workload w;
  w.name = name;
  if (name == "bulk_10m") {
    w.sim.nodes = quick ? 20'000 : 10'000'000;
    w.sim.shards = 64;
    w.sim.threads = 4;
    w.sim.circulant = true;
    w.sim.stride = 1;
    w.sim.rounds = quick ? 6 : 0;
    w.analysis.losses = {0.02};
  } else if (name == "observed_chaos_50k") {
    w.sim.nodes = quick ? 2'000 : 50'000;
    w.sim.observed = true;
    w.sim.chaos = true;
    w.sim.rounds = kChaosRounds;
    w.analysis.losses = {0.02};
  } else if (name == "certify_thresholds") {
    w.sim.nodes = quick ? 2'000 : 20'000;
    w.sim.observed = true;
    w.sim.select = true;
    w.sim.rounds = 300;
    w.analysis.select = true;
    w.analysis.losses = {0.0, 0.01, 0.02, 0.05, 0.1};
    w.analysis_major = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

// ------------------------------------------------------------- checks

struct Checks {
  std::uint64_t run = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the report

  bool expect(bool ok, const std::string& what) {
    ++run;
    if (!ok) {
      ++failed;
      if (failures.size() < 16) failures.push_back(what);
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
    return ok;
  }
};

// ------------------------------------------------------------- sim leg

struct SolverStats {
  std::uint64_t calls = 0;
  double seconds = 0.0;
};

// Observer-stage timings of the traced run, in ShardedDriver's fixed order.
struct StageTimes {
  double census = 0, series = 0, watchdog = 0, oracle = 0, retune = 0,
         recovery = 0, streamer = 0;
  std::uint64_t probes = 0;
  [[nodiscard]] double total() const {
    return census + series + watchdog + oracle + retune + recovery + streamer;
  }
};

struct Verdict {
  std::uint64_t fingerprint = 0;
  std::uint64_t watchdog_violations = 0;
  std::uint64_t retunes = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t recovery_episodes = 0;
  std::uint64_t unrecovered = 0;
  std::uint64_t oracle_violations = 0;
  bool operator==(const Verdict&) const = default;
};

std::string describe(const Verdict& v) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "fingerprint=%016" PRIx64 " watchdog_violations=%" PRIu64
                " retunes=%" PRIu64 " snapshots=%" PRIu64
                " recovery_episodes=%" PRIu64 " unrecovered=%" PRIu64
                " oracle_violations=%" PRIu64,
                v.fingerprint, v.watchdog_violations, v.retunes, v.snapshots,
                v.recovery_episodes, v.unrecovered, v.oracle_violations);
  return buf;
}

struct SimResult {
  std::uint64_t rounds = 0;
  double setup_s = 0, alloc_s = 0, seed_s = 0, prediction_s = 0;
  double run_s = 0;          // wall time of the timed region
  double run_rounds_s = 0;   // time inside run_rounds calls
  std::vector<double> segment_s;  // wall time of each run_rounds call
  double actions_per_s = 0;
  double peak_rss_growth = 0;  // bytes
  std::size_t view_size = 0, min_degree = 0, final_min_degree = 0;
  obs::CumulativeCounters counters;
  Verdict verdict;
  StageTimes stages;
  SolverStats solver;
  double final_mean_out = 0;
  double predicted_out = 0;
  std::uint64_t obs51_violations = 0;
  std::uint64_t sink_snapshots = 0;
  // From the PhaseProfiler (traced only): per-worker means and imbalance.
  double initiate_s = 0, drain_s = 0, barrier_s = 0, initiate_imbalance = 0;
};

struct ChaosInputs {
  sim::FaultSchedule schedule;
  std::vector<NodeId> victims;
};

ChaosInputs make_chaos_inputs(std::size_t n, std::uint64_t seed) {
  ChaosInputs in;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5EED);
  in.schedule.regions = 4;
  const auto jitter = [&rng](std::uint64_t span) { return rng.uniform(span); };

  sim::FaultPhase split;
  split.kind = sim::FaultKind::kPartition;
  split.begin = 260 + jitter(20);
  split.end = split.begin + 20;
  const auto cut = static_cast<NodeId>(n / 4 + rng.uniform(n / 2));
  split.a_lo = 0;
  split.a_hi = cut;
  split.b_lo = cut + 1;
  split.b_hi = static_cast<NodeId>(n - 1);
  split.symmetric = true;
  split.label = "partition";
  in.schedule.phases.push_back(split);

  sim::FaultPhase burst;
  burst.kind = sim::FaultKind::kBurst;
  burst.begin = 310 + jitter(20);
  burst.end = burst.begin + 40;
  burst.region = rng.uniform(in.schedule.regions);
  burst.rate = 0.25 + 0.1 * rng.uniform_double();
  burst.burst_len = 8.0;
  burst.label = "regional-burst";
  in.schedule.phases.push_back(burst);

  sim::FaultPhase spike;
  spike.kind = sim::FaultKind::kLossSpike;
  spike.begin = 380 + jitter(20);
  spike.end = kChaosRounds + 1;  // sustained to the end of the run
  spike.rate = 0.11 + 0.02 * rng.uniform_double();
  spike.label = "loss-spike";
  in.schedule.phases.push_back(spike);

  // Partial Fisher-Yates: the first k entries are a uniform k-subset.
  std::vector<NodeId> ids(n);
  std::iota(ids.begin(), ids.end(), NodeId{0});
  const auto k = static_cast<std::size_t>(kKillFraction * static_cast<double>(n));
  for (std::size_t i = 0; i < k; ++i) {
    std::swap(ids[i], ids[i + rng.uniform(n - i)]);
  }
  ids.resize(k);
  in.victims = std::move(ids);
  return in;
}

// Seeds u's first dL slots with a circulant over seeded offsets: slot j of
// u holds (u + c_j) mod n for dL distinct offsets c_j in [1, n). Each offset
// is a permutation of the id space, so the overlay starts dL-regular in and
// out, with no Digraph materialized and the slab written in id order.
void seed_circulant(FlatSendForgetCluster& cluster, std::size_t min_degree,
                    Rng& rng) {
  const std::size_t n = cluster.size();
  std::vector<std::size_t> offsets;
  while (offsets.size() < min_degree) {
    const std::size_t c = 1 + rng.uniform(n - 1);
    if (std::find(offsets.begin(), offsets.end(), c) == offsets.end()) {
      offsets.push_back(c);
    }
  }
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t j = 0; j < min_degree; ++j) {
      const std::size_t v = u + offsets[j];
      cluster.install_slot(u, j, static_cast<NodeId>(v < n ? v : v - n));
    }
  }
}

struct RunOptions {
  std::size_t threads = kTimedThreads;
  // Profile phases and call the observer stages from here, timed.
  bool traced = false;
  // Unobserved workloads: give the observers one probe after the timed
  // region (the only observation such a run has; a census at 10M nodes
  // costs seconds, so only trace-mode invocations pay for it).
  bool end_probe = false;
  // Rounds to run; 0 = time-driven, whole rounds until `budget_s` of
  // round time is spent (at least 2). The result records the count so
  // later repetitions repeat exactly that work.
  std::uint64_t rounds = 0;
  double budget_s = 0;
};

// One simulation repetition: setup, the timed rounds, and the end-of-run
// state the checks read.
SimResult run_sim(const SimSpec& spec, std::uint64_t seed,
                  const RunOptions& opt) {
  const bool traced = opt.traced;
  const std::uint64_t rounds = opt.rounds;
  SimResult r;
  analysis::clear_prediction_cache();  // every repetition solves afresh
  const std::size_t n = spec.nodes;
  ChaosInputs chaos;
  if (spec.chaos) chaos = make_chaos_inputs(n, seed);
  const double rss0 = peak_rss_bytes();
  const auto setup_t0 = Clock::now();

  std::size_t view_size = spec.view_size;
  std::size_t min_degree = spec.min_degree;
  if (spec.select) {
    const analysis::ThresholdSelection sel =
        analysis::select_thresholds(30, 0.01);
    view_size = sel.view_size;
    min_degree = sel.min_degree;
  }
  const SendForgetConfig cfg{.view_size = view_size, .min_degree = min_degree};
  cfg.validate();

  auto t = Clock::now();
  FlatSendForgetCluster cluster(
      n, cfg, FlatClusterOptions{.init_threads = opt.threads});
  r.alloc_s = since(t);

  t = Clock::now();
  Rng overlay_rng(seed * 3 + 1);
  if (spec.circulant) {
    seed_circulant(cluster, min_degree, overlay_rng);
  } else {
    const Digraph g = permutation_regular(n, min_degree, overlay_rng);
    for (NodeId u = 0; u < n; ++u) cluster.install_view(u, g.out_neighbors(u));
  }
  r.seed_s = since(t);

  const sim::FaultPlane plane(chaos.schedule, n, spec.shards);

  sim::ShardedDriver driver(
      cluster, sim::ShardedDriverConfig{.shard_count = spec.shards,
                                        .thread_count = opt.threads,
                                        .loss_rate = spec.loss,
                                        .seed = seed});
  if (spec.chaos) driver.attach_fault_plane(&plane);
  driver.set_observation_stride(spec.stride);

  obs::RoundTimeSeries series(spec.stride);
  obs::InvariantWatchdog watchdog(obs::WatchdogConfig{
      .min_degree = min_degree, .view_size = view_size});
  obs::RecoveryTracker recovery(obs::RecoveryConfig{
      .min_degree = min_degree, .view_size = view_size,
      .warmup_rounds = 100});
  for (const sim::FaultPhase& phase : chaos.schedule.phases) {
    recovery.declare_window(phase.begin, phase.end, phase.label);
  }
  if (spec.chaos) recovery.declare_window(kKillRound, kKillRound + 1, "mass-kill");
  recovery.attach_series(&series);

  // One solver closure serves the initial prediction and every retune
  // re-solve, as in `sfgossip simulate --retune`; wrapping it counts and
  // times both.
  SolverStats* stats = &r.solver;
  const sim::RetuneController::Solver solver =
      [stats](std::size_t s, std::size_t dl, double loss, double delta) {
        const auto t0 = Clock::now();
        analysis::DegreeMcParams dp;
        dp.view_size = s;
        dp.min_degree = dl;
        dp.loss = loss;
        obs::TheoryPrediction p = analysis::make_theory_prediction(
            dp, delta, analysis::PredictionSource::kMeanField);
        ++stats->calls;
        stats->seconds += since(t0);
        return p;
      };
  t = Clock::now();
  obs::TheoryPrediction prediction = solver(view_size, min_degree, spec.loss, 0.01);
  r.prediction_s = since(t);
  r.predicted_out = prediction.expected_out;

  obs::OracleConfig oracle_config;
  oracle_config.warmup_rounds = kOracleWarmup;
  obs::TheoryOracle oracle(std::move(prediction), oracle_config);
  for (const sim::FaultPhase& phase : chaos.schedule.phases) {
    // The sustained spike is the controller's to handle, not a declared
    // fault; the others are scripted and expected.
    if (phase.kind == sim::FaultKind::kLossSpike) continue;
    oracle.declare_fault_window(phase.begin, phase.end, 40);
  }
  if (spec.chaos) oracle.declare_fault_window(kKillRound, kKillRound + 100, 40);
  sim::RetuneController retune(
      sim::RetuneConfig{}, solver,
      [&cluster](std::size_t dl) { cluster.set_min_degree(dl); });
  retune.bind_oracle(&oracle);

  obs::SnapshotStreamer streamer(
      driver.metrics_registry(),
      obs::ExportConfig{.snapshot_stride = spec.stride});
  streamer.add_sink(std::make_unique<obs::CallbackSnapshotSink>(
      [&r](const obs::RegistrySnapshot&) { ++r.sink_snapshots; }));

  // Same attach order as `sfgossip chaos`. The traced run attaches and then
  // detaches each observer: that binds its gauges to ShardedDriver's registry
  // exactly as the attached run does, but leaves the calls to this file.
  driver.attach_oracle(&oracle);
  driver.attach_time_series(&series);
  driver.attach_watchdog(&watchdog);
  driver.attach_retune(&retune);
  driver.attach_recovery(&recovery);
  driver.attach_streamer(&streamer);
  const bool replay = traced || !spec.observed;
  if (replay) {
    driver.attach_oracle(nullptr);
    driver.attach_time_series(nullptr);
    driver.attach_watchdog(nullptr);
    driver.attach_retune(nullptr);
    driver.attach_recovery(nullptr);
    driver.attach_streamer(nullptr);
  }
  obs::PhaseProfiler profiler(spec.shards);
  if (traced) driver.attach_profiler(&profiler);
  r.setup_s = since(setup_t0);
  r.view_size = view_size;
  r.min_degree = min_degree;

  // Observer stages in ShardedDriver's fixed order (ShardedDriver::
  // observe_round), each timed at this call site.
  std::vector<std::uint32_t> occurrences;
  const std::size_t nodes_per_shard = (n + spec.shards - 1) / spec.shards;
  const auto observe_stages = [&](std::uint64_t round) {
    StageTimes& st = r.stages;
    auto s0 = Clock::now();
    const obs::FlatClusterProbe probe = obs::probe_cluster(cluster, &occurrences);
    st.census += since(s0);
    const obs::CumulativeCounters c = driver.cumulative_counters();
    s0 = Clock::now();
    series.record(round, probe.outdegree, probe.indegree, probe.live_nodes,
                  probe.empty_slot_fraction, c);
    st.series += since(s0);
    s0 = Clock::now();
    watchdog.check_cluster(round, cluster, nodes_per_shard);
    watchdog.check_conservation(round, c);
    watchdog.check_rates(round, c);
    st.watchdog += since(s0);
    s0 = Clock::now();
    oracle.observe(round, probe, occurrences, c);
    st.oracle += since(s0);
    s0 = Clock::now();
    retune.observe(round, c);
    st.retune += since(s0);
    s0 = Clock::now();
    recovery.observe(round, probe, &cluster, &watchdog, &oracle.monitor());
    st.recovery += since(s0);
    s0 = Clock::now();
    streamer.observe(round);
    st.streamer += since(s0);
    ++st.probes;
  };

  const auto chunk = [&](std::uint64_t k) {
    const auto c0 = Clock::now();
    driver.run_rounds(k);
    r.segment_s.push_back(since(c0));
    r.run_rounds_s += r.segment_s.back();
  };
  const auto run_t0 = Clock::now();
  if (rounds == 0) {
    // Time-driven: whole rounds until the budget is spent (at least 2).
    while (driver.rounds_completed() < 2 || since(run_t0) < opt.budget_s) {
      chunk(1);
    }
  } else if (!replay) {
    // Attached observers, the shape of `sfgossip chaos`: run_rounds calls
    // with the kill between two of them. The calls are cut into fixed
    // segments so repetitions can be compared segment by segment; where a
    // call ends does not change what ShardedDriver computes.
    bool killed = false;
    while (driver.rounds_completed() < rounds) {
      const std::uint64_t done = driver.rounds_completed();
      std::uint64_t next = std::min(done + kSegmentRounds, rounds);
      if (spec.chaos && done < kKillRound) next = std::min(next, kKillRound);
      chunk(next - done);
      if (spec.chaos && !killed && next == kKillRound) {
        for (const NodeId u : chaos.victims) driver.kill(u);
        killed = true;
      }
    }
  } else {
    const std::uint64_t step = spec.observed ? spec.stride : 1;
    while (driver.rounds_completed() < rounds) {
      chunk(std::min(step, rounds - driver.rounds_completed()));
      const std::uint64_t round = driver.rounds_completed();
      if (spec.observed && round % spec.stride == 0) observe_stages(round);
      if (spec.chaos && round == kKillRound) {
        for (const NodeId u : chaos.victims) driver.kill(u);
      }
    }
  }
  r.run_s = since(run_t0);
  r.rounds = driver.rounds_completed();
  r.counters = driver.cumulative_counters();
  r.actions_per_s = static_cast<double>(driver.actions_executed()) / r.run_s;
  if (!spec.observed && opt.end_probe) observe_stages(r.rounds);
  r.peak_rss_growth = std::max(0.0, peak_rss_bytes() - rss0);

  r.final_min_degree = cluster.config().min_degree;
  // Obs 5.1 over every live node, judged by a fresh watchdog with no warmup
  // against the lowest dL the run ever had installed (a node below a newly
  // raised dL climbs to it; it never falls below a dL it once reached).
  std::size_t lowest_min_degree = min_degree;
  for (const sim::RetuneEvent& e : retune.events()) {
    if (e.applied) lowest_min_degree = std::min(lowest_min_degree, e.new_min_degree);
  }
  obs::InvariantWatchdog verifier(obs::WatchdogConfig{
      .min_degree = lowest_min_degree,
      .view_size = view_size,
      .warmup_rounds = 0});
  verifier.check_cluster(r.rounds, cluster, nodes_per_shard);
  r.obs51_violations = verifier.violation_count();
  if (!series.samples().empty()) {
    r.final_mean_out = series.samples().back().outdegree.mean;
  }
  r.verdict.fingerprint = cluster.fingerprint();
  r.verdict.watchdog_violations = watchdog.violation_count();
  r.verdict.retunes = retune.retunes_applied();
  r.verdict.snapshots = streamer.snapshots_taken();
  r.verdict.recovery_episodes = recovery.episodes().size();
  r.verdict.unrecovered = recovery.unrecovered();
  r.verdict.oracle_violations = oracle.monitor().violation_transitions();

  if (traced) {
    std::vector<double> init(spec.shards, 0.0);
    double drain = 0, barrier = 0;
    for (std::size_t s = 0; s < spec.shards; ++s) {
      for (const auto& p : profiler.shard_totals(s)) {
        const double sec = static_cast<double>(p.nanos) * 1e-9;
        if (p.name == "initiate") init[s] += sec;
        if (p.name == "drain") drain += sec;
        if (p.name == "barrier_wait") barrier += sec;
      }
    }
    const double workers = static_cast<double>(driver.thread_count());
    const double init_total = std::accumulate(init.begin(), init.end(), 0.0);
    r.initiate_s = init_total / workers;
    r.drain_s = drain / workers;
    r.barrier_s = barrier / workers;
    const double mean = init_total / static_cast<double>(spec.shards);
    r.initiate_imbalance =
        mean > 0 ? *std::max_element(init.begin(), init.end()) / mean : 0.0;
  }
  return r;
}

// Checks on one finished repetition. A separate watchdog re-checks Obs 5.1
// over every live node (the run's own watchdog is one of the observers
// whose verdict is compared, not the judge).
void check_sim(const SimSpec& spec, const SimResult& r, Checks& checks) {
  const obs::CumulativeCounters& c = r.counters;
  checks.expect(c.sent == c.delivered + c.lost + c.to_dead + c.faulted,
                "conservation: sent = delivered + lost + to_dead + faulted");
  checks.expect(c.actions == c.self_loops + c.sent,
                "every non-self-loop action sends one message");
  checks.expect(r.obs51_violations == 0,
                "Obs 5.1: every live outdegree even and in [dL, s]");
  checks.expect(r.verdict.snapshots > 0 || !spec.observed,
                "the streamer captured snapshots");
  checks.expect(r.sink_snapshots == r.verdict.snapshots,
                "the in-process sink received every snapshot");
  if (spec.select) {
    // The run at the selected thresholds lands near the solved stationary
    // mean outdegree (mean-field prediction at the same point).
    checks.expect(std::abs(r.final_mean_out - r.predicted_out) < 1.0,
                  "simulated mean outdegree within 1 of the prediction");
  }
}

// ------------------------------------------------------------- analysis

struct PointResult {
  std::size_t view_size = 0, min_degree = 0;
  double loss = 0;
  std::size_t outer = 0, inner = 0, closure = 0, refinement = 0;
  double mean_in = 0, dup = 0, del = 0, balance_gap = 0, tvd = 0;
  bool within_bound = false;
  bool exact_converged = false, mf_converged = false;
};

struct AnalysisResult {
  double exact_s = 0;
  double meanfield_s = 0;  // median over the inner repetitions
  std::vector<PointResult> points;
};

double tvd(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0;
  const std::size_t m = std::max(a.size(), b.size());
  for (std::size_t i = 0; i < m; ++i) {
    const double x = i < a.size() ? a[i] : 0.0;
    const double y = i < b.size() ? b[i] : 0.0;
    sum += std::abs(x - y);
  }
  return 0.5 * sum;
}

AnalysisResult run_analysis(const AnalysisSpec& spec, double mf_budget_s) {
  AnalysisResult out;
  const auto box = [](std::size_t s, std::size_t dl) {
    analysis::DegreeMcParams p;
    p.view_size = s;
    p.min_degree = dl;
    return p;
  };
  std::vector<analysis::DegreeMcParams> params = {box(40, 18)};
  if (spec.select) {
    const analysis::ThresholdSelection sel =
        analysis::select_thresholds(30, 0.01);
    params.push_back(box(sel.view_size, sel.min_degree));
  }

  std::vector<std::vector<analysis::DegreeMcResult>> exact;
  auto t = Clock::now();
  for (const auto& p : params) {
    exact.push_back(analysis::solve_degree_mc_sweep(p, spec.losses));
  }
  out.exact_s = since(t);

  // The mean-field sweeps take milliseconds; repeat them and keep the
  // median so the figure resolves.
  std::vector<std::vector<analysis::MeanFieldResult>> mf;
  std::vector<double> mf_times;
  const auto mf_t0 = Clock::now();
  while (mf_times.size() < 5 || since(mf_t0) < mf_budget_s) {
    mf.clear();
    t = Clock::now();
    for (const auto& p : params) {
      mf.push_back(analysis::solve_mean_field_sweep(
          analysis::mean_field_params(p), spec.losses));
    }
    mf_times.push_back(since(t));
  }
  out.meanfield_s = median(mf_times);

  for (std::size_t b = 0; b < params.size(); ++b) {
    for (std::size_t i = 0; i < spec.losses.size(); ++i) {
      const analysis::DegreeMcResult& e = exact[b][i];
      const analysis::MeanFieldResult& m = mf[b][i];
      PointResult p;
      p.view_size = params[b].view_size;
      p.min_degree = params[b].min_degree;
      p.loss = spec.losses[i];
      p.outer = e.fixed_point_iterations;
      p.inner = e.stationary_iterations;
      p.closure = m.closure_iterations;
      p.refinement = m.refinement_iterations;
      p.mean_in = e.expected_in;
      p.dup = e.duplication_probability;
      p.del = e.deletion_probability;
      p.balance_gap = std::abs(p.dup - (p.loss + p.del));
      p.within_bound = p.dup >= p.loss && p.dup <= p.loss + 0.01;
      p.tvd = std::max(tvd(e.out_pmf, m.out_pmf), tvd(e.in_pmf, m.in_pmf));
      p.exact_converged = e.converged;
      p.mf_converged = m.converged;
      out.points.push_back(p);
    }
  }
  return out;
}

// The Lemma 6.6 gate is 1e-5: the exact chain's balance gap is a model
// property of the truncated §6.2 chain (up to 3.3e-6 on this grid), not
// solver noise, so 1e-6 cannot hold; tests/test_thresholds.cpp pins 1e-4.
// The mean-field contract (TVD <= 5e-3) is judged wherever the mean-field
// solver reports convergence; points where it reports non-convergence are
// counted and reported (analysis.meanfield_unconverged_points), so a solver
// that silently returns a wrong answer fails and one that says so shows.
constexpr double kBalanceGate = 1e-5;
constexpr double kTvdGate = 5e-3;

void check_analysis(const AnalysisResult& a, Checks& checks) {
  for (const PointResult& p : a.points) {
    char where[96];
    std::snprintf(where, sizeof where, " at s=%zu dL=%zu l=%g", p.view_size,
                  p.min_degree, p.loss);
    checks.expect(p.exact_converged,
                  std::string("exact solver converged") + where);
    checks.expect(p.within_bound,
                  std::string("Lemma 6.7: dup in [l, l+0.01]") + where);
    checks.expect(p.balance_gap <= kBalanceGate,
                  std::string("Lemma 6.6: |dup - (l + del)| <= 1e-5") + where);
    checks.expect(!p.mf_converged || p.tvd <= kTvdGate,
                  std::string("converged mean-field within 5e-3 TVD of exact") +
                      where);
  }
}

// ------------------------------------------------------------- output

class Json {
 public:
  void key(const std::string& k) {
    sep();
    out_ << '"' << k << "\":";
    fresh_ = true;
  }
  void num(const std::string& k, double v) {
    key(k);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    out_ << buf;
    fresh_ = false;
  }
  void uint(const std::string& k, std::uint64_t v) {
    key(k);
    out_ << v;
    fresh_ = false;
  }
  void str(const std::string& k, const std::string& v) {
    key(k);
    quoted(v);
  }
  // A number element of the innermost open array.
  void item_num(double v) {
    sep();
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    out_ << buf;
    fresh_ = false;
  }
  // A string element of the innermost open array.
  void item(const std::string& v) {
    sep();
    quoted(v);
  }
  void boolean(const std::string& k, bool v) {
    key(k);
    out_ << (v ? "true" : "false");
    fresh_ = false;
  }
  void open(const std::string& k = "") {
    if (!k.empty()) key(k); else sep();
    out_ << '{';
    fresh_ = true;
  }
  void open_array(const std::string& k) {
    key(k);
    out_ << '[';
    fresh_ = true;
  }
  void close() { out_ << '}'; fresh_ = false; }
  void close_array() { out_ << ']'; fresh_ = false; }
  [[nodiscard]] std::string str() const { return out_.str(); }

 private:
  void sep() {
    if (!fresh_) out_ << ',';
    fresh_ = false;
  }
  void quoted(const std::string& v) {
    out_ << '"';
    for (const char ch : v) {
      if (ch == '"' || ch == '\\') out_ << '\\';
      out_ << ch;
    }
    out_ << '"';
    fresh_ = false;
  }
  std::ostringstream out_;
  bool fresh_ = true;
};

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.c_str();
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

void write_manifest(Json& j, const Workload& w, std::uint64_t seed,
                    bool quick) {
  j.open("manifest");
  j.str("workload", w.name);
  j.uint("seed", seed);
  j.boolean("quick", quick);
  j.str("build_type", PERFBENCH_BUILD_TYPE);
  j.str("compiler", PERFBENCH_COMPILER);
  j.str("cxx_flags", PERFBENCH_CXX_FLAGS);
  j.str("cpu_model", cpu_model());
  j.uint("nproc", std::thread::hardware_concurrency());
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  j.uint("l3_bytes", l3 > 0 ? static_cast<std::uint64_t>(l3) : 0);
  j.uint("timed_worker_threads", kTimedThreads);
  j.uint("traced_worker_threads", w.sim.threads);
  j.uint("shards", w.sim.shards);
  j.uint("n", w.sim.nodes);
  // Computed from the array sizes of FlatSendForgetCluster: 4-byte view
  // slots x s, a 2-byte degree and a 1-byte liveness flag per node.
  const std::uint64_t view = w.sim.select
                                 ? analysis::select_thresholds(30, 0.01).view_size
                                 : w.sim.view_size;
  j.uint("slab_bytes", w.sim.nodes * (view * 4 + 2 + 1));
  j.close();
}

void write_stage_metrics(Json& j, const SimResult& r) {
  const StageTimes& st = r.stages;
  j.num("obs.census_s", st.census);
  j.num("obs.series_s", st.series);
  j.num("obs.watchdog_s", st.watchdog);
  j.num("obs.oracle_s", st.oracle);
  j.num("obs.retune_s", st.retune);
  j.num("obs.recovery_s", st.recovery);
  j.num("obs.streamer_s", st.streamer);
  j.uint("obs.probes", st.probes);
  j.num("obs.share", st.total() / (st.total() + r.run_rounds_s));
}

void write_layer_metrics(Json& j, const SimResult& sim,
                         const AnalysisResult& an, double overhead_pct) {
  j.num("setup.cluster_alloc_s", sim.alloc_s);
  j.num("setup.overlay_seed_s", sim.seed_s);
  j.num("setup.prediction_s", sim.prediction_s);
  j.num("sim.run_rounds_s", sim.run_rounds_s);
  j.num("sim.initiate_s", sim.initiate_s);
  j.num("sim.drain_s", sim.drain_s);
  j.num("sim.barrier_wait_s", sim.barrier_s);
  j.num("sim.initiate_imbalance", sim.initiate_imbalance);
  const obs::CumulativeCounters& c = sim.counters;
  const auto frac = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  j.uint("core.actions", c.actions);
  j.num("core.self_loop_fraction", frac(c.self_loops, c.actions));
  j.num("core.duplication_rate", frac(c.duplications, c.sent));
  j.num("core.deletion_rate", frac(c.deletions, c.sent));
  j.num("sim.loss_fraction", frac(c.lost, c.sent));
  j.num("sim.fault_fraction", frac(c.faulted, c.sent));
  j.num("sim.to_dead_fraction", frac(c.to_dead, c.sent));
  write_stage_metrics(j, sim);
  std::uint64_t outer = 0, inner = 0, closure = 0, refine = 0, unconverged = 0;
  double max_tvd = 0, max_gap = 0;
  for (const PointResult& p : an.points) {
    outer += p.outer;
    inner += p.inner;
    closure += p.closure;
    refine += p.refinement;
    max_tvd = std::max(max_tvd, p.tvd);
    max_gap = std::max(max_gap, p.balance_gap);
    if (!p.mf_converged) ++unconverged;
  }
  j.uint("analysis.exact_outer_iterations", outer);
  j.uint("markov.inner_iterations", inner);
  j.uint("analysis.meanfield_closure_iterations", closure);
  j.uint("analysis.meanfield_refinement_iterations", refine);
  j.uint("analysis.retune_solves", sim.solver.calls);
  j.num("analysis.retune_solve_s", sim.solver.seconds);
  j.num("analysis.max_tvd_meanfield_vs_exact", max_tvd);
  j.uint("analysis.meanfield_unconverged_points", unconverged);
  j.num("analysis.max_balance_gap", max_gap);
  j.num("trace_overhead_pct", overhead_pct);
}

void write_points(Json& j, const AnalysisResult& a) {
  j.open_array("points");
  for (const PointResult& p : a.points) {
    j.open();
    j.uint("s", p.view_size);
    j.uint("dL", p.min_degree);
    j.num("loss", p.loss);
    j.uint("outer", p.outer);
    j.uint("inner", p.inner);
    j.uint("closure", p.closure);
    j.uint("refinement", p.refinement);
    j.num("mean_in", p.mean_in);
    j.num("dup", p.dup);
    j.num("del", p.del);
    j.num("balance_gap", p.balance_gap);
    j.num("tvd", p.tvd);
    j.boolean("meanfield_converged", p.mf_converged);
    j.close();
  }
  j.close_array();
}

void write_samples(Json& j, const std::string& k,
                   const std::vector<double>& v) {
  j.open_array(k);
  for (const double x : v) j.item_num(x);
  j.close_array();
}

void write_verdict(Json& j, const std::string& k, const Verdict& v) {
  j.open(k);
  char fp[32];
  std::snprintf(fp, sizeof fp, "%016" PRIx64, v.fingerprint);
  j.str("fingerprint", fp);
  j.uint("watchdog_violations", v.watchdog_violations);
  j.uint("retunes_applied", v.retunes);
  j.uint("snapshots", v.snapshots);
  j.uint("recovery_episodes", v.recovery_episodes);
  j.uint("unrecovered", v.unrecovered);
  j.uint("oracle_violations", v.oracle_violations);
  j.close();
}

bool same_points(const AnalysisResult& a, const AnalysisResult& b) {
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const PointResult& x = a.points[i];
    const PointResult& y = b.points[i];
    if (x.outer != y.outer || x.inner != y.inner || x.mean_in != y.mean_in ||
        x.closure != y.closure || x.refinement != y.refinement) {
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------------- entry points

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool quick = false;
  bool replay_test = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds T "
               "--trace 0|1 [--quick]\n"
               "       perfbench --replay-test\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        a.workload = value();
      } else if (flag == "--seed") {
        a.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value());
      } else if (flag == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--quick") {
        a.quick = true;
      } else if (flag == "--replay-test") {
        a.replay_test = true;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!a.replay_test && a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0) || a.seconds > 3600) usage("--seconds out of range");
  return a;
}

// Runs `body` at least `min_reps` times, then again while the mean
// repetition still fits in what is left of `budget_s` (at most 64 times).
void repeat(int min_reps, double budget_s, const std::function<void()>& body) {
  const auto t0 = Clock::now();
  for (int done = 0; done < 64; ++done) {
    if (done >= min_reps && since(t0) * (done + 1) / done > budget_s) break;
    body();
  }
}

int run_workload(const Args& args) {
  const Workload w = make_workload(args.workload, args.quick);
  const double T = args.seconds;
  Checks checks;
  std::uint64_t attempted = 0, failed_ops = 0;
  const auto op = [&](const std::function<void(Checks&)>& body) {
    Checks local;
    body(local);
    ++attempted;
    if (local.failed > 0) ++failed_ops;
    checks.run += local.run;
    checks.failed += local.failed;
    for (auto& f : local.failures) {
      if (checks.failures.size() < 16) checks.failures.push_back(f);
    }
  };
  const double minor_s = kMinorShare * T;
  const double sim_s = w.analysis_major ? minor_s : T - minor_s;
  const double analysis_s = w.analysis_major ? T - minor_s : minor_s;

  Json j;
  j.open();
  write_manifest(j, w, args.seed, args.quick);
  j.boolean("trace", args.trace);

  if (!args.trace) {
    // Simulation repetitions (at least three), then analysis repetitions (at
    // least two), more while each leg's budget allows. A time-driven
    // workload's first repetition fixes the round count for the others.
    std::vector<SimResult> reps;
    repeat(3, sim_s, [&] {
      op([&](Checks& c) {
        RunOptions opt;
        opt.rounds = reps.empty() ? w.sim.rounds : reps.front().rounds;
        opt.budget_s = 0.6 * sim_s / 3.0;
        SimResult r = run_sim(w.sim, args.seed, opt);
        check_sim(w.sim, r, c);
        if (!reps.empty()) {
          c.expect(r.verdict == reps.front().verdict,
                   "fingerprint and verdicts repeat: " + describe(r.verdict) +
                       " vs " + describe(reps.front().verdict));
        }
        reps.push_back(std::move(r));
      });
    });
    std::vector<AnalysisResult> solves;
    repeat(2, analysis_s, [&] {
      op([&](Checks& c) {
        AnalysisResult a = run_analysis(w.analysis, 0.03 * analysis_s);
        check_analysis(a, c);
        if (!solves.empty()) {
          c.expect(same_points(a, solves.front()),
                   "solver results repeat bit-exactly");
        }
        solves.push_back(std::move(a));
      });
    });
    std::vector<double> setup, rate, exact, mf;
    for (const SimResult& r : reps) {
      setup.push_back(r.setup_s);
      rate.push_back(r.actions_per_s);
    }
    for (const AnalysisResult& a : solves) {
      exact.push_back(a.exact_s);
      mf.push_back(a.meanfield_s);
    }
    // Every repetition runs the same segments (same rounds, same fingerprint),
    // so the run time is estimated segment by segment as the median over
    // repetitions: a stall that hits one repetition's segment is filtered.
    double run_s = 0;
    for (std::size_t k = 0; k < reps.front().segment_s.size(); ++k) {
      std::vector<double> t;
      for (const SimResult& r : reps) t.push_back(r.segment_s.at(k));
      run_s += median(t);
    }
    const double actions = static_cast<double>(reps.front().counters.actions);
    j.open("metrics");
    j.num("actions_per_s", actions / run_s);
    j.num("setup_s", median(setup));
    j.num("bytes_per_node", reps.front().peak_rss_growth /
                                static_cast<double>(w.sim.nodes));
    j.num("exact_solve_s", median(exact));
    j.num("meanfield_solve_s", median(mf));
    j.close();
    j.open("detail");
    j.uint("sim_repetitions", reps.size());
    j.uint("analysis_repetitions", solves.size());
    write_samples(j, "samples.actions_per_s", rate);
    write_samples(j, "samples.setup_s", setup);
    write_samples(j, "samples.exact_solve_s", exact);
    write_samples(j, "samples.meanfield_solve_s", mf);
    j.uint("rounds", reps.front().rounds);
    j.uint("view_size", reps.front().view_size);
    j.uint("min_degree", reps.front().min_degree);
    j.uint("final_min_degree", reps.front().final_min_degree);
    j.num("final_mean_out", reps.front().final_mean_out);
    j.num("predicted_out", reps.front().predicted_out);
    write_verdict(j, "verdict", reps.front().verdict);
    write_points(j, solves.front());
    j.close();
  } else {
    // One untraced and one traced repetition of the same work.
    SimResult plain, traced;
    op([&](Checks& c) {
      plain = run_sim(w.sim, args.seed,
                      RunOptions{.threads = w.sim.threads,
                                 .end_probe = true,
                                 .rounds = w.sim.rounds,
                                 .budget_s = 0.6 * sim_s / 3.0});
      check_sim(w.sim, plain, c);
    });
    op([&](Checks& c) {
      traced = run_sim(w.sim, args.seed,
                       RunOptions{.threads = w.sim.threads,
                                  .traced = true,
                                  .end_probe = true,
                                  .rounds = plain.rounds});
      check_sim(w.sim, traced, c);
      c.expect(traced.verdict == plain.verdict,
               "traced run reproduces the untraced run: " +
                   describe(traced.verdict) + " vs " + describe(plain.verdict));
    });
    AnalysisResult a_plain, a_traced;
    op([&](Checks& c) {
      a_plain = run_analysis(w.analysis, 0.03 * analysis_s);
      check_analysis(a_plain, c);
    });
    op([&](Checks& c) {
      a_traced = run_analysis(w.analysis, 0.03 * analysis_s);
      check_analysis(a_traced, c);
      c.expect(same_points(a_plain, a_traced),
               "solver results repeat bit-exactly");
    });
    const double overhead =
        w.analysis_major
            ? 100.0 * ((a_traced.exact_s + a_traced.meanfield_s) /
                           (a_plain.exact_s + a_plain.meanfield_s) - 1.0)
            : 100.0 * (plain.actions_per_s / traced.actions_per_s - 1.0);
    j.open("metrics");
    write_layer_metrics(j, traced, a_traced, overhead);
    j.close();
    j.open("detail");
    j.uint("rounds", traced.rounds);
    j.num("untraced_actions_per_s", plain.actions_per_s);
    j.num("traced_actions_per_s", traced.actions_per_s);
    write_verdict(j, "verdict", plain.verdict);
    write_verdict(j, "traced_verdict", traced.verdict);
    write_points(j, a_traced);
    j.close();
  }
  j.uint("attempted", attempted);
  j.uint("failed", failed_ops);
  j.uint("checks_run", checks.run);
  j.uint("check_failures", checks.failed);
  j.open_array("failures");
  for (const std::string& f : checks.failures) j.item(f);
  j.close_array();
  j.close();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

// The observer pipeline replayed from this file (as the traced run does)
// must match ShardedDriver's own attached pipeline in fingerprint and every
// verdict, at 1 and at 4 workers.
int run_replay_test() {
  const Workload w = make_workload("observed_chaos_50k", /*quick=*/true);
  int failures = 0;
  std::vector<Verdict> seen;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const bool traced : {false, true}) {
      const SimResult r = run_sim(
          w.sim, 7,
          RunOptions{.threads = threads, .traced = traced, .rounds = w.sim.rounds});
      std::printf("threads=%zu %s: %s\n", threads,
                  traced ? "replayed" : "attached", describe(r.verdict).c_str());
      if (!seen.empty() && !(r.verdict == seen.front())) ++failures;
      if (r.stages.probes == 0 && traced) ++failures;
      seen.push_back(r.verdict);
    }
  }
  std::printf("replay test: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return args.replay_test ? run_replay_test() : run_workload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
