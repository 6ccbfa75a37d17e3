// Regression gates for the B&B core, the advisor daemon and the
// observability layer. Each mode emits one JSON document on stdout and
// exits non-zero when its contract breaks; the ctest smokes run the
// --quick variants against the checked-in BENCH_*.json baselines:
//
//   $ ./build/bench_parallel --mip-core > BENCH_mip.json  # warm-start B&B
//   $ ./build/bench_parallel --serve > BENCH_serve.json   # daemon cache
//   $ ./build/bench_parallel --obs > BENCH_obs.json       # recorder cost
//
// End-to-end and per-layer timings of fixed-work requests live in
// perfbench/ (python3 perfbench/run.py).
//
// The --mip-core section solves the same eq.-(7) branch & bound twice —
// MipOptions::use_warm_start off (every node a cold dual simplex from the
// slack basis) and on (dual reoptimization from the parent basis) — and
// reports the node and simplex-iteration counts of both, plus the
// factorized-core counters (Forrest–Tomlin updates, bound flips,
// refactorization triggers).
// Contract: identical optimal objectives and >= 2x fewer total simplex
// iterations with warm starts (tracked in BENCH_mip.json). `--mip-core
// --quick` runs the smallest scenario and exits non-zero when the
// objectives diverge, warm starts stop engaging, or the iteration
// reduction falls under 1.5x — the ctest / CI smoke gate against
// warm-start regressions.
//
// Two more --mip-core flags turn the one-shot gate into a trend check:
//   --baseline FILE   compare each section's warm pivot/factorization
//                     counts against the checked-in BENCH_mip.json and
//                     fail on a >15% regression;
//   --history FILE    append one JSON line of per-section warm aggregates
//                     (the telemetry.mip counters) per run, so CI keeps a
//                     per-run history instead of a single snapshot;
//   --trace FILE      record the run at ObsLevel full and dump the flight
//                     recorder as Chrome Trace Event JSON (the CI artifact
//                     showing B&B node / LP solve spans).
//
// The --serve section prices the advisor daemon's solution cache end to
// end through a real Unix-socket round trip: the same TPC-C ILP request
// cold (cache miss), repeated verbatim (exact canonical-fingerprint hit,
// served from cache after re-certification), and with all query
// frequencies scaled by 5% (shape hit: the cached incumbent and terminal
// root basis seed the fresh solve). Contracts, gated by `--serve --quick`
// (the serve_cache_smoke ctest): an exact hit answers >= 10x faster than
// the cold solve, and the basis-seeded solve spends fewer total simplex
// iterations than the same shifted problem solved cold on a fresh daemon.
// `--serve --baseline BENCH_serve.json` trend-checks the cold seconds like
// the other sections.
//
// The --obs section prices the observability layer itself on a fixed-work
// TPC-C batch SA solve (restart-capped and on one table thread, so every
// level does identical, deterministic work; checked per run). The off
// level is timed in process CPU seconds (getrusage). Each of basic / full
// is priced by replaying, in isolation, exactly the recorder work that
// level did on the batch: every event it recorded plus the per-request
// telemetry snapshot. Overhead = recorder seconds / off seconds, gated at
// <2% for basic and <5% for full (plus an absolute slack). Host noise
// scales that ratio instead of adding to it, so a ~1% overhead cannot
// read as 8% on a co-tenanted machine the way a difference of two noisy
// batch timings does. `--obs --baseline BENCH_obs.json` also pins the
// workload against the checked-in snapshot, exactly and independent of the
// host: the batch's answer cost bit for bit, the basic/full event counts
// and the total SA iterations. The off CPU seconds are reported only
// (perfbench's rnd32x100_sa owns SA timing). `--obs --quick` is the CI
// smoke variant (fewer repetitions, same per-sample work).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "api/json.h"
#include "api/solver_registry.h"
#include "cost/cost_model.h"
#include "engine/batch_advisor.h"
#include "instances/random_instance.h"
#include "instances/tpcc.h"
#include "mip/branch_and_bound.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/server.h"
#include "solver/formulation.h"
#include "util/stopwatch.h"
#include "workload/instance.h"
#include "workload/instance_io.h"

namespace vpart::bench {
namespace {

double MedianSeconds(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Best-of-samples: the standard microbenchmark noise cut for
/// sub-millisecond work (the minimum is the run least disturbed by the
/// scheduler).
double MinSeconds(const std::vector<double>& samples) {
  return *std::min_element(samples.begin(), samples.end());
}

// --- warm-started MIP core: warm dual reoptimize vs cold dual -------------

MipResult RunMipCore(const LpModel& model, bool warm_start, int threads,
                     double time_limit) {
  MipOptions options;
  options.time_limit_seconds = time_limit;
  options.relative_gap = 0.001;  // the paper's 0.1% gap
  options.use_warm_start = warm_start;
  options.num_threads = threads;
  return SolveMip(model, options);
}

/// One --mip-core section's warm-run aggregates, kept for the baseline
/// trend check and the per-run history line.
struct MipCoreSection {
  std::string key;
  MipResult warm;
};

/// Solves `instance`'s eq.-(7) model cold and warm, prints one JSON
/// section, and returns whether the warm-start contract held (identical
/// objectives, warm starts engaged, iteration reduction above the gate).
bool EmitMipCore(const char* key, const Instance& instance, int num_sites,
                 int threads, double time_limit, double min_reduction,
                 bool& first_section, std::vector<MipCoreSection>& sections) {
  CostModel cost_model(&instance, CostParams{.p = 8, .lambda = 0.1});
  FormulationOptions formulation_options;
  formulation_options.num_sites = num_sites;
  IlpFormulation formulation =
      BuildIlpFormulation(cost_model, formulation_options);

  const MipResult cold =
      RunMipCore(formulation.model, /*warm_start=*/false, threads, time_limit);
  const MipResult warm =
      RunMipCore(formulation.model, /*warm_start=*/true, threads, time_limit);

  const double reduction =
      warm.lp_iterations > 0
          ? static_cast<double>(cold.lp_iterations) / warm.lp_iterations
          : 0.0;
  const double objective_delta =
      std::abs(warm.objective - cold.objective) /
      std::max(1.0, std::abs(cold.objective));
  // When both runs prove optimality within the same gap the objectives must
  // agree to tolerance even though the trees (and hence node counts) may
  // differ. When only the cold baseline hits the time limit, the warm proof
  // must dominate the cold incumbent (it typically does by a margin — that
  // asymmetry IS the point of warm starting); a warm run timing out where
  // cold proved is a regression.
  bool objectives_agree = false;
  if (warm.has_incumbent() && cold.has_incumbent()) {
    const bool warm_proved = warm.status == MipStatus::kOptimal;
    const bool cold_proved = cold.status == MipStatus::kOptimal;
    if (warm_proved && cold_proved) {
      objectives_agree = objective_delta <= 2e-3;
    } else if (warm_proved) {
      objectives_agree =
          warm.objective <=
          cold.objective + 2e-3 * std::max(1.0, std::abs(cold.objective));
    } else if (!cold_proved) {
      objectives_agree = true;  // both limit-hit: incumbents may differ
    }
  }
  const bool ok = objectives_agree && warm.lp_stats.warm_starts > 0 &&
                  reduction >= min_reduction;

  if (!first_section) std::printf(",\n");
  first_section = false;
  std::printf("  \"%s\": {\n", key);
  std::printf("    \"num_sites\": %d, \"threads\": %d,\n", num_sites,
              threads);
  std::printf("    \"model\": {\"variables\": %d, \"constraints\": %d},\n",
              formulation.model.num_variables(),
              formulation.model.num_constraints());
  std::printf("    \"cold\": {\"status\": \"%s\", \"objective\": %.6f, "
              "\"nodes\": %ld, \"lp_solves\": %ld, \"iterations\": %ld, "
              "\"factorizations\": %ld, \"seconds\": %.3f},\n",
              MipStatusName(cold.status), cold.objective, cold.nodes,
              cold.lp_stats.lp_solves, cold.lp_iterations,
              cold.lp_stats.factorizations, cold.seconds);
  std::printf("    \"warm\": {\"status\": \"%s\", \"objective\": %.6f, "
              "\"nodes\": %ld, \"lp_solves\": %ld, \"iterations\": %ld, "
              "\"warm_starts\": %ld, \"cold_starts\": %ld, "
              "\"warm_start_failures\": %ld, \"dual_iterations\": %ld, "
              "\"primal_iterations\": %ld, \"factorizations\": %ld, "
              "\"ft_updates\": %ld, \"bound_flips\": %ld, "
              "\"se_resets\": %ld, \"refactor_updates\": %ld, "
              "\"refactor_fill\": %ld, \"refactor_stability\": %ld, "
              "\"seconds\": %.3f},\n",
              MipStatusName(warm.status), warm.objective, warm.nodes,
              warm.lp_stats.lp_solves, warm.lp_iterations,
              warm.lp_stats.warm_starts, warm.lp_stats.cold_starts,
              warm.lp_stats.warm_start_failures,
              warm.lp_stats.dual_iterations, warm.lp_stats.primal_iterations,
              warm.lp_stats.factorizations, warm.lp_stats.ft_updates,
              warm.lp_stats.bound_flips, warm.lp_stats.se_resets,
              warm.lp_stats.refactor_updates, warm.lp_stats.refactor_fill,
              warm.lp_stats.refactor_stability, warm.seconds);
  std::printf("    \"iteration_reduction_x\": %.2f,\n", reduction);
  std::printf("    \"speedup_x\": %.2f,\n",
              warm.seconds > 0 ? cold.seconds / warm.seconds : 0.0);
  std::printf("    \"contract_ok\": %s\n", ok ? "true" : "false");
  std::printf("  }");
  if (!ok) {
    std::fprintf(stderr,
                 "mip-core %s: contract violated (status %s/%s, objective "
                 "delta %.2e, warm_starts %ld, reduction %.2fx < %.2fx)\n",
                 key, MipStatusName(cold.status), MipStatusName(warm.status),
                 objective_delta, warm.lp_stats.warm_starts, reduction,
                 min_reduction);
  }
  sections.push_back({key, warm});
  return ok;
}

/// Appends one JSON line of per-run warm aggregates (the telemetry.mip
/// counters per section) to `path` — the persistent trend history behind
/// the one-shot BENCH_mip.json snapshot.
void AppendMipCoreHistory(const char* path, bool quick,
                          const std::vector<MipCoreSection>& sections) {
  JsonValue line = JsonValue::MakeObject();
  line.Set("bench", "mip_core");
  line.Set("quick", quick);
  JsonValue body = JsonValue::MakeObject();
  for (const MipCoreSection& section : sections) {
    const LpSolveStats& stats = section.warm.lp_stats;
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("status", MipStatusName(section.warm.status));
    entry.Set("nodes", section.warm.nodes);
    entry.Set("lp_solves", stats.lp_solves);
    entry.Set("iterations", section.warm.lp_iterations);
    entry.Set("dual_iterations", stats.dual_iterations);
    entry.Set("factorizations", stats.factorizations);
    entry.Set("ft_updates", stats.ft_updates);
    entry.Set("bound_flips", stats.bound_flips);
    entry.Set("se_resets", stats.se_resets);
    entry.Set("refactor_updates", stats.refactor_updates);
    entry.Set("refactor_fill", stats.refactor_fill);
    entry.Set("refactor_stability", stats.refactor_stability);
    entry.Set("lp_seconds", stats.lp_seconds);
    entry.Set("seconds", section.warm.seconds);
    body.Set(section.key, std::move(entry));
  }
  line.Set("sections", std::move(body));
  std::ofstream out(path, std::ios::app);
  if (!out) {
    std::fprintf(stderr, "mip-core: cannot append history to %s\n", path);
    return;
  }
  out << line.Serialize() << "\n";
}

/// Trend gate: compares each section's warm pivot and factorization counts
/// against the checked-in baseline (BENCH_mip.json) and reports a >15%
/// regression as a failure. Sections absent from the baseline (new
/// scenarios) are skipped with a note; a missing/bad baseline file fails
/// loudly rather than silently gating nothing.
bool CheckMipCoreBaseline(const char* path,
                          const std::vector<MipCoreSection>& sections) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "mip-core: cannot read baseline %s\n", path);
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = JsonValue::Parse(buffer.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "mip-core: bad baseline %s: %s\n", path,
                 parsed.status().ToString().c_str());
    return false;
  }
  constexpr double kRegressionFactor = 1.15;  // >15% worse = regression
  constexpr long kAbsoluteSlack = 64;         // ignore noise on tiny counts
  bool ok = true;
  for (const MipCoreSection& section : sections) {
    const JsonValue* base = parsed->Find(section.key);
    const JsonValue* warm = base != nullptr ? base->Find("warm") : nullptr;
    if (warm == nullptr) {
      std::fprintf(stderr,
                   "mip-core: section %s not in baseline %s (new scenario?); "
                   "skipping trend check\n",
                   section.key.c_str(), path);
      continue;
    }
    auto gate = [&](const char* field, long current) {
      const JsonValue* value = warm->Find(field);
      if (value == nullptr || !value->is_number()) return;  // older baseline
      const long baseline = static_cast<long>(value->as_number());
      const long limit = static_cast<long>(baseline * kRegressionFactor) +
                         kAbsoluteSlack;
      if (current > limit) {
        std::fprintf(stderr,
                     "mip-core %s: %s regressed %ld -> %ld (>15%% over the "
                     "checked-in baseline %s)\n",
                     section.key.c_str(), field, baseline, current, path);
        ok = false;
      }
    };
    gate("iterations", section.warm.lp_iterations);
    gate("factorizations", section.warm.lp_stats.factorizations);
  }
  return ok;
}

// --- observability overhead: tracing off vs basic vs full ------------------

/// CPU seconds (user + system) this process has used so far.
double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// One fixed-work TPC-C batch solve at one obs level: every table runs a
/// restart-capped SA under a deadline it never reaches, one table at a
/// time, so off / basic / full do identical solver work.
struct ObsBatchRun {
  double cpu_seconds = 0.0;
  double cost = 0.0;
  long sa_iterations = 0;  // vpart_sa_iterations_total over the batch
  TraceSnapshot trace;     // everything the level recorded (empty at off)
};

ObsBatchRun RunObsBatch(const Instance& instance, ObsLevel level,
                        int restarts) {
  BatchAdviseRequest batch;
  batch.request.solver = kSolverSa;
  batch.request.num_sites = 3;
  batch.request.time_limit_seconds = 1e6;  // never reached
  batch.request.sa.max_restarts = restarts;
  batch.request.seed = 7;
  batch.request.num_threads = 1;
  batch.request.obs = level;
  batch.table_threads = 1;
  // Fresh flight recorder per sample, so the snapshot holds this batch only.
  Tracer::Global().Clear();
  const Counter& sa_iterations = MetricsRegistry::Global().GetCounter(
      "vpart_sa_iterations_total", "SA moves evaluated");
  const long sa_iterations_before = sa_iterations.Value();
  const double start = ProcessCpuSeconds();
  auto advised = AdviseSchema(instance, batch);
  ObsBatchRun run;
  run.cpu_seconds = ProcessCpuSeconds() - start;
  run.sa_iterations = sa_iterations.Value() - sa_iterations_before;
  if (!advised.ok()) {
    std::fprintf(stderr, "obs batch advise failed: %s\n",
                 advised.status().ToString().c_str());
    std::exit(1);
  }
  run.cost = advised->combined.cost;
  run.trace = Tracer::Global().Snapshot();
  return run;
}

/// Process CPU seconds the recorder spends on one batch at a level, from
/// that level's recorded trace: each event goes back through the Tracer in
/// completion order, as a Span records it (two clock reads, the name and
/// args), and each closed "advise" root span is followed by the telemetry
/// snapshot Advise embeds in every response above off. Those are all of
/// the level-dependent paths (Span, Record*, log instants and that
/// snapshot). Best of `repetitions` replays, each into a cleared recorder.
double ReplayRecorderSeconds(const TraceSnapshot& trace, int repetitions) {
  std::vector<const TraceEvent*> order;
  order.reserve(trace.events.size());
  for (const TraceEvent& event : trace.events) order.push_back(&event);
  std::stable_sort(order.begin(), order.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     return a->start_us + a->dur_us < b->start_us + b->dur_us;
                   });
  Tracer& tracer = Tracer::Global();
  MetricsRegistry& metrics = MetricsRegistry::Global();
  std::vector<double> samples;
  for (int rep = 0; rep < repetitions; ++rep) {
    tracer.Clear();
    const double start = ProcessCpuSeconds();
    for (const TraceEvent* event : order) {
      if (event->phase == 'X') {
        const int64_t start_us = tracer.NowMicros();
        tracer.RecordComplete(event->name, event->category, start_us,
                              tracer.NowMicros() - start_us, event->args);
      } else {
        tracer.RecordInstant(event->name, event->category, event->args);
      }
      if (event->name == "advise") {
        JsonValue metrics_json = MetricsToJson(metrics.Snapshot());
        JsonValue summary_json = TraceSummaryToJson(tracer.Summarize());
      }
    }
    samples.push_back(ProcessCpuSeconds() - start);
  }
  tracer.Clear();
  return MinSeconds(samples);
}

/// Workload pin against the checked-in BENCH_obs.json: the batch must
/// answer the same cost bit for bit, record the same basic/full event
/// counts and run the same total SA iterations. All are exact and
/// host-independent, unlike the CPU seconds they replace as a trend gate:
/// the overhead percents are gated unconditionally in ObsMain, and this
/// check only keeps the workload they are measured on from drifting.
bool CheckObsBaseline(const char* path, const ObsBatchRun& off_run,
                      const ObsBatchRun& basic_run,
                      const ObsBatchRun& full_run) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "obs: cannot read baseline %s\n", path);
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = JsonValue::Parse(buffer.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "obs: bad baseline %s: %s\n", path,
                 parsed.status().ToString().c_str());
    return false;
  }
  const JsonValue* section = parsed->Find("obs_overhead_tpcc_batch");
  bool ok = true;
  auto pin = [&](const char* field, double current) {
    const JsonValue* base =
        section != nullptr ? section->Find(field) : nullptr;
    if (base == nullptr || !base->is_number()) {
      std::fprintf(stderr, "obs: baseline %s lacks %s\n", path, field);
      ok = false;
    } else if (base->as_number() != current) {
      std::fprintf(stderr,
                   "obs: workload drifted: %s %.17g -> %.17g (checked-in "
                   "baseline %s)\n",
                   field, base->as_number(), current, path);
      ok = false;
    }
  };
  pin("cost", off_run.cost);
  pin("sa_iterations", static_cast<double>(off_run.sa_iterations));
  pin("basic_events", static_cast<double>(basic_run.trace.events.size()));
  pin("full_events", static_cast<double>(full_run.trace.events.size()));
  return ok;
}

int ObsMain(bool quick, const char* baseline_path) {
  const int repetitions = quick ? 8 : 15;
  const int replays = 30;
  const int restarts = 320;
  Instance tpcc = MakeTpccInstance();

  // One untimed warmup (pool spawn, allocator, frequency), then one run at
  // each recording level for its trace. A level may only add recording:
  // the answer must match off's bit for bit, and the ring must hold every
  // event (a wrapped ring would under-price the replay).
  const ObsBatchRun off_run = RunObsBatch(tpcc, ObsLevel::kOff, restarts);
  const ObsBatchRun basic_run = RunObsBatch(tpcc, ObsLevel::kBasic, restarts);
  const ObsBatchRun full_run = RunObsBatch(tpcc, ObsLevel::kFull, restarts);
  bool ok = true;
  for (const ObsBatchRun* run : {&basic_run, &full_run}) {
    if (run->cost != off_run.cost ||
        run->sa_iterations != off_run.sa_iterations ||
        run->trace.dropped != 0) {
      std::fprintf(stderr,
                   "obs: a recording level changed the solve (cost %.17g vs "
                   "off %.17g, %ld vs %ld SA iterations) or dropped %ld "
                   "events\n",
                   run->cost, off_run.cost, run->sa_iterations,
                   off_run.sa_iterations, run->trace.dropped);
      ok = false;
    }
  }

  std::vector<double> off_s;
  for (int i = 0; i < repetitions; ++i) {
    off_s.push_back(RunObsBatch(tpcc, ObsLevel::kOff, restarts).cpu_seconds);
  }
  const double off = MinSeconds(off_s);
  const double basic_recorder = ReplayRecorderSeconds(basic_run.trace, replays);
  const double full_recorder = ReplayRecorderSeconds(full_run.trace, replays);
  // Both sides are best-of CPU seconds, so a contended host inflates the
  // recorder price and the solve alike and the ratio stays put.
  const double basic_pct = 100.0 * basic_recorder / off;
  const double full_pct = 100.0 * full_recorder / off;
  constexpr double kAbsoluteSlackPct = 2.0;
  const bool basic_ok = basic_pct <= 2.0 + kAbsoluteSlackPct;
  const bool full_ok = full_pct <= 5.0 + kAbsoluteSlackPct;

  std::printf("{\n");
  std::printf("  \"bench\": \"obs\",\n");
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"quick\": %s,\n", quick ? "true" : "false");
  std::printf("  \"obs_overhead_tpcc_batch\": {\n");
  std::printf("    \"workload\": \"TPC-C batch SA, %d restarts/table, "
              "1 table thread, seed 7\",\n", restarts);
  std::printf("    \"clock\": \"process CPU time (getrusage)\",\n");
  std::printf("    \"method\": \"off timed; basic/full priced by replaying "
              "their recorded events and per-request telemetry\",\n");
  std::printf("    \"repetitions\": %d,\n", repetitions);
  std::printf("    \"replays\": %d,\n", replays);
  std::printf("    \"cost\": %.17g,\n", off_run.cost);
  std::printf("    \"sa_iterations\": %ld,\n", off_run.sa_iterations);
  std::printf("    \"off_min_cpu_seconds\": %.6f,\n", off);
  std::printf("    \"basic_events\": %zu,\n", basic_run.trace.events.size());
  std::printf("    \"full_events\": %zu,\n", full_run.trace.events.size());
  std::printf("    \"basic_recorder_cpu_seconds\": %.6f,\n", basic_recorder);
  std::printf("    \"full_recorder_cpu_seconds\": %.6f,\n", full_recorder);
  std::printf("    \"basic_overhead_percent\": %.3f,\n", basic_pct);
  std::printf("    \"full_overhead_percent\": %.3f,\n", full_pct);
  std::printf("    \"basic_gate_2pct_ok\": %s,\n",
              basic_ok ? "true" : "false");
  std::printf("    \"full_gate_5pct_ok\": %s\n", full_ok ? "true" : "false");
  std::printf("  }\n");
  std::printf("}\n");
  if (!basic_ok || !full_ok) {
    std::fprintf(stderr,
                 "obs: overhead gate violated (basic %.3f%% vs <2%%, full "
                 "%.3f%% vs <5%%, off %.3f CPU s)\n",
                 basic_pct, full_pct, off);
    ok = false;
  }
  if (baseline_path != nullptr) {
    ok &= CheckObsBaseline(baseline_path, off_run, basic_run, full_run);
  }
  return ok ? 0 : 1;
}

int MipCoreMain(bool quick, const char* baseline_path,
                const char* history_path, const char* trace_path) {
  // A trace dump is only useful at full level (B&B node and LP solve
  // spans are kFull-gated), and SolveMip runs below the request layer
  // that would otherwise scope the level.
  std::optional<ScopedObsLevel> scoped_obs;
  if (trace_path != nullptr) scoped_obs.emplace(ObsLevel::kFull);
  const double time_limit = quick ? 20.0 : 60.0;
  bool first_section = true;
  bool ok = true;
  std::vector<MipCoreSection> sections;
  std::printf("{\n");
  std::printf("  \"bench\": \"mip_core\",\n");
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"quick\": %s,\n", quick ? "true" : "false");

  Instance tpcc = MakeTpccInstance();
  // The CI gate sits at 1.5x (vs the 2x bench target) so tree-shape
  // variance on a newly degenerate model trips the alarm without flaking.
  ok &= EmitMipCore("tpcc_sites2", tpcc, /*num_sites=*/2, /*threads=*/1,
                    time_limit, /*min_reduction=*/1.5, first_section,
                    sections);
  if (!quick) {
    ok &= EmitMipCore("tpcc_sites3", tpcc, /*num_sites=*/3, /*threads=*/1,
                      time_limit, /*min_reduction=*/1.5, first_section,
                      sections);
    ok &= EmitMipCore("tpcc_sites2_bnb4", tpcc, /*num_sites=*/2,
                      /*threads=*/4, time_limit, /*min_reduction=*/1.0,
                      first_section, sections);
    auto params = ParseNamedInstanceParams("rndAt8x15");
    if (params.ok()) {
      Instance random_instance = MakeRandomInstance(*params);
      ok &= EmitMipCore("rndAt8x15_sites2", random_instance, /*num_sites=*/2,
                        /*threads=*/1, time_limit, /*min_reduction=*/1.5,
                        first_section, sections);
    }
  }
  std::printf("\n}\n");
  if (history_path != nullptr) {
    AppendMipCoreHistory(history_path, quick, sections);
  }
  if (baseline_path != nullptr) {
    ok &= CheckMipCoreBaseline(baseline_path, sections);
  }
  if (trace_path != nullptr) {
    const std::string trace = TraceToChromeJson(Tracer::Global().Snapshot());
    std::ofstream out(trace_path);
    if (!out) {
      std::fprintf(stderr, "mip-core: cannot write trace to %s\n",
                   trace_path);
      ok = false;
    } else {
      out << trace;
    }
  }
  return ok ? 0 : 1;
}

// --- advisor daemon: cache miss vs exact hit vs basis-seeded ---------------

/// Rebuilds the instance with every query frequency scaled by `factor`.
/// The constraint pattern — and hence the canonical shape fingerprint —
/// is unchanged; only objective numerics move, which is exactly the
/// daemon's shape-hit case (cached incumbent + root basis seed a fresh
/// solve).
Instance ScaleFrequencies(const Instance& instance, double factor) {
  InstanceBuilder builder(instance.name() + "-scaled");
  for (const Table& table : instance.schema().tables()) {
    builder.AddTable(table.name);
  }
  for (const Attribute& attribute : instance.schema().attributes()) {
    builder.AddAttribute(attribute.table_id, attribute.name, attribute.width);
  }
  for (const Transaction& txn : instance.workload().transactions()) {
    builder.AddTransaction(txn.name);
  }
  for (const Query& query : instance.workload().queries()) {
    builder.AddQuery(query.transaction_id, query.name, query.kind,
                     query.frequency * factor, query.attributes,
                     query.table_rows);
  }
  auto built = builder.Build();
  if (!built.ok()) {
    std::fprintf(stderr, "serve: scaled rebuild failed: %s\n",
                 built.status().ToString().c_str());
    std::exit(1);
  }
  return *std::move(built);
}

struct ServeSample {
  double seconds = 0.0;
  double iterations = 0.0;  // telemetry.mip.total_iterations
};

std::string ServeRequestJson(const std::string& instance_text,
                             double time_limit, const std::string& id) {
  JsonValue instance = JsonValue::MakeObject();
  instance.Set("text", instance_text);
  JsonValue serve = JsonValue::MakeObject();
  serve.Set("id", id);
  JsonValue request = JsonValue::MakeObject();
  request.Set("instance", std::move(instance));
  request.Set("solver", "ilp");
  request.Set("num_sites", 2);
  request.Set("time_limit_seconds", time_limit);
  request.Set("emit_partitioning", false);
  request.Set("serve", std::move(serve));
  return request.Serialize();
}

/// One timed round trip that must land on the given cache outcome; any
/// error envelope or outcome mismatch aborts the bench (the serve_test
/// suite owns behavioural coverage — here a mismatch means the numbers
/// would not measure what the section claims).
ServeSample ServeRoundtrip(ServeClient& client, const std::string& request,
                           const char* expect_cache) {
  Stopwatch watch;
  StatusOr<std::string> reply = client.Roundtrip(request);
  const double seconds = watch.ElapsedSeconds();
  if (!reply.ok()) {
    std::fprintf(stderr, "serve: roundtrip failed: %s\n",
                 reply.status().ToString().c_str());
    std::exit(1);
  }
  StatusOr<JsonValue> doc = JsonValue::Parse(*reply);
  if (!doc.ok() || doc->Find("error") != nullptr) {
    std::fprintf(stderr, "serve: error response: %s\n", reply->c_str());
    std::exit(1);
  }
  const JsonValue* serve = doc->Find("serve");
  const JsonValue* cache = serve != nullptr ? serve->Find("cache") : nullptr;
  const std::string got = cache != nullptr ? cache->as_string() : "";
  if (got != expect_cache) {
    std::fprintf(stderr, "serve: expected cache outcome \"%s\", got \"%s\"\n",
                 expect_cache, got.c_str());
    std::exit(1);
  }
  ServeSample sample;
  sample.seconds = seconds;
  const JsonValue* telemetry = doc->Find("telemetry");
  const JsonValue* mip =
      telemetry != nullptr ? telemetry->Find("mip") : nullptr;
  const JsonValue* iterations =
      mip != nullptr ? mip->Find("total_iterations") : nullptr;
  if (iterations != nullptr && iterations->is_number()) {
    sample.iterations = iterations->as_number();
  }
  return sample;
}

/// Trend gate against the checked-in BENCH_serve.json: the absolute cold
/// and exact-hit seconds must not regress >15% (+slack), and the seeded
/// simplex-iteration reduction must not collapse to less than half the
/// recorded one. The 10x-speedup and seeded<cold gates are checked
/// unconditionally in ServeMain; the baseline pins the daemon's
/// end-to-end paths from drifting run over run.
bool CheckServeBaseline(const char* path, double cold_seconds,
                        double exact_seconds, double reduction_percent) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "serve: cannot read baseline %s\n", path);
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = JsonValue::Parse(buffer.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "serve: bad baseline %s: %s\n", path,
                 parsed.status().ToString().c_str());
    return false;
  }
  const JsonValue* section = parsed->Find("serve_cache_tpcc");
  const JsonValue* base = section != nullptr
                              ? section->Find("cold_min_seconds")
                              : nullptr;
  if (base == nullptr || !base->is_number()) {
    std::fprintf(stderr, "serve: baseline %s lacks cold_min_seconds\n", path);
    return false;
  }
  constexpr double kRegressionFactor = 1.15;  // >15% worse = regression
  constexpr double kAbsoluteSlack = 0.05;     // sub-second runs are noisy
  bool ok = true;
  const double limit = base->as_number() * kRegressionFactor + kAbsoluteSlack;
  if (cold_seconds > limit) {
    std::fprintf(stderr,
                 "serve: cold seconds regressed %.3f -> %.3f (>15%% over "
                 "the checked-in baseline %s)\n",
                 base->as_number(), cold_seconds, path);
    ok = false;
  }
  // Exact hits are cache lookups (sub-millisecond); the trend factor alone
  // would gate on noise, so a smaller absolute slack carries the check.
  const JsonValue* exact_base = section->Find("exact_hit_min_seconds");
  if (exact_base != nullptr && exact_base->is_number()) {
    const double exact_limit =
        exact_base->as_number() * kRegressionFactor + 0.02;
    if (exact_seconds > exact_limit) {
      std::fprintf(stderr,
                   "serve: exact-hit seconds regressed %.4f -> %.4f (>15%% "
                   "over the checked-in baseline %s)\n",
                   exact_base->as_number(), exact_seconds, path);
      ok = false;
    }
  }
  // Iteration reduction is machine-independent (same simplex, same
  // instances), so a collapse below half the recorded reduction means the
  // seeding itself degraded, not the hardware.
  const JsonValue* reduction_base =
      section->Find("iteration_reduction_percent");
  if (reduction_base != nullptr && reduction_base->is_number()) {
    const double floor = reduction_base->as_number() * 0.5;
    if (reduction_percent < floor) {
      std::fprintf(stderr,
                   "serve: seeded iteration reduction collapsed %.1f%% -> "
                   "%.1f%% (under half the checked-in baseline %s)\n",
                   reduction_base->as_number(), reduction_percent, path);
      ok = false;
    }
  }
  return ok;
}

int ServeMain(bool quick, const char* baseline_path) {
  const int repetitions = quick ? 3 : 5;
  const double time_limit = quick ? 20.0 : 60.0;
  Instance tpcc = MakeTpccInstance();
  const std::string base_text = WriteInstanceText(tpcc);
  const std::string shifted_text =
      WriteInstanceText(ScaleFrequencies(tpcc, 1.05));

  std::vector<double> cold_s, exact_s, seeded_s;
  std::vector<double> seeded_iters, cold_shift_iters;
  for (int rep = 0; rep < repetitions; ++rep) {
    const std::string socket_base = "/tmp/vpart_bench_serve_" +
                                    std::to_string(::getpid()) + "_" +
                                    std::to_string(rep);
    AdviseServerOptions options;
    options.num_workers = 1;
    {
      // Daemon A: cold solve (miss), byte-identical repeat (exact
      // canonical-fingerprint hit, re-certified from cache), then the
      // frequency-shifted request (shape hit seeding the warm-start
      // ladder with the cached incumbent and root basis).
      options.socket_path = socket_base + "a.sock";
      AdviseServer server(options);
      const Status started = server.Start();
      if (!started.ok()) {
        std::fprintf(stderr, "serve: start failed: %s\n",
                     started.ToString().c_str());
        return 1;
      }
      auto client = ServeClient::Connect(options.socket_path);
      if (!client.ok()) {
        std::fprintf(stderr, "serve: connect failed: %s\n",
                     client.status().ToString().c_str());
        return 1;
      }
      const std::string base_request =
          ServeRequestJson(base_text, time_limit, "cold");
      cold_s.push_back(ServeRoundtrip(*client, base_request, "miss").seconds);
      exact_s.push_back(
          ServeRoundtrip(*client, base_request, "exact").seconds);
      const ServeSample seeded = ServeRoundtrip(
          *client, ServeRequestJson(shifted_text, time_limit, "seeded"),
          "shape");
      seeded_s.push_back(seeded.seconds);
      seeded_iters.push_back(seeded.iterations);
      server.Shutdown();
    }
    {
      // Daemon B: fresh cache, so the shifted problem solves cold — the
      // simplex-iteration baseline the seeded solve must beat.
      options.socket_path = socket_base + "b.sock";
      AdviseServer server(options);
      const Status started = server.Start();
      if (!started.ok()) {
        std::fprintf(stderr, "serve: start failed: %s\n",
                     started.ToString().c_str());
        return 1;
      }
      auto client = ServeClient::Connect(options.socket_path);
      if (!client.ok()) {
        std::fprintf(stderr, "serve: connect failed: %s\n",
                     client.status().ToString().c_str());
        return 1;
      }
      cold_shift_iters.push_back(
          ServeRoundtrip(
              *client,
              ServeRequestJson(shifted_text, time_limit, "cold-shift"),
              "miss")
              .iterations);
      server.Shutdown();
    }
  }

  const double cold = MinSeconds(cold_s);
  const double exact = MinSeconds(exact_s);
  const double seeded = MinSeconds(seeded_s);
  const double speedup = exact > 0.0 ? cold / exact : 0.0;
  const double cold_iter = MedianSeconds(cold_shift_iters);
  const double seeded_iter = MedianSeconds(seeded_iters);
  const bool speedup_ok = speedup >= 10.0;
  const bool iter_ok = seeded_iter < cold_iter;
  bool ok = speedup_ok && iter_ok;

  std::printf("{\n");
  std::printf("  \"bench\": \"serve\",\n");
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"quick\": %s,\n", quick ? "true" : "false");
  std::printf("  \"serve_cache_tpcc\": {\n");
  std::printf("    \"workload\": \"TPC-C ILP sites=2 over a Unix socket; "
              "shifted = query frequencies x1.05\",\n");
  std::printf("    \"repetitions\": %d,\n", repetitions);
  std::printf("    \"cold_min_seconds\": %.6f,\n", cold);
  std::printf("    \"exact_hit_min_seconds\": %.6f,\n", exact);
  std::printf("    \"seeded_min_seconds\": %.6f,\n", seeded);
  std::printf("    \"exact_speedup\": %.1f,\n", speedup);
  std::printf("    \"exact_speedup_gate_10x_ok\": %s,\n",
              speedup_ok ? "true" : "false");
  std::printf("    \"cold_median_iterations\": %.0f,\n", cold_iter);
  std::printf("    \"seeded_median_iterations\": %.0f,\n", seeded_iter);
  std::printf("    \"iteration_reduction_percent\": %.1f,\n",
              cold_iter > 0.0
                  ? 100.0 * (cold_iter - seeded_iter) / cold_iter
                  : 0.0);
  std::printf("    \"seeded_iterations_gate_ok\": %s\n",
              iter_ok ? "true" : "false");
  std::printf("  }\n");
  std::printf("}\n");
  if (!ok) {
    std::fprintf(stderr,
                 "serve: cache gate violated (exact speedup %.1fx vs >=10x, "
                 "seeded iterations %.0f vs cold %.0f)\n",
                 speedup, seeded_iter, cold_iter);
  }
  if (baseline_path != nullptr) {
    const double reduction =
        cold_iter > 0.0 ? 100.0 * (cold_iter - seeded_iter) / cold_iter
                        : 0.0;
    ok &= CheckServeBaseline(baseline_path, cold, exact, reduction);
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace vpart::bench

int main(int argc, char** argv) {
  const char* mode = argc > 1 ? argv[1] : "";
  const bool mip_core = std::strcmp(mode, "--mip-core") == 0;
  const bool serve = std::strcmp(mode, "--serve") == 0;
  bool args_ok = mip_core || serve || std::strcmp(mode, "--obs") == 0;
  bool quick = false;
  const char* baseline = nullptr;
  const char* history = nullptr;
  const char* trace = nullptr;
  for (int arg = 2; args_ok && arg < argc; ++arg) {
    const bool has_value = arg + 1 < argc;
    if (std::strcmp(argv[arg], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[arg], "--baseline") == 0 && has_value) {
      baseline = argv[++arg];
    } else if (mip_core && std::strcmp(argv[arg], "--history") == 0 &&
               has_value) {
      history = argv[++arg];
    } else if (mip_core && std::strcmp(argv[arg], "--trace") == 0 &&
               has_value) {
      trace = argv[++arg];
    } else {
      args_ok = false;
    }
  }
  if (!args_ok) {
    std::fprintf(stderr,
                 "usage: bench_parallel --mip-core | --serve | --obs "
                 "[--quick] [--baseline FILE] (--mip-core also takes "
                 "[--history FILE] [--trace FILE])\n");
    return 2;
  }
  if (mip_core) {
    return vpart::bench::MipCoreMain(quick, baseline, history, trace);
  }
  if (serve) return vpart::bench::ServeMain(quick, baseline);
  return vpart::bench::ObsMain(quick, baseline);
}
