// Wall-clock perf harness for the simulation kernel (BENCH_kernel.json).
//
// Runs the headline_summary scenario set (the paper's six kernels on the
// BASE / PACK / IDEAL 256-bit SoCs) through three kernel configurations:
//
//   naive serial    — gating disabled: every component ticks every cycle,
//                     the pre-PR kernel's execution model (baseline);
//   gated serial    — the activity-gated kernel, one thread;
//   gated parallel  — the same set fanned out over SweepRunner.
//
// All three produce identical per-run cycle counts (verified here), so the
// wall-clock ratios isolate the engine, not the model. Results, including
// simulated-cycles/second per scenario, are written as JSON for the CI
// artifact and the perf trajectory. All workload RNG is seeded from the
// fixed constant below (recorded in the JSON) so runs are reproducible.
//
// Usage: perf_kernel [--out=PATH] [--repeats=N]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "systems/runner.hpp"
#include "systems/scenario.hpp"
#include "systems/sensitivity.hpp"
#include "systems/sweep.hpp"
#include "systems/system.hpp"
#include "util/json.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace axipack;
using Clock = std::chrono::steady_clock;

/// All workload RNG derives from this constant (satellite: deterministic
/// perf harness). It is also recorded in the JSON output.
constexpr std::uint64_t kPerfSeed = 42;

// Development-time reference: the actual pre-PR engine (commit 14bc904,
// deque channels, commit-every-fifo, tick-every-component, eagerly zeroed
// stores) running this exact scenario set on the PR development machine,
// interleaved with the new kernel for fairness. The runtime "naive" mode
// below only isolates the gating delta — the ring-buffer / commit-free /
// lazy-allocation rewrite benefits both modes — so the cross-commit
// reference is what "vs the pre-PR kernel" means. Reproduce with the
// command in README ("Kernel performance").
constexpr const char* kPrePrCommit = "14bc904";
constexpr double kPrePrWallMsReference = 3650.0;
constexpr double kNewWallMsAtReference = 1280.0;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct SetResult {
  double wall_ms = 0.0;
  std::uint64_t cycles = 0;
  bool correct = true;
  std::vector<sys::RunResult> runs;
};

/// The six paper kernels, in job order — kernel_jobs and the JSON emitters
/// all index into this one list so the labels cannot drift.
constexpr wl::KernelKind kKernels[] = {wl::KernelKind::ismt,
                                       wl::KernelKind::gemv,
                                       wl::KernelKind::trmv,
                                       wl::KernelKind::spmv,
                                       wl::KernelKind::prank,
                                       wl::KernelKind::sssp};

using ScenarioList = std::vector<std::string>;

/// The headline_summary set: the BASE / PACK / IDEAL 256-bit SoCs.
const ScenarioList kHeadlineScenarios = {
    sys::scenario_name(sys::SystemKind::base),
    sys::scenario_name(sys::SystemKind::pack),
    sys::scenario_name(sys::SystemKind::ideal)};

/// The same SoCs over the cycle-level DRAM backend: a deeper-pipeline,
/// refresh-bearing scenario set that stresses the kernel's wake scheduling
/// differently than the SRAM SoCs. plan_workload sees the "dram" backend
/// here, so PACK gemv/trmv run row-wise (the backend-aware methodology
/// choice).
const ScenarioList kDramScenarios = {"base-dram", "pack-dram"};

/// Four interleaved DRAM channels: the per-master ChannelRouter,
/// per-channel adapters/backends and B-merge all sit on the hot path, so
/// this set is both a wall-clock datapoint and a naive-vs-gated
/// cycle-identity check for the multi-channel fabric.
const ScenarioList kDramMcScenarios = {"base-256-dram-ch4",
                                       "pack-256-dram-ch4"};

/// Every kernel on every scenario, kernel-major: job k * S + s runs
/// kKernels[k] on scenarios[s].
std::vector<sys::WorkloadJob> kernel_jobs(const ScenarioList& scenarios,
                                          bool naive) {
  std::vector<sys::WorkloadJob> jobs;
  for (const auto kernel : kKernels) {
    for (const std::string& scenario : scenarios) {
      sys::WorkloadJob job;
      job.scenario = scenario;
      job.cfg = sys::plan_workload(kernel, job.scenario);
      job.cfg.seed = kPerfSeed;
      job.naive_kernel = naive;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

/// The strided kernels on the row-batching pack-dram scheduler (the
/// default). Their row-hit ratios are the regression canary for the
/// batching scheduler: the column-wise dataflow is pinned (as in fig7),
/// because the backend-aware planner would otherwise pick row-wise
/// gemv/trmv whose free open-row hits mask a broken scheduler.
constexpr wl::KernelKind kStridedKernels[] = {wl::KernelKind::ismt,
                                              wl::KernelKind::gemv,
                                              wl::KernelKind::trmv};
/// Recorded floor for the pack-dram strided row-hit ratio at seed 42 with
/// the column-wise pin: ismt 0.71, gemv 0.50, trmv 0.66 (head-only
/// scheduling bottomed out at 0.29 on trmv); the floor sits under the
/// weakest point with a margin for workload-generator drift.
constexpr double kPackDramStridedHitFloor = 0.45;
/// Recorded floors for the *planned* (backend-aware, row-wise) pack-dram
/// gemv/trmv at seed 42 — the PR-5 residual fix. The PR-4 residual ran
/// them at 0.27x/0.61x vs base-dram with ~51%/66% hits; the row-wise plan
/// restores BASE parity (measured 1.00x at 99.7%/99.4% open-row hits).
constexpr double kPackDramGemvTrmvSpeedupFloor = 0.95;
constexpr double kPackDramPlannedHitFloor = 0.95;

/// The indirect kernels on the coalesced pack-dram path ("pack-dram-coalesce":
/// row-aware batching plus the index coalescing unit at default entries /
/// window). Their row-hit ratio is the regression canary for the coalescer:
/// with the element stream folded into the pending table, the DRAM scheduler
/// mostly sees the sequential index stream, and the open-row hit rate must
/// sit at or above the base-dram level (~0.95 at seed 42). The floor leaves
/// margin for workload-generator drift.
constexpr wl::KernelKind kIndirectKernels[] = {wl::KernelKind::spmv,
                                               wl::KernelKind::prank,
                                               wl::KernelKind::sssp};
constexpr double kCoalescedHitFloor = 0.90;

/// Serial-DRAM throughput floor (simulated cycles per wall-clock second,
/// dram set, gated serial). The event-driven scheduler measures
/// ~0.9–1.1M cycles/s on the 1-core dev box (the pre-rewrite full-rescan
/// scheduler sat at ~0.58M); the floor sits below the noise band of the
/// measured post-rewrite value but above the old scheduler, so a
/// regression to per-cycle rescanning fails CI while box-speed jitter
/// does not.
constexpr double kDramCyclesPerSecFloor = 700'000.0;

/// Aggregate R-util gain floor at 2 channels vs 1 for the stream-master
/// recipe (8 masters, permuted mapping). Ideal doubling is 2.0x; the
/// floor leaves headroom for arbitration and DRAM effects while failing
/// any regression that re-serializes the channels.
constexpr double kTwoChannelGainFloor = 1.7;

std::vector<sys::WorkloadJob> dram_coalesced_jobs() {
  std::vector<sys::WorkloadJob> jobs;
  for (const auto kernel : kIndirectKernels) {
    sys::WorkloadJob job;
    job.scenario = "pack-dram-coalesce";
    job.cfg = sys::plan_workload(kernel, job.scenario);
    job.cfg.seed = kPerfSeed;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<sys::WorkloadJob> dram_batched_jobs() {
  std::vector<sys::WorkloadJob> jobs;
  for (const auto kernel : kStridedKernels) {
    sys::WorkloadJob job;
    job.scenario = "pack-dram";
    job.cfg = sys::plan_workload(kernel, job.scenario);
    // Pin the column walk the scheduler has to absorb (gemv/trmv; ismt
    // ignores the dataflow field).
    job.cfg.dataflow = wl::Dataflow::colwise;
    job.cfg.seed = kPerfSeed;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// Open-loop latency-under-load gate (the PR-10 subsystem): a geometric
/// rate sweep of the three open-loop systems, each point a 120k-cycle
/// measured window of Poisson-arriving indirect gathers through the
/// scatter-gather ring DMA. A curve's knee is the highest swept rate whose
/// p99 sojourn latency met the SLO; the coalesced PACK system must sustain
/// >= 1.5x the narrow baseline's knee (measured at seed 42: base 80,
/// pack 160, coalesce 160 req/100k cycles -> 2.0x).
constexpr unsigned kOpenLoopRates[] = {10, 20, 40, 80, 160, 320, 640};
constexpr double kOpenLoopSloP99 = 5000.0;
constexpr double kOpenLoopKneeFloor = 1.5;
constexpr unsigned kOpenLoopRefRate = 80;  ///< reference-rate p99 datapoint

struct OpenLoopCurve {
  std::vector<double> p99;       // per swept rate
  std::vector<double> achieved;  // per swept rate
  double knee = 0.0;             // highest rate with p99 <= SLO
  double p99_at_ref = 0.0;
  bool correct = true;
};

OpenLoopCurve run_open_loop_curve(const std::string& stem) {
  OpenLoopCurve curve;
  for (const unsigned rate : kOpenLoopRates) {
    auto system = sys::ScenarioRegistry::instance()
                      .builder(stem + "-p" + std::to_string(rate))
                      .build();
    const sys::RunResult r = system->run_open_loop(120'000, 20'000'000);
    curve.correct = curve.correct && r.correct;
    const double p99 = r.latency.percentile(99);
    curve.p99.push_back(p99);
    curve.achieved.push_back(r.achieved_rate);
    if (p99 <= kOpenLoopSloP99 && rate > curve.knee) curve.knee = rate;
    if (rate == kOpenLoopRefRate) curve.p99_at_ref = p99;
  }
  return curve;
}

/// Runs a job set `repeats` times and keeps the fastest wall-clock pass.
SetResult run_jobs(const ScenarioList& scenarios, bool naive,
                   unsigned threads, unsigned repeats) {
  SetResult best;
  for (unsigned rep = 0; rep < repeats; ++rep) {
    const auto jobs = kernel_jobs(scenarios, naive);
    const auto t0 = Clock::now();
    auto results = sys::run_workloads(jobs, threads);
    const double wall = ms_since(t0);
    std::uint64_t cycles = 0;
    bool correct = true;
    for (const auto& r : results) {
      cycles += r.cycles;
      correct = correct && r.correct;
    }
    if (rep == 0 || wall < best.wall_ms) {
      best.wall_ms = wall;
      best.cycles = cycles;
      best.correct = correct;
      best.runs = std::move(results);
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_kernel.json";
  unsigned repeats = 2;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--repeats=", 10) == 0) {
      repeats = static_cast<unsigned>(
          std::max(1l, std::strtol(argv[i] + 10, nullptr, 10)));
    } else {
      std::fprintf(stderr, "usage: %s [--out=PATH] [--repeats=N]\n", argv[0]);
      return 2;
    }
  }

  const unsigned hw = sys::SweepRunner::default_threads();
  std::printf("perf_kernel: headline scenario set, seed=%llu, repeats=%u, "
              "%u worker thread(s) available\n",
              static_cast<unsigned long long>(kPerfSeed), repeats, hw);

  // 1) Baseline: pre-PR kernel semantics (no gating), serial.
  const SetResult naive =
      run_jobs(kHeadlineScenarios, /*naive=*/true, /*threads=*/1, repeats);
  std::printf("  naive serial   : %8.1f ms  (%llu sim cycles)\n",
              naive.wall_ms, static_cast<unsigned long long>(naive.cycles));

  // 2) Gated kernel, serial.
  const SetResult gated =
      run_jobs(kHeadlineScenarios, /*naive=*/false, /*threads=*/1, repeats);
  std::printf("  gated serial   : %8.1f ms\n", gated.wall_ms);

  // 3) The DRAM-endpoint set (base-dram / pack-dram), naive vs gated.
  const SetResult dram_naive =
      run_jobs(kDramScenarios, /*naive=*/true, /*threads=*/1, repeats);
  const SetResult dram_gated =
      run_jobs(kDramScenarios, /*naive=*/false, /*threads=*/1, repeats);
  std::printf("  dram naive     : %8.1f ms  (%llu sim cycles)\n",
              dram_naive.wall_ms,
              static_cast<unsigned long long>(dram_naive.cycles));
  std::printf("  dram gated     : %8.1f ms\n", dram_gated.wall_ms);

  // 4) Thread scaling at fixed 2/4/8 threads for BOTH scenario sets, so
  // the recorded series is comparable across machines. SweepRunner simply
  // oversubscribes when the host has fewer cores; those points are still
  // recorded (the flattening is a datapoint) but flagged
  // `oversubscribed` and excluded from gated_parallel_ms and every CI
  // floor — an oversubscribed wall-clock measures the host, not the
  // engine. The host width is run too when it extends the series.
  struct ScalePoint {
    unsigned requested;    // worker threads asked of SweepRunner
    unsigned effective;    // min(requested, hardware) — real parallelism
    bool oversubscribed;   // requested > hardware: timing not meaningful
    double wall_ms;
    double dram_wall_ms;
  };
  const auto scale_point = [hw](unsigned t, double wall, double dram_wall) {
    return ScalePoint{t, t < hw ? t : hw, t > hw, wall, dram_wall};
  };
  std::vector<ScalePoint> scaling;
  scaling.push_back(scale_point(1, gated.wall_ms, dram_gated.wall_ms));
  double parallel_ms = gated.wall_ms;
  std::vector<unsigned> widths = {2, 4, 8};
  if (hw > 8) widths.push_back(hw);
  for (const unsigned t : widths) {
    const SetResult r = run_jobs(kHeadlineScenarios, /*naive=*/false, t,
                                 repeats);
    const SetResult rd = run_jobs(kDramScenarios, /*naive=*/false, t, repeats);
    const ScalePoint point = scale_point(t, r.wall_ms, rd.wall_ms);
    scaling.push_back(point);
    if (!point.oversubscribed) parallel_ms = std::min(parallel_ms, r.wall_ms);
    std::printf("  gated %2u threads: %8.1f ms  (dram %8.1f ms)%s\n", t,
                r.wall_ms, rd.wall_ms,
                point.oversubscribed ? "  [oversubscribed]" : "");
  }

  // 4b) The multi-channel DRAM set (4 interleaved channels), naive vs
  // gated: wall-clock datapoint plus cycle-identity through the channel
  // routers, per-channel adapters and the B-merge.
  const SetResult mc_naive =
      run_jobs(kDramMcScenarios, /*naive=*/true, /*threads=*/1, repeats);
  const SetResult mc_gated =
      run_jobs(kDramMcScenarios, /*naive=*/false, /*threads=*/1, repeats);
  std::printf("  dram-ch4 naive : %8.1f ms  (%llu sim cycles)\n",
              mc_naive.wall_ms,
              static_cast<unsigned long long>(mc_naive.cycles));
  std::printf("  dram-ch4 gated : %8.1f ms\n", mc_gated.wall_ms);
  bool mc_identical = mc_naive.cycles == mc_gated.cycles;
  for (std::size_t i = 0; mc_identical && i < mc_naive.runs.size(); ++i) {
    mc_identical = mc_naive.runs[i].cycles == mc_gated.runs[i].cycles;
  }
  const bool mc_correct = mc_naive.correct && mc_gated.correct;
  std::printf("  dram-ch4 cycle-identical: %s, verified: %s\n",
              mc_identical ? "yes" : "NO", mc_correct ? "yes" : "NO");

  // 4c) Channel-scaling gate: 8 stream masters must show >= 1.7x
  // aggregate R utilization at 2 channels vs 1; 4- and 8-channel points
  // are recorded for the scaling trajectory.
  std::vector<double> ch_utils;
  for (const unsigned c : {1u, 2u, 4u, 8u}) {
    const sys::RunResult r = sys::measure_channel_streams(
        c, /*masters=*/8, mem::DramMapping::permuted, 128 * 1024);
    double agg = 0.0;
    for (const sys::ChannelRunStats& cs : r.per_channel) agg += cs.r_util;
    ch_utils.push_back(agg);
  }
  const double ch2_scaling = ch_utils[0] > 0 ? ch_utils[1] / ch_utils[0] : 0;
  const bool ch_scaling_ok = ch2_scaling >= kTwoChannelGainFloor;
  std::printf("  channel scaling (8 streams): agg R-util %.3f / %.3f / "
              "%.3f / %.3f at 1/2/4/8 ch; 2-ch scaling %.2fx (floor "
              "%.2fx) — %s\n",
              ch_utils[0], ch_utils[1], ch_utils[2], ch_utils[3],
              ch2_scaling, kTwoChannelGainFloor,
              ch_scaling_ok ? "ok" : "REGRESSION");

  // 5) The dram_batched strided sweep: row-hit-ratio floor check.
  const auto batched_results = sys::run_workloads(dram_batched_jobs(), 1);
  double min_hit = 1.0;
  bool batched_correct = true;
  for (const auto& r : batched_results) {
    min_hit = std::min(min_hit, r.row_hit_ratio());
    batched_correct = batched_correct && r.correct;
  }
  const bool hit_floor_ok = batched_correct &&
                            min_hit >= kPackDramStridedHitFloor;
  std::printf("  dram batched strided row-hit ratio: min %.3f "
              "(floor %.2f) — %s\n",
              min_hit, kPackDramStridedHitFloor,
              hit_floor_ok ? "ok" : "REGRESSION");

  // 6) Backend-aware-plan floors: planned (row-wise) pack-dram gemv/trmv
  // must stay at BASE parity and open-row hit rates (the PR-4 residual
  // ran them at 0.27x/0.61x with ~51%/66% hits).
  double min_dram_speedup = 1e9;
  double min_planned_hit = 1.0;
  for (std::size_t k = 0; k < std::size(kKernels); ++k) {
    if (kKernels[k] != wl::KernelKind::gemv &&
        kKernels[k] != wl::KernelKind::trmv) {
      continue;
    }
    const auto& base = dram_gated.runs[k * 2];
    const auto& pack = dram_gated.runs[k * 2 + 1];
    if (pack.cycles == 0) continue;
    min_dram_speedup =
        std::min(min_dram_speedup,
                 static_cast<double>(base.cycles) / pack.cycles);
    min_planned_hit = std::min(min_planned_hit, pack.row_hit_ratio());
  }
  const bool dram_speedup_ok =
      min_dram_speedup >= kPackDramGemvTrmvSpeedupFloor &&
      min_planned_hit >= kPackDramPlannedHitFloor;
  std::printf("  pack-dram gemv/trmv (planned row-wise): min speedup "
              "%.3fx (floor %.2fx), min hit %.3f (floor %.2f) — %s\n",
              min_dram_speedup, kPackDramGemvTrmvSpeedupFloor,
              min_planned_hit, kPackDramPlannedHitFloor,
              dram_speedup_ok ? "ok" : "REGRESSION");

  // 7) The coalesced indirect set: spmv/prank/sssp on pack-dram-coalesce.
  // The index coalescing unit must keep the open-row hit rate at or above
  // the floor; the speedups vs base-dram are recorded alongside.
  const auto coalesced_results = sys::run_workloads(dram_coalesced_jobs(), 1);
  double min_coalesced_hit = 1.0;
  bool coalesced_correct = true;
  std::vector<double> coalesced_speedups;
  for (std::size_t i = 0; i < coalesced_results.size(); ++i) {
    const auto& r = coalesced_results[i];
    min_coalesced_hit = std::min(min_coalesced_hit, r.row_hit_ratio());
    coalesced_correct = coalesced_correct && r.correct && r.coalesce_unique > 0;
    // base-dram runs sit at even offsets of the dram set, in kKernels
    // order; the indirect kernels are its last three entries.
    const auto& base = dram_gated.runs[(3 + i) * 2];
    coalesced_speedups.push_back(
        r.cycles ? static_cast<double>(base.cycles) / r.cycles : 0.0);
  }
  const bool coalesced_ok =
      coalesced_correct && min_coalesced_hit >= kCoalescedHitFloor;
  std::printf("  pack-dram-coalesce indirect: min row-hit %.3f (floor "
              "%.2f), speedups vs base-dram %.2fx/%.2fx/%.2fx — %s\n",
              min_coalesced_hit, kCoalescedHitFloor, coalesced_speedups[0],
              coalesced_speedups[1], coalesced_speedups[2],
              coalesced_ok ? "ok" : "REGRESSION");

  // 8) Open-loop latency under load: SLO-knee sweep of the three open-loop
  // systems plus a gated-vs-naive identity check on an open-loop run (the
  // driver sleeps between arrivals, so it exercises the wake scheduler in
  // a way no closed-loop set does).
  const OpenLoopCurve ol_base = run_open_loop_curve("base-256-dram");
  const OpenLoopCurve ol_pack = run_open_loop_curve("pack-256-dram");
  const OpenLoopCurve ol_coalesce =
      run_open_loop_curve("pack-256-dram-x512-g16");
  const double ol_knee_ratio =
      ol_base.knee > 0 ? ol_coalesce.knee / ol_base.knee : 0.0;
  const bool ol_correct =
      ol_base.correct && ol_pack.correct && ol_coalesce.correct;
  const bool ol_ok = ol_correct && ol_knee_ratio >= kOpenLoopKneeFloor;
  std::printf("  open-loop knees (p99 <= %.0f cyc): base %.0f, pack %.0f, "
              "coalesce %.0f req/100k; coalesce/base %.2fx (floor %.2fx) "
              "— %s\n",
              kOpenLoopSloP99, ol_base.knee, ol_pack.knee, ol_coalesce.knee,
              ol_knee_ratio, kOpenLoopKneeFloor,
              ol_ok ? "ok" : "REGRESSION");
  sys::RunResult ol_ident[2];
  for (const bool nv : {false, true}) {
    auto b = sys::ScenarioRegistry::instance().builder(
        "pack-256-dram-p" + std::to_string(kOpenLoopRefRate * 2));
    b.naive_kernel(nv);
    ol_ident[nv] = b.build()->run_open_loop(120'000, 20'000'000);
  }
  const bool ol_identical =
      ol_ident[0].cycles == ol_ident[1].cycles &&
      ol_ident[0].latency.count() == ol_ident[1].latency.count() &&
      ol_ident[0].latency.percentile(99) ==
          ol_ident[1].latency.percentile(99) &&
      ol_ident[0].queue_peak == ol_ident[1].queue_peak &&
      ol_ident[0].correct && ol_ident[1].correct;
  std::printf("  open-loop cycle-identical (gated vs naive): %s\n",
              ol_identical ? "yes" : "NO");

  // Cycle-identity across configurations is the hard constraint.
  bool identical = naive.cycles == gated.cycles;
  for (std::size_t i = 0; identical && i < naive.runs.size(); ++i) {
    identical = naive.runs[i].cycles == gated.runs[i].cycles;
  }
  bool dram_identical = dram_naive.cycles == dram_gated.cycles;
  for (std::size_t i = 0; dram_identical && i < dram_naive.runs.size(); ++i) {
    dram_identical = dram_naive.runs[i].cycles == dram_gated.runs[i].cycles;
  }
  identical = identical && dram_identical;
  const bool all_correct = naive.correct && gated.correct &&
                           dram_naive.correct && dram_gated.correct;

  const double speedup_gated = naive.wall_ms / gated.wall_ms;
  const double speedup_total = naive.wall_ms / parallel_ms;
  std::printf("  speedup gated/naive : %.2fx (serial), %.2fx (parallel)\n",
              speedup_gated, speedup_total);
  std::printf("  cycle-identical: %s, all workloads verified: %s\n",
              identical ? "yes" : "NO", all_correct ? "yes" : "NO");

  // Serial-DRAM throughput: the tracked metric of the event-driven
  // scheduler rewrite, with a floor gating CI against a regression to
  // per-cycle rescanning.
  const double dram_cycles_per_sec =
      static_cast<double>(dram_gated.cycles) / (dram_gated.wall_ms / 1000.0);
  const bool dram_throughput_ok = dram_cycles_per_sec >= kDramCyclesPerSecFloor;
  std::printf("  dram serial throughput: %.0f sim cycles/s "
              "(floor %.0f) — %s\n",
              dram_cycles_per_sec, kDramCyclesPerSecFloor,
              dram_throughput_ok ? "ok" : "REGRESSION");

  util::JsonWriter w;
  w.begin_object();
  w.key("bench").value("kernel");
  w.key("scenario_set").value("headline_summary");
  w.key("seed").value(kPerfSeed);
  w.key("jobs").value(static_cast<std::uint64_t>(naive.runs.size()));
  w.key("repeats").value(repeats);
  w.key("hardware_threads").value(hw);
  w.key("pre_pr_equiv_naive_serial_ms").value(naive.wall_ms);
  w.key("pre_pr_reference").begin_object();
  w.key("commit").value(kPrePrCommit);
  w.key("wall_ms").value(kPrePrWallMsReference);
  w.key("new_kernel_wall_ms").value(kNewWallMsAtReference);
  w.key("speedup").value(kPrePrWallMsReference / kNewWallMsAtReference);
  w.key("static_reference").value(true);
  w.key("measured").value(
      "development machine, interleaved, serial, 1 core; not re-measured "
      "at runtime — track the *_ms fields above for regressions");
  w.end_object();
  w.key("gated_serial_ms").value(gated.wall_ms);
  w.key("gated_parallel_ms").value(parallel_ms);
  w.key("speedup_gated_serial_vs_naive").value(speedup_gated);
  w.key("speedup_gated_parallel_vs_naive").value(speedup_total);
  w.key("dram_naive_serial_ms").value(dram_naive.wall_ms);
  w.key("dram_gated_serial_ms").value(dram_gated.wall_ms);
  w.key("dram_sim_cycles_total").value(dram_gated.cycles);
  w.key("dram_sim_cycles_per_sec").value(dram_cycles_per_sec);
  w.key("dram_cycles_per_sec_floor").value(kDramCyclesPerSecFloor);
  w.key("dram_throughput_pass").value(dram_throughput_ok);
  w.key("dram_cycle_identical").value(dram_identical);
  w.key("dram_mc_naive_serial_ms").value(mc_naive.wall_ms);
  w.key("dram_mc_gated_serial_ms").value(mc_gated.wall_ms);
  w.key("dram_mc_sim_cycles_total").value(mc_gated.cycles);
  w.key("dram_mc_cycle_identical").value(mc_identical);
  w.key("dram_mc_all_verified").value(mc_correct);
  w.key("channel_scaling").begin_object();
  w.key("masters").value(8);
  w.key("agg_r_util").begin_array();
  for (const double u : ch_utils) w.value(u);
  w.end_array();
  w.key("channels").begin_array();
  for (const unsigned c : {1u, 2u, 4u, 8u}) w.value(c);
  w.end_array();
  w.key("scaling_2ch").value(ch2_scaling);
  w.key("floor").value(kTwoChannelGainFloor);
  w.key("pass").value(ch_scaling_ok);
  w.end_object();
  w.key("sim_cycles_total").value(gated.cycles);
  w.key("sim_cycles_per_sec_gated_serial")
      .value(static_cast<double>(gated.cycles) / (gated.wall_ms / 1000.0));
  w.key("cycle_identical_naive_vs_gated").value(identical);
  w.key("all_workloads_verified").value(all_correct);
  w.key("thread_scaling").begin_array();
  for (const ScalePoint& point : scaling) {
    w.begin_object();
    w.key("threads_requested").value(point.requested);
    w.key("threads_effective").value(point.effective);
    w.key("oversubscribed").value(point.oversubscribed);
    w.key("wall_ms").value(point.wall_ms);
    w.key("dram_wall_ms").value(point.dram_wall_ms);
    w.end_object();
  }
  w.end_array();
  w.key("scenarios").begin_array();
  for (std::size_t i = 0; i < gated.runs.size(); ++i) {
    const std::size_t s = kHeadlineScenarios.size();
    w.begin_object();
    w.key("scenario").value(kHeadlineScenarios[i % s]);
    w.key("kernel").value(wl::kernel_name(kKernels[i / s]));
    w.key("run").raw(gated.runs[i].to_json());
    w.end_object();
  }
  w.end_array();
  w.key("dram_batched").begin_object();
  w.key("row_hit_floor").value(kPackDramStridedHitFloor);
  w.key("min_row_hit_ratio").value(min_hit);
  w.key("pass").value(hit_floor_ok);
  w.key("gemv_trmv_speedup_floor").value(kPackDramGemvTrmvSpeedupFloor);
  w.key("min_gemv_trmv_speedup").value(min_dram_speedup);
  w.key("planned_hit_floor").value(kPackDramPlannedHitFloor);
  w.key("min_planned_hit_ratio").value(min_planned_hit);
  w.key("speedup_pass").value(dram_speedup_ok);
  w.key("scenarios").begin_array();
  for (std::size_t i = 0; i < batched_results.size(); ++i) {
    w.begin_object();
    w.key("scenario").value("pack-dram");
    w.key("kernel").value(wl::kernel_name(kStridedKernels[i]));
    w.key("run").raw(batched_results[i].to_json());
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("dram_coalesced").begin_object();
  w.key("hit_floor").value(kCoalescedHitFloor);
  w.key("min_row_hit_ratio").value(min_coalesced_hit);
  w.key("pass").value(coalesced_ok);
  w.key("speedups_vs_base_dram").begin_array();
  for (const double s : coalesced_speedups) w.value(s);
  w.end_array();
  w.key("scenarios").begin_array();
  for (std::size_t i = 0; i < coalesced_results.size(); ++i) {
    w.begin_object();
    w.key("scenario").value("pack-dram-coalesce");
    w.key("kernel").value(wl::kernel_name(kIndirectKernels[i]));
    w.key("run").raw(coalesced_results[i].to_json());
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("open_loop").begin_object();
  w.key("slo_p99").value(kOpenLoopSloP99);
  w.key("ref_rate").value(kOpenLoopRefRate);
  w.key("rates").begin_array();
  for (const unsigned r : kOpenLoopRates) w.value(r);
  w.end_array();
  const auto emit_curve = [&w](const char* label, const OpenLoopCurve& c) {
    w.key(label).begin_object();
    w.key("knee").value(c.knee);
    w.key("p99_at_ref").value(c.p99_at_ref);
    w.key("p99").begin_array();
    for (const double v : c.p99) w.value(v);
    w.end_array();
    w.key("achieved_rate").begin_array();
    for (const double v : c.achieved) w.value(v);
    w.end_array();
    w.key("verified").value(c.correct);
    w.end_object();
  };
  emit_curve("base", ol_base);
  emit_curve("pack", ol_pack);
  emit_curve("coalesce", ol_coalesce);
  w.key("knee_ratio").value(ol_knee_ratio);
  w.key("floor").value(kOpenLoopKneeFloor);
  w.key("pass").value(ol_ok);
  w.key("identical").value(ol_identical);
  w.end_object();
  w.key("dram_scenarios").begin_array();
  for (std::size_t i = 0; i < dram_gated.runs.size(); ++i) {
    const std::size_t s = kDramScenarios.size();
    w.begin_object();
    w.key("scenario").value(kDramScenarios[i % s]);
    w.key("kernel").value(wl::kernel_name(kKernels[i / s]));
    w.key("run").raw(dram_gated.runs[i].to_json());
    w.end_object();
  }
  w.end_array();
  w.end_object();

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  const std::string doc = w.str();
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  return (identical && all_correct && hit_floor_ok && dram_speedup_ok &&
          coalesced_ok && dram_throughput_ok && mc_identical && mc_correct &&
          ch_scaling_ok && ol_ok && ol_identical)
             ? 0
             : 1;
}
