// Wall-clock and modelled-performance gates for the simulation kernel
// (BENCH_kernel.json).
//
// Runs the paper's six kernels over three scenario sets, each as an
// ExperimentSpec: headline (the BASE / PACK / IDEAL 256-bit SoCs), dram
// (base-dram / pack-dram) and dram_ch4 (four interleaved DRAM channels).
// Each set runs once on the naive kernel (gating disabled: every component
// ticks every cycle) and once on the activity-gated kernel, serially,
// keeping the fastest of --repeats passes. Both must take identical
// cycles, so the wall-clock ratios isolate the engine, not the model. Two
// gated sets guard the DRAM paths (dram_batched, dram_coalesced), and a
// channel-scaling sweep and three open-loop SLO-knee curves complete the
// run.
//
// Every pass condition is one row of the gate table (pass = value >=
// floor). The table is printed, written to the JSON "gates" array and
// decides the exit status; the closed-loop sets are embedded as ResultSet
// JSON. All workload RNG is seeded from kPerfSeed (recorded in the JSON),
// so every modelled number is reproducible.
//
// Usage: perf_kernel [--out=PATH] [--repeats=N]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "systems/experiment.hpp"
#include "systems/scenario.hpp"
#include "systems/sensitivity.hpp"
#include "systems/sweep.hpp"
#include "util/json.hpp"

namespace {

using namespace axipack;
using sys::AxisValue;
using sys::ExperimentSpec;
using sys::ResultRow;
using sys::ResultSet;
using Clock = std::chrono::steady_clock;

/// All workload RNG derives from this constant. It is also recorded in the
/// JSON output.
constexpr std::uint64_t kPerfSeed = 42;

const std::vector<wl::KernelKind> kKernels = {
    wl::KernelKind::ismt, wl::KernelKind::gemv,  wl::KernelKind::trmv,
    wl::KernelKind::spmv, wl::KernelKind::prank, wl::KernelKind::sssp};

/// The strided kernels on the row-batching pack-dram scheduler (the
/// default). Their row-hit ratios are the regression canary for the
/// batching scheduler: the column-wise dataflow is pinned (as in fig7),
/// because the backend-aware planner would otherwise pick row-wise
/// gemv/trmv whose free open-row hits mask a broken scheduler.
const std::vector<wl::KernelKind> kStridedKernels = {
    wl::KernelKind::ismt, wl::KernelKind::gemv, wl::KernelKind::trmv};
/// Recorded floor for the pack-dram strided row-hit ratio at seed 42 with
/// the column-wise pin: ismt 0.71, gemv 0.50, trmv 0.66 (head-only
/// scheduling bottomed out at 0.29 on trmv); the floor sits under the
/// weakest point with a margin for workload-generator drift.
constexpr double kPackDramStridedHitFloor = 0.45;
/// Recorded floors for the *planned* (backend-aware, row-wise) pack-dram
/// gemv/trmv at seed 42. Planned column-wise, they ran at 0.27x/0.61x vs
/// base-dram with ~51%/66% hits; the row-wise plan restores BASE parity
/// (measured 1.00x at 99.7%/99.4% open-row hits).
constexpr double kPackDramGemvTrmvSpeedupFloor = 0.95;
constexpr double kPackDramPlannedHitFloor = 0.95;

/// The indirect kernels on the coalesced pack-dram path ("pack-dram-coalesce":
/// row-aware batching plus the index coalescing unit at default entries /
/// window). Their row-hit ratio is the regression canary for the coalescer:
/// with the element stream folded into the pending table, the DRAM scheduler
/// mostly sees the sequential index stream, and the open-row hit rate must
/// sit at or above the base-dram level (~0.95 at seed 42). The floor leaves
/// margin for workload-generator drift.
const std::vector<wl::KernelKind> kIndirectKernels = {
    wl::KernelKind::spmv, wl::KernelKind::prank, wl::KernelKind::sssp};
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
constexpr unsigned kChannelCounts[] = {1, 2, 4, 8};
constexpr unsigned kChannelMasters = 8;

/// Open-loop latency-under-load gate: a geometric
/// rate sweep of the three open-loop systems, each point a 120k-cycle
/// measured window of Poisson-arriving indirect gathers through the
/// scatter-gather ring DMA. A curve's knee is the highest swept rate whose
/// p99 sojourn latency met the SLO; the coalesced PACK system must sustain
/// >= 1.5x the narrow baseline's knee (measured at seed 42: base 80,
/// pack 160, coalesce 160 req/100k cycles -> 2.0x), and its p99 at the
/// reference rate must not exceed plain pack's: at this low index reuse
/// the coalescer has little to merge, so a higher tail means its sticky
/// port-mux arbitration is stalling stream switches.
constexpr unsigned kOpenLoopRates[] = {10, 20, 40, 80, 160, 320, 640};
constexpr double kOpenLoopSloP99 = 5000.0;
constexpr double kOpenLoopKneeFloor = 1.5;
constexpr unsigned kOpenLoopRefRate = 80;  ///< reference-rate p99 datapoint

/// The "mode" axis values: the naive kernel is one builder patch away from
/// the gated default.
const AxisValue kNaive = AxisValue::shaped("naive", [](sys::PointDraft& d) {
  d.builder_patches.push_back(
      [](sys::SystemBuilder& b) { b.naive_kernel(true); });
});
const AxisValue kGated = AxisValue::shaped("gated", nullptr);

/// `kernels` × `scenarios`, kernel-major, serial, at the fixed seed.
ExperimentSpec closed_loop(std::string name,
                           std::vector<wl::KernelKind> kernels,
                           std::vector<std::string> scenarios) {
  return ExperimentSpec(std::move(name))
      .kernels_axis(std::move(kernels))
      .scenarios_axis("scenario", std::move(scenarios))
      .configure([](wl::WorkloadConfig& c) { c.seed = kPerfSeed; })
      .threads(1);
}

/// The fastest of `repeats` passes of one set.
struct TimedSet {
  ResultSet set;
  double wall_ms = 0.0;

  std::uint64_t cycles() const {
    std::uint64_t total = 0;
    for (const ResultRow& row : set.rows()) total += row.run.cycles;
    return total;
  }
  double cycles_per_sec() const {
    return static_cast<double>(cycles()) / (wall_ms / 1000.0);
  }
};

TimedSet run_timed(const ExperimentSpec& spec, const char* mode,
                   unsigned repeats) {
  TimedSet best;
  for (unsigned rep = 0; rep < repeats; ++rep) {
    const auto t0 = Clock::now();
    ResultSet set = spec.run();
    const double wall =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (rep == 0 || wall < best.wall_ms) best = {std::move(set), wall};
  }
  std::printf("  %-8s %s: %8.1f ms  (%llu sim cycles)\n",
              spec.name().c_str(), mode, best.wall_ms,
              static_cast<unsigned long long>(best.cycles()));
  return best;
}

/// 1 when `pred` holds for every row of `set`, else 0: the value of an
/// identity or verification gate.
template <typename Pred>
double every_row(const ResultSet& set, Pred pred) {
  return std::all_of(set.rows().begin(), set.rows().end(), pred) ? 1.0 : 0.0;
}

bool ran_correct(const ResultRow& row) { return row.run.correct; }

double min_row_hit(const ResultSet& set) {
  double min_hit = 1.0;
  for (const ResultRow& row : set.rows()) {
    min_hit = std::min(min_hit, row.run.row_hit_ratio());
  }
  return min_hit;
}

/// One scenario set on both kernels.
struct KernelPair {
  TimedSet naive;
  TimedSet gated;

  /// 1 when every gated run took exactly its naive twin's cycles.
  double identical() const {
    return every_row(gated.set, [this](const ResultRow& row) {
      const ResultRow* twin = naive.set.find(
          {{"kernel", row.coord("kernel")},
           {"scenario", row.coord("scenario")}});
      return twin != nullptr && twin->run.cycles == row.run.cycles;
    });
  }
  double verified() const {
    return std::min(every_row(naive.set, ran_correct),
                    every_row(gated.set, ran_correct));
  }
};

/// Runs `spec` on the naive kernel, then on the gated one.
KernelPair run_both_kernels(const ExperimentSpec& spec, unsigned repeats) {
  ExperimentSpec naive = spec;
  ExperimentSpec gated = spec;
  naive.axis("mode", {kNaive});
  gated.axis("mode", {kGated});
  KernelPair pair;
  pair.naive = run_timed(naive, "naive", repeats);
  pair.gated = run_timed(gated, "gated", repeats);
  return pair;
}

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
  std::printf("  open-loop %-28s: knee %3.0f req/100k, p99 at %u: %.0f cyc\n",
              stem.c_str(), curve.knee, kOpenLoopRefRate, curve.p99_at_ref);
  return curve;
}

/// 1 when the gated and naive kernels give the same open-loop run at twice
/// the reference rate (the traffic source sleeps between arrivals, so it
/// exercises the wake scheduler in a way no closed-loop set does).
double open_loop_identical() {
  sys::RunResult runs[2];
  for (const bool naive : {false, true}) {
    auto b = sys::ScenarioRegistry::instance().builder(
        "pack-256-dram-p" + std::to_string(kOpenLoopRefRate * 2));
    b.naive_kernel(naive);
    runs[naive] = b.build()->run_open_loop(120'000, 20'000'000);
  }
  const bool same =
      runs[0].cycles == runs[1].cycles &&
      runs[0].latency.count() == runs[1].latency.count() &&
      runs[0].latency.percentile(99) == runs[1].latency.percentile(99) &&
      runs[0].queue_peak == runs[1].queue_peak && runs[0].correct &&
      runs[1].correct;
  return same ? 1.0 : 0.0;
}

/// One CI gate: it passes when value >= floor. A ceiling is written as a
/// ratio, and an identity or verification check as 0/1 against a floor
/// of 1.
struct Gate {
  const char* name;
  double value;
  double floor;

  bool pass() const { return value >= floor; }
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_kernel.json";
  unsigned repeats = 2;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
      continue;
    }
    // --repeats takes a positive integer, parsed like AXIPACK_THREADS.
    const std::optional<unsigned> n =
        std::strncmp(argv[i], "--repeats=", 10) == 0
            ? sys::SweepRunner::parse_threads(argv[i] + 10)
            : std::nullopt;
    if (!n) {
      std::fprintf(stderr,
                   "%s: bad argument \"%s\"\n"
                   "usage: %s [--out=PATH] [--repeats=N]\n",
                   argv[0], argv[i], argv[0]);
      return 2;
    }
    repeats = *n;
  }

  const unsigned hw = sys::SweepRunner::default_threads();
  std::printf("perf_kernel: seed=%llu, repeats=%u, %u hardware thread(s)\n",
              static_cast<unsigned long long>(kPerfSeed), repeats, hw);

  const KernelPair headline = run_both_kernels(
      closed_loop("headline", kKernels,
                  {sys::scenario_name(sys::SystemKind::base),
                   sys::scenario_name(sys::SystemKind::pack),
                   sys::scenario_name(sys::SystemKind::ideal)}),
      repeats);
  // The same SoCs over the cycle-level DRAM backend: a deeper-pipeline,
  // refresh-bearing set that stresses the kernel's wake scheduling
  // differently. plan_workload sees the "dram" backend here, so PACK
  // gemv/trmv run row-wise (the backend-aware methodology choice).
  const KernelPair dram = run_both_kernels(
      closed_loop("dram", kKernels, {"base-dram", "pack-dram"})
          .baseline("scenario", "base-dram"),
      repeats);
  // Four interleaved DRAM channels: the per-master ChannelRouter,
  // per-channel adapters/backends and B-merge all sit on the hot path.
  const KernelPair dram_ch4 = run_both_kernels(
      closed_loop("dram_ch4", kKernels,
                  {"base-256-dram-ch4", "pack-256-dram-ch4"}),
      repeats);

  // Pin the column walk the batching scheduler has to absorb (gemv/trmv;
  // ismt ignores the dataflow field).
  const ResultSet batched =
      closed_loop("dram_batched", kStridedKernels, {"pack-dram"})
          .configure([](wl::WorkloadConfig& c) {
            c.seed = kPerfSeed;
            c.dataflow = wl::Dataflow::colwise;
          })
          .run();
  ResultSet coalesced =
      closed_loop("dram_coalesced", kIndirectKernels, {"pack-dram-coalesce"})
          .run();
  for (ResultRow& row : coalesced.mutable_rows()) {
    const ResultRow* base = dram.gated.set.find(
        {{"kernel", row.coord("kernel")}, {"scenario", "base-dram"}});
    row.metrics["speedup_vs_base_dram"] =
        row.run.cycles ? static_cast<double>(base->run.cycles) /
                             static_cast<double>(row.run.cycles)
                       : 0.0;
  }
  // The planned (row-wise) pack-dram gemv/trmv must stay at BASE parity
  // and open-row hit rates; the speedups come from the dram set's
  // baseline join.
  double min_planned_speedup = 1e9;
  double min_planned_hit = 1.0;
  for (const ResultRow& row : dram.gated.set.rows()) {
    const std::string& kernel = row.coord("kernel");
    if (row.coord("scenario") != "pack-dram" || row.run.cycles == 0 ||
        (kernel != "gemv" && kernel != "trmv")) {
      continue;
    }
    min_planned_speedup =
        std::min(min_planned_speedup, row.speedup.value_or(0.0));
    min_planned_hit = std::min(min_planned_hit, row.run.row_hit_ratio());
  }

  std::vector<double> agg_r_util;
  for (const unsigned channels : kChannelCounts) {
    const sys::RunResult r = sys::measure_channel_streams(
        channels, kChannelMasters, mem::DramMapping::permuted, 128 * 1024);
    double agg = 0.0;
    for (const sys::ChannelRunStats& cs : r.per_channel) agg += cs.r_util;
    agg_r_util.push_back(agg);
  }

  const OpenLoopCurve ol_base = run_open_loop_curve("base-256-dram");
  const OpenLoopCurve ol_pack = run_open_loop_curve("pack-256-dram");
  const OpenLoopCurve ol_coalesce =
      run_open_loop_curve("pack-256-dram-x512-g16");

  const std::vector<Gate> gates = {
      {"headline_cycle_identical", headline.identical(), 1},
      {"headline_verified", headline.verified(), 1},
      {"dram_cycle_identical", dram.identical(), 1},
      {"dram_verified", dram.verified(), 1},
      // Serial-DRAM throughput, the tracked metric of the event-driven
      // scheduler rewrite: guards against per-cycle rescanning.
      {"dram_sim_cycles_per_sec", dram.gated.cycles_per_sec(),
       kDramCyclesPerSecFloor},
      {"dram_gemv_trmv_min_speedup", min_planned_speedup,
       kPackDramGemvTrmvSpeedupFloor},
      {"dram_gemv_trmv_min_row_hit", min_planned_hit,
       kPackDramPlannedHitFloor},
      {"dram_ch4_cycle_identical", dram_ch4.identical(), 1},
      {"dram_ch4_verified", dram_ch4.verified(), 1},
      {"dram_batched_verified", every_row(batched, ran_correct), 1},
      {"dram_batched_min_row_hit", min_row_hit(batched),
       kPackDramStridedHitFloor},
      {"dram_coalesced_verified",
       every_row(coalesced,
                 [](const ResultRow& row) {
                   return row.run.correct && row.run.coalesce_unique > 0;
                 }),
       1},
      {"dram_coalesced_min_row_hit", min_row_hit(coalesced),
       kCoalescedHitFloor},
      {"channel_scaling_2ch",
       agg_r_util[0] > 0 ? agg_r_util[1] / agg_r_util[0] : 0.0,
       kTwoChannelGainFloor},
      {"open_loop_verified",
       ol_base.correct && ol_pack.correct && ol_coalesce.correct ? 1.0 : 0.0,
       1},
      {"open_loop_knee_ratio",
       ol_base.knee > 0 ? ol_coalesce.knee / ol_base.knee : 0.0,
       kOpenLoopKneeFloor},
      // Ceiling "coalesce p99 <= pack p99" at the reference rate.
      {"open_loop_p99_at_ref_pack_over_coalesce",
       ol_coalesce.p99_at_ref > 0 ? ol_pack.p99_at_ref / ol_coalesce.p99_at_ref
                                  : 1.0,
       1},
      {"open_loop_cycle_identical", open_loop_identical(), 1},
  };

  std::printf("  speedup gated/naive (headline, serial): %.2fx\n",
              headline.naive.wall_ms / headline.gated.wall_ms);
  bool all_pass = true;
  for (const Gate& g : gates) {
    std::printf("  %-42s %14.4f  floor %12.4f  %s\n", g.name, g.value,
                g.floor, g.pass() ? "ok" : "REGRESSION");
    all_pass = all_pass && g.pass();
  }

  util::JsonWriter w;
  w.begin_object();
  w.key("bench").value("kernel");
  w.key("scenario_set").value("headline_summary");
  w.key("seed").value(kPerfSeed);
  w.key("jobs").value(static_cast<std::uint64_t>(headline.gated.set.size()));
  w.key("repeats").value(repeats);
  w.key("hardware_threads").value(hw);
  w.key("pre_pr_equiv_naive_serial_ms").value(headline.naive.wall_ms);
  w.key("gated_serial_ms").value(headline.gated.wall_ms);
  w.key("speedup_gated_serial_vs_naive")
      .value(headline.naive.wall_ms / headline.gated.wall_ms);
  w.key("sim_cycles_total").value(headline.gated.cycles());
  w.key("sim_cycles_per_sec_gated_serial")
      .value(headline.gated.cycles_per_sec());
  w.key("dram_naive_serial_ms").value(dram.naive.wall_ms);
  w.key("dram_gated_serial_ms").value(dram.gated.wall_ms);
  w.key("dram_sim_cycles_total").value(dram.gated.cycles());
  w.key("dram_sim_cycles_per_sec").value(dram.gated.cycles_per_sec());
  w.key("dram_mc_naive_serial_ms").value(dram_ch4.naive.wall_ms);
  w.key("dram_mc_gated_serial_ms").value(dram_ch4.gated.wall_ms);
  w.key("dram_mc_sim_cycles_total").value(dram_ch4.gated.cycles());
  w.key("channel_scaling").begin_object();
  w.key("masters").value(kChannelMasters);
  w.key("channels").begin_array();
  for (const unsigned c : kChannelCounts) w.value(c);
  w.end_array();
  w.key("agg_r_util").begin_array();
  for (const double u : agg_r_util) w.value(u);
  w.end_array();
  w.end_object();
  w.key("open_loop").begin_object();
  w.key("slo_p99").value(kOpenLoopSloP99);
  w.key("ref_rate").value(kOpenLoopRefRate);
  w.key("rates").begin_array();
  for (const unsigned r : kOpenLoopRates) w.value(r);
  w.end_array();
  for (const auto& [label, c] : {std::pair{"base", &ol_base},
                                 std::pair{"pack", &ol_pack},
                                 std::pair{"coalesce", &ol_coalesce}}) {
    w.key(label).begin_object();
    w.key("knee").value(c->knee);
    w.key("p99_at_ref").value(c->p99_at_ref);
    w.key("p99").begin_array();
    for (const double v : c->p99) w.value(v);
    w.end_array();
    w.key("achieved_rate").begin_array();
    for (const double v : c->achieved) w.value(v);
    w.end_array();
    w.key("verified").value(c->correct);
    w.end_object();
  }
  w.end_object();
  w.key("gates").begin_array();
  for (const Gate& g : gates) {
    w.begin_object();
    w.key("name").value(g.name);
    w.key("value").value(g.value);
    w.key("floor").value(g.floor);
    w.key("pass").value(g.pass());
    w.end_object();
  }
  w.end_array();
  w.key("experiments").begin_array();
  for (const ResultSet* set : std::initializer_list<const ResultSet*>{
           &headline.gated.set, &dram.gated.set, &dram_ch4.gated.set,
           &batched, &coalesced}) {
    set->write_json(w);
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
  return all_pass ? 0 : 1;
}
