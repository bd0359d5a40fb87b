// Regression floors on the modelled memory side: the DRAM row scheduler,
// the index coalescer, channel scale-out and the open-loop SLO knee and
// tail. Every run uses the figures' sizes at the fixed seed kSeed, so each
// value below is exact and reproducible; the floors leave margin under the
// recorded values.
//
// Every closed- and open-loop DRAM run is also held to two ceilings on the
// simulator's own work: whole-port scheduler rebuilds per thousand
// simulated cycles, and scheduler-window entries walked per granted word.
// The counts are the same on every host. The first grows more than
// tenfold if the DRAM scheduler regresses to rebuilding every port every
// cycle, the second up to 2.3x if it rebuilds a bank on every arrival and
// release — at unchanged simulated cycles, so no modelled floor would
// notice.
#include "test_common.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "dma/engine.hpp"
#include "mem/dram_memory.hpp"
#include "pack/adapter.hpp"
#include "systems/runner.hpp"
#include "systems/scenario.hpp"
#include "systems/sensitivity.hpp"
#include "systems/system.hpp"
#include "workloads/workloads.hpp"

namespace axipack {
namespace {

/// All workload RNG derives from this constant.
constexpr std::uint64_t kSeed = 42;

/// Ceiling on DramMemory::rescan_port calls per 1000 simulated cycles, per
/// run, summed over the run's DRAM channels. Only a refresh sweep rebuilds
/// a whole port: the runs below read 0.47–1.68. Rebuilding every port that
/// holds window entries on every tick leaves every cycle count unchanged
/// and reads 41–7,566 on the same runs (2,000 and up on each closed-loop
/// run).
constexpr double kRescansPerKcycleCeiling = 20.0;

/// Ceiling on window entries DramMemory::rescan_bank walks per granted
/// word, per run, summed over the run's DRAM channels. Arrivals and
/// releases fold into the candidate caches in O(1): the runs below read
/// 1.02–2.51, except where a test sets its own ceiling. Rebuilding the
/// entry's bank on every arrival and release instead leaves every cycle
/// count unchanged and reads 2.04–5.80 on the same runs (5.31–5.80 on the
/// coalesced closed-loop runs, 3.19–4.07 on the open-loop pack systems).
constexpr double kWalkedPerGrantCeiling = 3.0;

/// Holds `system`'s DRAM scheduler to both work ceilings over every cycle
/// it has simulated.
void expect_dram_work_within_ceilings(
    sys::System& system, const std::string& what,
    double walked_per_grant_ceiling = kWalkedPerGrantCeiling) {
  std::uint64_t rescans = 0, walked = 0, grants = 0;
  for (unsigned c = 0; c < system.num_channels(); ++c) {
    const auto* dram = dynamic_cast<const mem::DramMemory*>(system.memory(c));
    if (dram == nullptr) continue;
    const mem::DramStats& s = dram->stats();
    rescans += s.port_rescans;
    walked += s.rescan_entries;
    grants += s.grants;
  }
  const double per_kcycle = 1000.0 * static_cast<double>(rescans) /
                            static_cast<double>(system.kernel().now());
  const double per_grant =
      grants == 0 ? 0.0
                  : static_cast<double>(walked) / static_cast<double>(grants);
  std::printf("  %-36s %6llu port rescans, %5.2f per kcycle; %5.2f walked "
              "per grant\n",
              what.c_str(), static_cast<unsigned long long>(rescans),
              per_kcycle, per_grant);
  EXPECT_LE(per_kcycle, kRescansPerKcycleCeiling) << what;
  EXPECT_LE(per_grant, walked_per_grant_ceiling) << what;
}

/// The planned workload for (`kernel`, `scenario`) at the fixed seed.
wl::WorkloadConfig planned(wl::KernelKind kernel, const std::string& scenario) {
  wl::WorkloadConfig cfg = sys::plan_workload(kernel, scenario);
  cfg.seed = kSeed;
  return cfg;
}

/// Runs `cfg` on a fresh `scenario` system under the DRAM work ceilings.
sys::RunResult run_closed_loop(
    const std::string& scenario, const wl::WorkloadConfig& cfg,
    double walked_per_grant_ceiling = kWalkedPerGrantCeiling) {
  std::unique_ptr<sys::System> system =
      sys::ScenarioRegistry::instance().builder(scenario).build();
  const sys::RunResult r =
      system->run(wl::build_workload(system->store(), cfg));
  expect_dram_work_within_ceilings(
      *system, scenario + " " + wl::kernel_name(cfg.kernel),
      walked_per_grant_ceiling);
  return r;
}

double min_row_hit(const std::vector<sys::RunResult>& runs) {
  double min_hit = 1.0;
  for (const sys::RunResult& r : runs) {
    min_hit = std::min(min_hit, r.row_hit_ratio());
  }
  return min_hit;
}

TEST(ModelFloors, PlannedGemvTrmvKeepBaseParity) {
  // Recorded floors for the *planned* (backend-aware, row-wise) pack-dram
  // gemv/trmv at seed 42. Planned column-wise, they ran at 0.27x/0.61x vs
  // base-dram with ~51%/66% hits; the row-wise plan restores BASE parity
  // (measured 1.00x at 99.7%/99.4% open-row hits).
  constexpr double kPackDramGemvTrmvSpeedupFloor = 0.95;
  constexpr double kPackDramPlannedHitFloor = 0.95;
  double min_speedup = 1e9;
  std::vector<sys::RunResult> pack_runs;
  for (const auto kernel : {wl::KernelKind::gemv, wl::KernelKind::trmv}) {
    const sys::RunResult base =
        run_closed_loop("base-dram", planned(kernel, "base-dram"));
    const sys::RunResult pack =
        run_closed_loop("pack-dram", planned(kernel, "pack-dram"));
    EXPECT_TRUE(base.correct) << wl::kernel_name(kernel) << " " << base.error;
    EXPECT_TRUE(pack.correct) << wl::kernel_name(kernel) << " " << pack.error;
    min_speedup = std::min(min_speedup, static_cast<double>(base.cycles) /
                                            static_cast<double>(pack.cycles));
    pack_runs.push_back(pack);
  }
  std::printf("  min speedup %.4f, min row hit %.4f\n", min_speedup,
              min_row_hit(pack_runs));
  EXPECT_GE(min_speedup, kPackDramGemvTrmvSpeedupFloor);
  EXPECT_GE(min_row_hit(pack_runs), kPackDramPlannedHitFloor);
}

TEST(ModelFloors, ColwiseStridedRowHits) {
  // The strided kernels on the row-batching pack-dram scheduler (the
  // default). Their row-hit ratios are the regression canary for the
  // batching scheduler: the column-wise dataflow is pinned (as in fig7),
  // because the backend-aware planner would otherwise pick row-wise
  // gemv/trmv whose free open-row hits mask a broken scheduler.
  // Recorded floor for the pack-dram strided row-hit ratio at seed 42 with
  // the column-wise pin: ismt 0.71, gemv 0.50, trmv 0.66 (head-only
  // scheduling bottomed out at 0.29 on trmv); the floor sits under the
  // weakest point with a margin for workload-generator drift.
  constexpr double kPackDramStridedHitFloor = 0.45;
  // Column-wise, every port holds long same-bank chains, and each row
  // miss and each bank cooling rebuilds them: ismt/gemv/trmv walk
  // 4.80/13.46/7.44 entries per granted word (5.98/15.73/9.34 without the
  // arrival and release folds).
  constexpr double kColwiseWalkedPerGrantCeiling = 15.0;
  std::vector<sys::RunResult> runs;
  for (const auto kernel :
       {wl::KernelKind::ismt, wl::KernelKind::gemv, wl::KernelKind::trmv}) {
    wl::WorkloadConfig cfg = planned(kernel, "pack-dram");
    cfg.dataflow = wl::Dataflow::colwise;
    runs.push_back(
        run_closed_loop("pack-dram", cfg, kColwiseWalkedPerGrantCeiling));
    EXPECT_TRUE(runs.back().correct)
        << wl::kernel_name(kernel) << " " << runs.back().error;
  }
  std::printf("  min row hit %.4f\n", min_row_hit(runs));
  EXPECT_GE(min_row_hit(runs), kPackDramStridedHitFloor);
}

constexpr wl::KernelKind kIndirectKernels[] = {
    wl::KernelKind::spmv, wl::KernelKind::prank, wl::KernelKind::sssp};

/// The indirect kernels on the coalesced pack-dram path ("pack-dram-
/// coalesce": row-aware batching plus the index coalescing unit at default
/// entries / window), in kIndirectKernels order. Run once and shared by the
/// floors that read them.
const std::vector<sys::RunResult>& coalesced_indirect_runs() {
  static const std::vector<sys::RunResult> runs = [] {
    std::vector<sys::RunResult> r;
    for (const auto kernel : kIndirectKernels) {
      r.push_back(run_closed_loop("pack-dram-coalesce",
                                  planned(kernel, "pack-dram-coalesce")));
    }
    return r;
  }();
  return runs;
}

TEST(ModelFloors, CoalescedIndirectRowHits) {
  // Their row-hit ratio is the regression canary for the coalescer: with
  // the element stream folded into the pending table, the DRAM scheduler
  // mostly sees the sequential index stream, and the open-row hit rate must
  // sit at or above the base-dram level (~0.95 at seed 42). The floor
  // leaves margin for workload-generator drift.
  constexpr double kCoalescedHitFloor = 0.90;
  const std::vector<sys::RunResult>& runs = coalesced_indirect_runs();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const char* kernel = wl::kernel_name(kIndirectKernels[i]);
    EXPECT_TRUE(runs[i].correct) << kernel << " " << runs[i].error;
    EXPECT_GT(runs[i].coalesce_unique, 0u) << kernel;
  }
  std::printf("  min row hit %.4f\n", min_row_hit(runs));
  EXPECT_GE(min_row_hit(runs), kCoalescedHitFloor);
}

TEST(ModelFloors, CoalescedIndirectHidesDramLatency) {
  // With its decoupling queues and index window sized to the whole memory
  // loop (row miss plus the port mux's sticky hold), the coalesced DRAM
  // adapter keeps enough words in flight that its read-bus utilization
  // comes close to the same adapter, uncoalesced, on ideal 1-cycle memory.
  // Measured at seed 42: 1.012/0.990/0.987 of ideal (spmv/prank/sssp).
  // Sized to the row miss alone (30 cycles, without the hold) it read
  // 0.73–0.79.
  constexpr double kDramOverIdealUtilFloor = 0.90;
  const std::vector<sys::RunResult>& dram = coalesced_indirect_runs();
  for (std::size_t i = 0; i < dram.size(); ++i) {
    const wl::KernelKind kernel = kIndirectKernels[i];
    std::unique_ptr<sys::System> ideal_system =
        sys::ScenarioRegistry::instance().builder("pack-256-idealmem").build();
    const sys::RunResult ideal = ideal_system->run(wl::build_workload(
        ideal_system->store(), planned(kernel, "pack-256-idealmem")));
    ASSERT_TRUE(ideal.correct) << wl::kernel_name(kernel) << " " << ideal.error;
    ASSERT_TRUE(ideal.r_util > 0.0) << wl::kernel_name(kernel);
    const double ratio = dram[i].r_util / ideal.r_util;
    std::printf("  %-5s R-util dram %.4f / ideal %.4f = %.4f\n",
                wl::kernel_name(kernel), dram[i].r_util, ideal.r_util, ratio);
    EXPECT_GE(ratio, kDramOverIdealUtilFloor) << wl::kernel_name(kernel);
  }
}

TEST(ModelFloors, GroupingWindowCostsNoCycles) {
  // The grouping window may only pull a same-row fetch ahead of an older
  // one in the same bank. Each coalescer lane carries two of the 16 banks;
  // a window that continues the other bank's row passes older fetches and
  // runs the default window (g16) about 3% slower than none (g1). Measured
  // at seed 42: g16 = g1 = 69,934/149,782/150,415 cycles (spmv/prank/sssp).
  const std::vector<sys::RunResult>& g16 = coalesced_indirect_runs();
  for (std::size_t i = 0; i < g16.size(); ++i) {
    const wl::KernelKind kernel = kIndirectKernels[i];
    const sys::RunResult g1 = run_closed_loop(
        "pack-256-dram-x512-g1", planned(kernel, "pack-256-dram-x512-g1"));
    EXPECT_TRUE(g1.correct) << wl::kernel_name(kernel) << " " << g1.error;
    std::printf("  %-5s cycles g16 %llu / g1 %llu\n", wl::kernel_name(kernel),
                static_cast<unsigned long long>(g16[i].cycles),
                static_cast<unsigned long long>(g1.cycles));
    EXPECT_LE(g16[i].cycles, g1.cycles) << wl::kernel_name(kernel);
  }
}

TEST(ModelFloors, IndirectWindowSeesEveryInFlightWord) {
  // Uncoalesced, a pack-dram gather keeps index, element and value words
  // in flight at once (about 90 per port). With each port's scheduling
  // window sized to the adapter's per-lane in-flight words (210), the row
  // scheduler sees all of them; a window of 32 leaves the rest queued in
  // the port mux. Measured at seed 42: R-util 0.309 with the derived
  // window, 0.231 with a window of 32.
  constexpr double kPackDramSpmvUtilFloor = 0.28;
  // The 210-deep windows hold index, element and value words together:
  // 3.62 entries walked per granted word (5.61 without the arrival and
  // release folds).
  constexpr double kPackDramSpmvWalkedPerGrantCeiling = 4.5;
  const sys::RunResult r =
      run_closed_loop("pack-dram", planned(wl::KernelKind::spmv, "pack-dram"),
                      kPackDramSpmvWalkedPerGrantCeiling);
  EXPECT_TRUE(r.correct) << r.error;
  std::printf("  spmv R-util %.4f\n", r.r_util);
  EXPECT_GE(r.r_util, kPackDramSpmvUtilFloor);
}

TEST(ModelFloors, TwoChannelScaling) {
  // Aggregate R-util gain floor at 2 channels vs 1 for the stream-master
  // recipe (8 masters, permuted mapping). Ideal doubling is 2.0x; the
  // floor leaves headroom for arbitration and DRAM effects while failing
  // any regression that re-serializes the channels. (fig10 covers 4 and 8
  // channels.)
  constexpr double kTwoChannelGainFloor = 1.7;
  double agg_r_util[2] = {0.0, 0.0};
  for (const unsigned channels : {1u, 2u}) {
    const sys::RunResult r = sys::measure_channel_streams(
        channels, 8, mem::DramMapping::permuted, 128 * 1024);
    for (const sys::ChannelRunStats& cs : r.per_channel) {
      agg_r_util[channels - 1] += cs.r_util;
    }
  }
  ASSERT_TRUE(agg_r_util[0] > 0.0);
  std::printf("  2-channel gain %.4f\n", agg_r_util[1] / agg_r_util[0]);
  EXPECT_GE(agg_r_util[1] / agg_r_util[0], kTwoChannelGainFloor);
}

/// One open-loop latency-under-load curve: a geometric rate sweep, each
/// point a 120k-cycle measured window of Poisson-arriving indirect gathers
/// through the scatter-gather ring DMA.
struct OpenLoopCurve {
  double knee = 0.0;        ///< highest swept rate whose p99 met the SLO
  double p99_at_ref = 0.0;  ///< p99 sojourn at the reference rate
};

constexpr double kOpenLoopSloP99 = 5000.0;
constexpr unsigned kOpenLoopRefRate = 80;

OpenLoopCurve run_open_loop_curve(const std::string& stem) {
  OpenLoopCurve curve;
  for (const unsigned rate : {10u, 20u, 40u, 80u, 160u, 320u, 640u}) {
    const std::string scenario = stem + "-p" + std::to_string(rate);
    std::unique_ptr<sys::System> system =
        sys::ScenarioRegistry::instance().builder(scenario).build();
    const sys::RunResult r = system->run_open_loop(120'000, 20'000'000);
    expect_dram_work_within_ceilings(*system, scenario);
    EXPECT_TRUE(r.correct) << scenario << " " << r.error;
    const double p99 = r.latency.percentile(99);
    if (p99 <= kOpenLoopSloP99 && rate > curve.knee) curve.knee = rate;
    if (rate == kOpenLoopRefRate) curve.p99_at_ref = p99;
  }
  std::printf("  %-24s knee %3.0f req/100k, p99 at %u: %.1f cyc\n",
              stem.c_str(), curve.knee, kOpenLoopRefRate, curve.p99_at_ref);
  return curve;
}

TEST(ModelFloors, CoalescerSleepsWhileFetchesAreInFlight) {
  // Simulator work, not modelled hardware: the coalescing units' ticks per
  // 1000 simulated cycles, summed over the four units, on the coalesced
  // open-loop system at the reference rate. A unit sleeps while its
  // fetches are in flight: the run reads 119.3. Kept awake until its table
  // drains, a unit ticks through every in-flight cycle, and the same run
  // reads 399.5 at identical cycles.
  constexpr double kCoalescerTicksPerKcycleCeiling = 150.0;
  const std::string scenario =
      "pack-256-dram-x512-g16-p" + std::to_string(kOpenLoopRefRate);
  std::unique_ptr<sys::System> system =
      sys::ScenarioRegistry::instance().builder(scenario).build();
  const sys::RunResult r = system->run_open_loop(120'000, 20'000'000);
  EXPECT_TRUE(r.correct) << r.error;
  std::uint64_t ticks = 0;
  for (const pack::Coalescer* unit : system->adapter().coalescers()) {
    ticks += system->kernel().ticks(*unit);
  }
  const double per_kcycle = 1000.0 * static_cast<double>(ticks) /
                            static_cast<double>(system->kernel().now());
  std::printf("  %llu coalescer ticks, %.1f per kcycle\n",
              static_cast<unsigned long long>(ticks), per_kcycle);
  EXPECT_LE(per_kcycle, kCoalescerTicksPerKcycleCeiling);
}

/// Ticks per 1000 simulated cycles of the units on the open-loop ring's
/// path, on `scenario` run as CoalescerSleepsWhileFetchesAreInFlight runs.
struct RingUnitTicks {
  double dma = 0.0;
  double base = 0.0;
  double indirect = 0.0;
};

RingUnitTicks run_ring_unit_ticks(const std::string& scenario) {
  std::unique_ptr<sys::System> system =
      sys::ScenarioRegistry::instance().builder(scenario).build();
  const sys::RunResult r = system->run_open_loop(120'000, 20'000'000);
  EXPECT_TRUE(r.correct) << scenario << " " << r.error;
  const sim::Kernel& k = system->kernel();
  std::uint64_t dma = 0;
  for (sys::MasterId m = 0; m < system->num_masters(); ++m) {
    if (system->is_dma(m)) dma += k.ticks(system->dma(m));
  }
  const pack::AxiPackAdapter& adapter = system->adapter();
  const auto per_kcycle = [&](std::uint64_t ticks) {
    return 1000.0 * static_cast<double>(ticks) / static_cast<double>(k.now());
  };
  RingUnitTicks t;
  t.dma = per_kcycle(dma);
  t.base = per_kcycle(k.ticks(adapter.base_converter()));
  t.indirect = per_kcycle(k.ticks(adapter.indirect_read()));
  std::printf("  %-28s per kcycle: DmaEngine %.1f, BaseConverter %.1f, "
              "IndirectReadConverter %.1f\n",
              scenario.c_str(), t.dma, t.base, t.indirect);
  return t;
}

TEST(ModelFloors, RingUnitsSleepWhileResponsesAreInFlight) {
  // Simulator work, not modelled hardware: the DMA engine and the base and
  // indirect read converters sleep while every remaining step waits on a
  // response. At the reference rate the coalesced PACK system reads 11.5 /
  // 57.4 / 42.4 ticks per kcycle (DMA engine / base / indirect read
  // converter) and the BASE system 96.8 / 288.1 (DMA engine / base
  // converter). Each class kept awake while a transfer or burst is in
  // flight (its quiescent() == idle()) reads 260.5 / 249.4 / 197.5 on the
  // PACK system and 524.4 / 521.0 on the BASE system, at identical cycles.
  constexpr double kPackDmaCeiling = 30.0;
  constexpr double kPackBaseCeiling = 100.0;
  constexpr double kPackIndirectCeiling = 80.0;
  constexpr double kBaseDmaCeiling = 150.0;
  constexpr double kBaseBaseCeiling = 400.0;
  const std::string rate = "-p" + std::to_string(kOpenLoopRefRate);
  const RingUnitTicks pack =
      run_ring_unit_ticks("pack-256-dram-x512-g16" + rate);
  EXPECT_LE(pack.dma, kPackDmaCeiling);
  EXPECT_LE(pack.base, kPackBaseCeiling);
  EXPECT_LE(pack.indirect, kPackIndirectCeiling);
  const RingUnitTicks base = run_ring_unit_ticks("base-256-dram" + rate);
  EXPECT_LE(base.dma, kBaseDmaCeiling);
  EXPECT_LE(base.base, kBaseBaseCeiling);
}

/// Exact figures of one closed-loop run on the DRAM channel.
struct ChannelPin {
  std::uint64_t cycles = 0;
  std::uint64_t grants = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
  std::uint64_t merged = 0;
  std::uint64_t unique = 0;
  std::uint64_t mux_words = 0;  ///< PortMux::words_issued()
  bool operator==(const ChannelPin&) const = default;
};

ChannelPin run_channel_pin(const std::string& scenario,
                           const wl::WorkloadConfig& cfg, bool naive) {
  sys::SystemBuilder builder = sys::ScenarioRegistry::instance().builder(
      scenario);
  builder.naive_kernel(naive);
  std::unique_ptr<sys::System> system = builder.build();
  const sys::RunResult r =
      system->run(wl::build_workload(system->store(), cfg));
  EXPECT_TRUE(r.correct) << scenario << " " << r.error;
  ChannelPin p;
  p.cycles = r.cycles;
  p.grants = r.bank_grants;
  p.row_hits = r.row_hits;
  p.row_misses = r.row_misses;
  p.merged = r.coalesce_merged;
  p.unique = r.coalesce_unique;
  p.mux_words = system->adapter().port_mux().words_issued();
  std::printf("  %-24s %-5s %s: cycles %llu, grants %llu, hits %llu, "
              "misses %llu, merged %llu, unique %llu, mux words %llu\n",
              scenario.c_str(), wl::kernel_name(cfg.kernel),
              naive ? "naive" : "gated",
              static_cast<unsigned long long>(p.cycles),
              static_cast<unsigned long long>(p.grants),
              static_cast<unsigned long long>(p.row_hits),
              static_cast<unsigned long long>(p.row_misses),
              static_cast<unsigned long long>(p.merged),
              static_cast<unsigned long long>(p.unique),
              static_cast<unsigned long long>(p.mux_words));
  return p;
}

TEST(ModelFloors, DramChannelTimingIsPinned) {
  // The port mux, the coalescing units and the DRAM model poll only the
  // FIFOs their occupancy masks flag. A mask bug shifts a grant by a
  // cycle in gated and naive runs alike, since both kernels run the same
  // component code, so these figures are pinned exactly. They were read
  // before the masks existed: a small coalesced spmv (stores through the
  // base channel's unit), the same spmv behind 4-entry DRAM windows over
  // 16-deep port FIFOs and an 8-entry pending table (requests wait behind
  // full windows and a full table), and an ismt on the BASE system
  // (stores through the base converter).
  struct Pin {
    const char* scenario;
    wl::KernelKind kernel;
    ChannelPin expect;
  };
  const Pin pins[] = {
      // cycles, grants, row hits, row misses, merged, unique, mux words
      {"pack-256-dram-x512-g16", wl::KernelKind::spmv,
       {5920, 9485, 8977, 508, 5261, 9485, 9485}},
      {"pack-256-dram-w4-q16-x8", wl::KernelKind::spmv,
       {34019, 14231, 10480, 3751, 515, 14231, 14231}},
      {"base-256-dram", wl::KernelKind::ismt,
       {27848, 18912, 16571, 2341, 0, 0, 18912}},
  };
  for (const Pin& pin : pins) {
    wl::WorkloadConfig cfg = planned(pin.kernel, pin.scenario);
    cfg.n = 96;
    cfg.nnz_per_row = 48;
    for (const bool naive : {false, true}) {
      EXPECT_TRUE(run_channel_pin(pin.scenario, cfg, naive) == pin.expect)
          << pin.scenario << (naive ? " naive" : " gated");
    }
  }
}

TEST(ModelFloors, OpenLoopKneeAndTail) {
  // The coalesced PACK system must sustain >= 1.5x the narrow baseline's
  // knee (measured at seed 42: base 80, pack 160, coalesce 160 req/100k
  // cycles -> 2.0x), and its p99 at the reference rate must not exceed
  // plain pack's: at this low index reuse the coalescer has little to
  // merge, so a higher tail means its sticky port-mux arbitration is
  // stalling stream switches.
  constexpr double kOpenLoopKneeFloor = 1.5;
  const OpenLoopCurve base = run_open_loop_curve("base-256-dram");
  const OpenLoopCurve pack = run_open_loop_curve("pack-256-dram");
  const OpenLoopCurve coalesce = run_open_loop_curve("pack-256-dram-x512-g16");
  ASSERT_TRUE(base.knee > 0.0);
  EXPECT_GE(coalesce.knee / base.knee, kOpenLoopKneeFloor);
  ASSERT_TRUE(coalesce.p99_at_ref > 0.0);
  EXPECT_GE(pack.p99_at_ref / coalesce.p99_at_ref, 1.0);
}

}  // namespace
}  // namespace axipack
