// Fault injection, error-response propagation and master-side recovery.
//
// Three layers of coverage:
//   * FaultPlan unit behaviour — deterministic hashing, zero-rate inertness,
//     forced-event overrides;
//   * pinned single faults through full systems — one forced fault per run
//     at each site (link flip/truncate/stall, DRAM read/write, packed-beat
//     corruption), recovered by the master retry path, plus the failure
//     modes (retry disabled, breaker degradation to base mode);
//   * rate-driven end-to-end runs — the pack-256-dram-f{F}-r{R} family at a
//     fault rate high enough that every site fires, across the headline
//     kernels and the non-DRAM backends, with results still bit-correct.
//
// The zero-fault identity test is the subsystem's "do no harm" contract: a
// system built with an all-zero FaultConfig (plan attached, nothing fires)
// must be cycle- and stat-identical to one built without faults() at all.
#include "test_common.hpp"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/fault.hpp"
#include "systems/runner.hpp"
#include "systems/scenario.hpp"
#include "systems/system.hpp"
#include "workloads/workloads.hpp"

namespace axipack {
namespace {

sim::RetryConfig retry4() {
  sim::RetryConfig rc;
  rc.max_attempts = 4;
  rc.timeout_cycles = 50'000;
  rc.backoff = 16;
  return rc;
}

struct Pin {
  sim::FaultSite site;
  std::uint64_t nth;
  int kind;
};

/// Builds `scenario` (optionally patched), pins the requested faults, runs
/// one planned workload and returns the result.
sys::RunResult run_faulted(
    const std::string& scenario, wl::KernelKind kernel,
    const std::function<void(sys::SystemBuilder&)>& patch,
    const std::vector<Pin>& pins = {}) {
  sys::SystemBuilder b = sys::ScenarioRegistry::instance().builder(scenario);
  if (patch) patch(b);
  std::unique_ptr<sys::System> system = b.build();
  EXPECT_TRUE(pins.empty() || system->fault_plan() != nullptr)
      << scenario << ": pins require SystemBuilder::faults";
  if (system->fault_plan()) {
    for (const Pin& p : pins) system->fault_plan()->force(p.site, p.nth, p.kind);
  }
  wl::WorkloadConfig cfg = sys::plan_workload(kernel, b);
  if (wl::kernel_is_indirect(kernel)) {
    cfg.n = 64;
    cfg.nnz_per_row = 16;
  } else {
    cfg.n = 64;
  }
  const wl::WorkloadInstance inst = wl::build_workload(system->store(), cfg);
  return system->run(inst);
}

// --------------------------------------------------------------- plan unit

TEST(FaultPlan, DeterministicAcrossInstances) {
  const sim::FaultConfig cfg = sim::FaultConfig::defaults(500.0);
  sim::FaultPlan a(cfg);
  sim::FaultPlan c(cfg);
  unsigned fired = 0;
  for (int i = 0; i < 20000; ++i) {
    sim::Cycle stall_a = 0, stall_c = 0;
    unsigned bit_a = 0, bit_c = 0;
    const sim::LinkFault fa = a.next_link_r(&stall_a, &bit_a);
    const sim::LinkFault fc = c.next_link_r(&stall_c, &bit_c);
    ASSERT_EQ(static_cast<int>(fa), static_cast<int>(fc)) << "event " << i;
    if (fa == sim::LinkFault::flip || fa == sim::LinkFault::truncate) {
      ASSERT_EQ(bit_a, bit_c) << "event " << i;
    }
    if (fa == sim::LinkFault::stall) {
      ASSERT_EQ(stall_a, stall_c);
    }
    if (fa != sim::LinkFault::none) ++fired;
  }
  EXPECT_GT(fired, 0u) << "rates high enough that the schedule must fire";
  EXPECT_EQ(a.stats().injected, fired);
  EXPECT_EQ(a.stats().injected, c.stats().injected);
}

TEST(FaultPlan, SeedChangesTheSchedule) {
  sim::FaultConfig cfg = sim::FaultConfig::defaults(500.0);
  sim::FaultPlan a(cfg);
  cfg.seed = 99;
  sim::FaultPlan c(cfg);
  bool differs = false;
  for (int i = 0; i < 20000 && !differs; ++i) {
    sim::Cycle stall = 0;
    unsigned bit = 0;
    differs = a.next_link_r(&stall, &bit) != c.next_link_r(&stall, &bit);
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, ZeroRatesNeverFire) {
  sim::FaultPlan plan{sim::FaultConfig{}};
  for (int i = 0; i < 10000; ++i) {
    sim::Cycle stall = 0;
    unsigned bit = 0;
    bool correctable = false;
    EXPECT_TRUE(plan.next_link_r(&stall, &bit) == sim::LinkFault::none);
    EXPECT_FALSE(plan.next_dram_read(&correctable, &bit));
    EXPECT_FALSE(plan.next_dram_write());
    EXPECT_FALSE(plan.next_pack_beat(sim::FaultSite::pack_strided, &bit));
    EXPECT_FALSE(plan.next_pack_beat(sim::FaultSite::pack_indirect, &bit));
  }
  EXPECT_EQ(plan.stats().injected, 0u);
}

TEST(FaultPlan, ForcedEventsOverrideTheSchedule) {
  sim::FaultPlan plan{sim::FaultConfig{}};
  plan.force(sim::FaultSite::link_r, 2, 2);        // truncate the 3rd beat
  plan.force(sim::FaultSite::dram_read, 1, 1);     // correctable
  plan.force(sim::FaultSite::dram_read, 3, 2);     // uncorrectable
  plan.force(sim::FaultSite::dram_write, 0, 1);
  plan.force(sim::FaultSite::pack_indirect, 4, 1);
  sim::Cycle stall = 0;
  unsigned bit = 0;
  bool correctable = false;
  for (int i = 0; i < 5; ++i) {
    const sim::LinkFault f = plan.next_link_r(&stall, &bit);
    EXPECT_TRUE(f == (i == 2 ? sim::LinkFault::truncate : sim::LinkFault::none))
        << "link event " << i;
  }
  for (int i = 0; i < 5; ++i) {
    const bool faulted = plan.next_dram_read(&correctable, &bit);
    EXPECT_EQ(faulted, i == 1 || i == 3) << "dram read event " << i;
    if (faulted) {
      EXPECT_EQ(correctable, i == 1);
    }
  }
  EXPECT_TRUE(plan.next_dram_write());
  EXPECT_FALSE(plan.next_dram_write());
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(plan.next_pack_beat(sim::FaultSite::pack_indirect, &bit), i == 4)
        << "pack event " << i;
    EXPECT_FALSE(plan.next_pack_beat(sim::FaultSite::pack_strided, &bit));
  }
  EXPECT_EQ(plan.stats().injected, 5u);
  EXPECT_EQ(plan.stats().link_truncations, 1u);
  EXPECT_EQ(plan.stats().dram_correctable, 1u);
  EXPECT_EQ(plan.stats().dram_uncorrectable, 1u);
  EXPECT_EQ(plan.stats().dram_write_errors, 1u);
  EXPECT_EQ(plan.stats().pack_corruptions, 1u);
}

// ------------------------------------------------- do-no-harm (zero rates)

TEST(FaultFree, ZeroRatePlanIsCycleIdentical) {
  // Attaching an all-zero-rate plan plus the full retry/watchdog machinery
  // must not move a single cycle or beat on any backend.
  for (const std::string& scenario :
       {std::string("pack-256-17b"), std::string("pack-256-dram"),
        std::string("base-256-dram"), std::string("pack-dram-coalesce")}) {
    const auto kernel = wl::KernelKind::spmv;
    const sys::RunResult plain = run_faulted(scenario, kernel, nullptr);
    const sys::RunResult armed = run_faulted(
        scenario, kernel, [](sys::SystemBuilder& b) {
          b.faults(sim::FaultConfig{});
          b.retry(retry4());
        });
    EXPECT_TRUE(plain.correct) << scenario << ": " << plain.error;
    EXPECT_TRUE(armed.correct) << scenario << ": " << armed.error;
    EXPECT_EQ(plain.cycles, armed.cycles) << scenario;
    EXPECT_EQ(plain.bus.r_beats, armed.bus.r_beats) << scenario;
    EXPECT_EQ(plain.bus.w_beats, armed.bus.w_beats) << scenario;
    EXPECT_EQ(armed.faults_injected, 0u) << scenario;
    EXPECT_EQ(armed.retries, 0u) << scenario;
    EXPECT_EQ(armed.retry_timeouts, 0u) << scenario;
    EXPECT_FALSE(armed.degraded) << scenario;
  }
}

// ---------------------------------------------------- pinned single faults

void arm_zero(sys::SystemBuilder& b) {
  b.faults(sim::FaultConfig{});
  b.retry(retry4());
}

TEST(FaultRecovery, LinkBitFlip) {
  const sys::RunResult r =
      run_faulted("pack-256-17b", wl::KernelKind::gemv, arm_zero,
                  {{sim::FaultSite::link_r, 7, 1}});
  EXPECT_TRUE(r.correct) << r.error;
  EXPECT_EQ(r.faults_injected, 1u);
  EXPECT_GE(r.retries, 1u);
  EXPECT_EQ(r.failed_ops, 0u);
}

TEST(FaultRecovery, LinkTruncation) {
  const sys::RunResult r =
      run_faulted("pack-256-17b", wl::KernelKind::gemv, arm_zero,
                  {{sim::FaultSite::link_r, 12, 2}});
  EXPECT_TRUE(r.correct) << r.error;
  EXPECT_EQ(r.faults_injected, 1u);
  EXPECT_GE(r.retries, 1u);
}

TEST(FaultRecovery, LinkStallIsTransparent) {
  // A short stall delays beats but corrupts nothing: no retry, no error,
  // same data — only the fault counter records it.
  const sys::RunResult r =
      run_faulted("pack-256-17b", wl::KernelKind::gemv, arm_zero,
                  {{sim::FaultSite::link_r, 9, 3}});
  EXPECT_TRUE(r.correct) << r.error;
  EXPECT_EQ(r.faults_injected, 1u);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(r.retry_timeouts, 0u);
}

TEST(FaultRecovery, LongStallTripsTheWatchdog) {
  // A stall longer than the watchdog: the master times the op out, drains
  // the late (stale) beats and replays — still bit-correct.
  const sys::RunResult r = run_faulted(
      "pack-256-17b", wl::KernelKind::gemv,
      [](sys::SystemBuilder& b) {
        sim::FaultConfig fc;
        fc.link_stall_cycles = 600;
        b.faults(fc);
        sim::RetryConfig rc = retry4();
        rc.timeout_cycles = 200;
        b.retry(rc);
      },
      {{sim::FaultSite::link_r, 20, 3}});
  EXPECT_TRUE(r.correct) << r.error;
  EXPECT_EQ(r.faults_injected, 1u);
  // Pinned: the watchdog and backoff read the kernel's clock, so an
  // off-by-one there moves these.
  EXPECT_EQ(r.cycles, 1384u);
  EXPECT_EQ(r.retry_timeouts, 2u);
  EXPECT_EQ(r.retries, 2u);
}

TEST(FaultRecovery, DramUncorrectableRead) {
  const sys::RunResult r =
      run_faulted("pack-256-dram", wl::KernelKind::spmv, arm_zero,
                  {{sim::FaultSite::dram_read, 11, 2}});
  EXPECT_TRUE(r.correct) << r.error;
  EXPECT_EQ(r.faults_injected, 1u);
  EXPECT_EQ(r.faults_uncorrectable, 1u);
  EXPECT_GE(r.retries, 1u);
}

TEST(FaultRecovery, DramCorrectableReadNeedsNoRetry) {
  const sys::RunResult r =
      run_faulted("pack-256-dram", wl::KernelKind::spmv, arm_zero,
                  {{sim::FaultSite::dram_read, 11, 1}});
  EXPECT_TRUE(r.correct) << r.error;
  EXPECT_EQ(r.faults_injected, 1u);
  EXPECT_EQ(r.faults_corrected, 1u);
  EXPECT_EQ(r.faults_uncorrectable, 0u);
  EXPECT_EQ(r.retries, 0u);
}

TEST(FaultRecovery, DramWriteError) {
  // The faulted write is dropped (memory never silently corrupted) and the
  // master rewrites on retry. ismt is the headline kernel whose stores
  // travel the AXI write path (the reduction kernels store through the
  // scalar core, which no memory fault can reach).
  const sys::RunResult r =
      run_faulted("pack-256-dram", wl::KernelKind::ismt, arm_zero,
                  {{sim::FaultSite::dram_write, 0, 1}});
  EXPECT_TRUE(r.correct) << r.error;
  EXPECT_EQ(r.faults_injected, 1u);
  EXPECT_GE(r.retries, 1u);
}

TEST(FaultRecovery, PackedIndirectBeatCorruption) {
  const sys::RunResult r =
      run_faulted("pack-256-17b", wl::KernelKind::spmv, arm_zero,
                  {{sim::FaultSite::pack_indirect, 2, 1}});
  EXPECT_TRUE(r.correct) << r.error;
  EXPECT_EQ(r.faults_injected, 1u);
  EXPECT_GE(r.retries, 1u);
}

TEST(FaultRecovery, PackedStridedBeatCorruption) {
  const sys::RunResult r =
      run_faulted("pack-256-17b", wl::KernelKind::gemv, arm_zero,
                  {{sim::FaultSite::pack_strided, 2, 1}});
  EXPECT_TRUE(r.correct) << r.error;
  EXPECT_EQ(r.faults_injected, 1u);
  EXPECT_GE(r.retries, 1u);
}

TEST(FaultRecovery, CoalescedFillError) {
  // An uncorrectable DRAM fault under the coalescing stage: the errored
  // fill must error every merged waiter (never serve retained corrupt
  // words), and the retry must still converge to correct data.
  const sys::RunResult r =
      run_faulted("pack-dram-coalesce", wl::KernelKind::spmv, arm_zero,
                  {{sim::FaultSite::dram_read, 5, 2}});
  EXPECT_TRUE(r.correct) << r.error;
  EXPECT_EQ(r.faults_uncorrectable, 1u);
  EXPECT_GE(r.retries, 1u);
  EXPECT_GT(r.coalesce_merged, 0u);
}

TEST(FaultRecovery, MultipleFaultSitesInOneRun) {
  const sys::RunResult r =
      run_faulted("pack-256-dram", wl::KernelKind::spmv, arm_zero,
                  {{sim::FaultSite::link_r, 5, 1},
                   {sim::FaultSite::link_r, 40, 2},
                   {sim::FaultSite::dram_read, 9, 2},
                   {sim::FaultSite::pack_indirect, 3, 1}});
  EXPECT_TRUE(r.correct) << r.error;
  EXPECT_EQ(r.faults_injected, 4u);
  EXPECT_GE(r.retries, 3u);
  EXPECT_EQ(r.failed_ops, 0u);
}

// --------------------------------------------------------- failure modes

TEST(FaultFailure, RetryDisabledFailsTheRun) {
  // faults() without retry(): error handling off — the first uncorrectable
  // fault fails the op and the run reports unrecoverable.
  const sys::RunResult r = run_faulted(
      "pack-256-dram", wl::KernelKind::spmv,
      [](sys::SystemBuilder& b) { b.faults(sim::FaultConfig{}); },
      {{sim::FaultSite::dram_read, 11, 2}});
  EXPECT_FALSE(r.correct);
  EXPECT_GE(r.failed_ops, 1u);
  EXPECT_EQ(r.error, "unrecoverable memory fault");
}

TEST(FaultFailure, BreakerDegradesToBaseMode) {
  // breaker_threshold=1: the first failed pack-path attempt trips the
  // breaker; the master re-plans the remaining pack ops in base (unpacked)
  // mode and the run completes correct but degraded.
  const sys::RunResult r = run_faulted(
      "pack-256-17b", wl::KernelKind::spmv,
      [](sys::SystemBuilder& b) {
        b.faults(sim::FaultConfig{});
        sim::RetryConfig rc = retry4();
        rc.breaker_threshold = 1;
        b.retry(rc);
      },
      {{sim::FaultSite::pack_indirect, 2, 1}});
  EXPECT_TRUE(r.correct) << r.error;
  EXPECT_TRUE(r.degraded);
  EXPECT_GE(r.retries, 1u);
  EXPECT_EQ(r.failed_ops, 0u);
}

// -------------------------------------------------- rate-driven end-to-end

TEST(FaultEndToEnd, HeadlineKernelsRecoverAtHighFaultRates) {
  // The parametric scenario family, at a rate high enough that faults are
  // all but guaranteed in a small run (tens of expected events against
  // thousands of DRAM grants) while a 4-attempt budget still recovers
  // every op; each kernel must return data identical to a fault-free run
  // (the workload check verifies against golden results).
  for (const auto kernel : {wl::KernelKind::spmv, wl::KernelKind::prank,
                            wl::KernelKind::sssp, wl::KernelKind::gemv}) {
    const sys::RunResult r =
        run_faulted("pack-256-dram-f50-r4", kernel, nullptr);
    EXPECT_TRUE(r.correct) << wl::kernel_name(kernel) << ": " << r.error;
    EXPECT_GT(r.faults_injected, 0u) << wl::kernel_name(kernel);
    EXPECT_EQ(r.failed_ops, 0u) << wl::kernel_name(kernel);
  }
}

TEST(FaultEndToEnd, RegisteredFaultScenarioRuns) {
  const sys::RunResult r =
      run_faulted("pack-dram-faults", wl::KernelKind::spmv, nullptr);
  EXPECT_TRUE(r.correct) << r.error;
  EXPECT_EQ(r.failed_ops, 0u);
}

TEST(FaultEndToEnd, NonDramMemoriesRecover) {
  // banked and ideal memories have no DRAM fault site — drive the link and
  // pack sites rate-high on those fabrics.
  for (const std::string& scenario :
       {std::string("pack-256-17b"), std::string("pack-256-idealmem")}) {
    const sys::RunResult r = run_faulted(
        scenario, wl::KernelKind::spmv, [](sys::SystemBuilder& b) {
          sim::FaultConfig fc;
          fc.link_flip_rate = 4e-3;
          fc.link_truncate_rate = 1e-3;
          fc.link_stall_rate = 2e-3;
          fc.pack_corrupt_rate = 2e-3;
          b.faults(fc);
          b.retry(retry4());
        });
    EXPECT_TRUE(r.correct) << scenario << ": " << r.error;
    EXPECT_GT(r.faults_injected, 0u) << scenario;
    EXPECT_EQ(r.failed_ops, 0u) << scenario;
  }
}

// ----------------------------------------------------------- observability

TEST(FaultObservability, RunResultJsonCarriesFaultFields) {
  const sys::RunResult r =
      run_faulted("pack-256-dram", wl::KernelKind::spmv, arm_zero,
                  {{sim::FaultSite::dram_read, 3, 2}});
  const std::string json = r.to_json();
  for (const char* key :
       {"\"faults_injected\"", "\"faults_corrected\"",
        "\"faults_uncorrectable\"", "\"retries\"", "\"retry_timeouts\"",
        "\"failed_ops\"", "\"degraded\""}) {
    EXPECT_TRUE(json.find(key) != std::string::npos) << key;
  }
  EXPECT_TRUE(json.find("\"faults_injected\": 1") != std::string::npos)
      << json;
}

}  // namespace
}  // namespace axipack
