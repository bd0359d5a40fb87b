// Gated-vs-naive kernel equivalence: the activity-gated kernel (sleeping
// components, wake scheduling, idle fast-forward, lazy pop accounting) must
// report bit-identical results to the force-naive kernel (every component
// ticked every cycle) for every registered scenario and for the stream-
// master recipes — cycle counts, utilizations, bus/bank statistics,
// everything a figure could be built from.
#include "test_common.hpp"

#include <cstdint>
#include <string>
#include <vector>

#include "axi/burst.hpp"
#include "dma/descriptor.hpp"
#include "mem/dram_timing.hpp"
#include "systems/runner.hpp"
#include "systems/scenario.hpp"
#include "systems/sensitivity.hpp"
#include "systems/system.hpp"
#include "workloads/workloads.hpp"

namespace axipack {
namespace {

/// Everything a figure could read out of one run.
struct Snapshot {
  std::uint64_t cycles = 0;
  double r_util = 0.0;
  double r_util_no_idx = 0.0;
  double w_util = 0.0;
  bool correct = false;
  std::uint64_t protocol_violations = 0;
  std::uint64_t bank_grants = 0;
  std::uint64_t bank_conflict_losses = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
  std::uint64_t refresh_stall_cycles = 0;
  std::uint64_t row_batch_defer_cycles = 0;
  std::uint64_t row_starved_grants = 0;
  std::uint64_t r_beats = 0;
  std::uint64_t r_payload_bytes = 0;
  std::uint64_t w_beats = 0;
  std::uint64_t coalesce_merged = 0;
  std::uint64_t coalesce_unique = 0;
  std::uint64_t coalesce_peak_pending = 0;
  std::uint64_t coalesce_row_groups = 0;
  std::uint64_t indirect_idx_words = 0;
  std::uint64_t indirect_elem_words = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t faults_corrected = 0;
  std::uint64_t retries = 0;
  std::uint64_t retry_timeouts = 0;
  std::uint64_t failed_ops = 0;
  bool degraded = false;
  std::uint64_t dma_bytes_moved = 0;
  std::uint64_t dma_busy_cycles = 0;

  static Snapshot of(const sys::RunResult& r) {
    Snapshot s;
    s.cycles = r.cycles;
    s.r_util = r.r_util;
    s.r_util_no_idx = r.r_util_no_idx;
    s.w_util = r.w_util;
    s.correct = r.correct;
    s.protocol_violations = r.protocol_violations;
    s.bank_grants = r.bank_grants;
    s.bank_conflict_losses = r.bank_conflict_losses;
    s.row_hits = r.row_hits;
    s.row_misses = r.row_misses;
    s.refresh_stall_cycles = r.refresh_stall_cycles;
    s.row_batch_defer_cycles = r.row_batch_defer_cycles;
    s.row_starved_grants = r.row_starved_grants;
    s.r_beats = r.bus.r_beats;
    s.r_payload_bytes = r.bus.r_payload_bytes;
    s.w_beats = r.bus.w_beats;
    s.coalesce_merged = r.coalesce_merged;
    s.coalesce_unique = r.coalesce_unique;
    s.coalesce_peak_pending = r.coalesce_peak_pending;
    s.coalesce_row_groups = r.coalesce_row_groups;
    s.indirect_idx_words = r.indirect_idx_words;
    s.indirect_elem_words = r.indirect_elem_words;
    s.faults_injected = r.faults_injected;
    s.faults_corrected = r.faults_corrected;
    s.retries = r.retries;
    s.retry_timeouts = r.retry_timeouts;
    s.failed_ops = r.failed_ops;
    s.degraded = r.degraded;
    return s;
  }
};

void expect_identical(const Snapshot& naive, const Snapshot& gated,
                      const std::string& what) {
  EXPECT_EQ(naive.cycles, gated.cycles) << what;
  EXPECT_EQ(naive.r_util, gated.r_util) << what;
  EXPECT_EQ(naive.r_util_no_idx, gated.r_util_no_idx) << what;
  EXPECT_EQ(naive.w_util, gated.w_util) << what;
  EXPECT_EQ(naive.correct, gated.correct) << what;
  EXPECT_EQ(naive.protocol_violations, gated.protocol_violations) << what;
  EXPECT_EQ(naive.bank_grants, gated.bank_grants) << what;
  EXPECT_EQ(naive.bank_conflict_losses, gated.bank_conflict_losses) << what;
  EXPECT_EQ(naive.row_hits, gated.row_hits) << what;
  EXPECT_EQ(naive.row_misses, gated.row_misses) << what;
  EXPECT_EQ(naive.refresh_stall_cycles, gated.refresh_stall_cycles) << what;
  EXPECT_EQ(naive.row_batch_defer_cycles, gated.row_batch_defer_cycles)
      << what;
  EXPECT_EQ(naive.row_starved_grants, gated.row_starved_grants) << what;
  EXPECT_EQ(naive.r_beats, gated.r_beats) << what;
  EXPECT_EQ(naive.r_payload_bytes, gated.r_payload_bytes) << what;
  EXPECT_EQ(naive.w_beats, gated.w_beats) << what;
  EXPECT_EQ(naive.coalesce_merged, gated.coalesce_merged) << what;
  EXPECT_EQ(naive.coalesce_unique, gated.coalesce_unique) << what;
  EXPECT_EQ(naive.coalesce_peak_pending, gated.coalesce_peak_pending)
      << what;
  EXPECT_EQ(naive.coalesce_row_groups, gated.coalesce_row_groups) << what;
  EXPECT_EQ(naive.indirect_idx_words, gated.indirect_idx_words) << what;
  EXPECT_EQ(naive.indirect_elem_words, gated.indirect_elem_words) << what;
  EXPECT_EQ(naive.faults_injected, gated.faults_injected) << what;
  EXPECT_EQ(naive.faults_corrected, gated.faults_corrected) << what;
  EXPECT_EQ(naive.retries, gated.retries) << what;
  EXPECT_EQ(naive.retry_timeouts, gated.retry_timeouts) << what;
  EXPECT_EQ(naive.failed_ops, gated.failed_ops) << what;
  EXPECT_EQ(naive.degraded, gated.degraded) << what;
  EXPECT_EQ(naive.dma_bytes_moved, gated.dma_bytes_moved) << what;
  EXPECT_EQ(naive.dma_busy_cycles, gated.dma_busy_cycles) << what;
}

/// Drives one scenario to completion under the requested kernel mode:
/// processor masters run a small gemv, DMA masters move a strided stream.
Snapshot drive_scenario(const std::string& name, bool naive) {
  sys::SystemBuilder builder =
      sys::ScenarioRegistry::instance().builder(name);
  builder.naive_kernel(naive);
  std::unique_ptr<sys::System> system = builder.build();

  // Seed each DMA master with a deterministic strided->contiguous move.
  std::vector<std::uint64_t> dma_dsts;
  constexpr std::uint64_t kDmaElems = 192;
  for (sys::MasterId id = 0; id < system->num_masters(); ++id) {
    if (!system->is_dma(id)) continue;
    mem::BackingStore& store = system->store();
    const std::int64_t stride = 36 + 8 * static_cast<std::int64_t>(id);
    const std::uint64_t src =
        store.alloc(kDmaElems * static_cast<std::uint64_t>(stride) + 64, 64);
    const std::uint64_t dst = store.alloc(kDmaElems * 4, 64);
    for (std::uint64_t i = 0; i < kDmaElems; ++i) {
      store.write_u32(src + i * static_cast<std::uint64_t>(stride),
                      (id << 20) + static_cast<std::uint32_t>(i));
    }
    dma::Descriptor d;
    d.src = dma::Pattern::strided(src, stride);
    d.dst = dma::Pattern::contiguous(dst);
    d.elem_bytes = 4;
    d.num_elems = kDmaElems;
    system->dma(id).push(d);
    dma_dsts.push_back(dst);
  }

  Snapshot snap;
  bool has_proc = false;
  for (sys::MasterId id = 0; id < system->num_masters(); ++id) {
    has_proc = has_proc || system->is_processor(id);
  }
  if (has_proc) {
    auto cfg = sys::plan_workload(wl::KernelKind::gemv, name);
    cfg.n = 96;  // small but multi-op: issue, chaining, loads and stores
    const wl::WorkloadInstance instance =
        wl::build_workload(system->store(), cfg);
    snap = Snapshot::of(system->run(instance));
  } else {
    const sim::RunStatus status = system->run_until_drained(5'000'000);
    EXPECT_TRUE(status.completed) << name;
    snap.cycles = status.cycles;
    snap.correct = true;
  }
  // Fold in DMA outcomes (and verify the moved data).
  for (sys::MasterId id = 0, d = 0; id < system->num_masters(); ++id) {
    if (!system->is_dma(id)) continue;
    snap.dma_bytes_moved += system->dma(id).stats().bytes_moved;
    snap.dma_busy_cycles += system->dma(id).stats().busy_cycles;
    for (std::uint64_t i = 0; i < kDmaElems; ++i) {
      EXPECT_EQ(system->store().read_u32(dma_dsts[d] + 4 * i),
                (id << 20) + i)
          << name << " dma " << id << " elem " << i;
    }
    ++d;
  }
  return snap;
}

TEST(KernelEquivalence, EveryRegisteredScenario) {
  for (const std::string& name : sys::ScenarioRegistry::instance().names()) {
    const Snapshot naive = drive_scenario(name, /*naive=*/true);
    const Snapshot gated = drive_scenario(name, /*naive=*/false);
    expect_identical(naive, gated, name);
  }
}

TEST(KernelEquivalence, ParametricFamilyMembers) {
  // Parsed (not pre-registered) family points, covering the narrow buses
  // and the DRAM backend (base-dram/pack-dram themselves are registered and
  // already covered by EveryRegisteredScenario).
  for (const std::string name :
       {"base-64-9b", "pack-64-9b", "pack-128-31b", "ideal-128",
        "pack-64-dram", "base-128-dram",
        // Row-batching scheduler family: head-only, small window with a
        // tight cap, full window with the veto disabled, and an explicit
        // memory-FIFO depth — the gated kernel must stay cycle-identical
        // at every sched-window setting.
        "pack-256-dram-w1", "pack-64-dram-w8-c16", "pack-128-dram-w32-c0",
        "base-64-dram-w16-q48",
        // Index-coalescer family: small and large pending tables, head-only
        // and deep grouping windows, and a knob mix on a narrow bus — the
        // gated kernel must stay cycle-identical with the coalescer's
        // merge/fan-out/reorder machinery in the loop (and the coalescer
        // stats themselves must be bit-identical).
        "pack-256-dram-x16", "pack-64-dram-x8-g4",
        "pack-128-dram-x32-g16-w8",
        // Multi-channel family: the channel router's eager response
        // reordering holds internal state the gating sleep logic must
        // account for, so cycle identity here guards the whole
        // fan-out/reassembly machine, alone and composed with the other
        // knobs (scheduler window, coalescer, extra masters).
        "pack-256-dram-ch2", "base-128-dram-ch2", "pack-64-dram-ch4-w8",
        "pack-256-dram-ch8-x16", "pack-256-dram-ch4-m6"}) {
    const Snapshot naive = drive_scenario(name, /*naive=*/true);
    const Snapshot gated = drive_scenario(name, /*naive=*/false);
    expect_identical(naive, gated, name);
  }
}

TEST(KernelEquivalence, CoalescedIndirectKernels) {
  // The parametric sweep above drives gemv, which never enters the
  // indirect path — run real gather kernels through coalesced scenarios so
  // the pending table, fan-out and grouping window are actually in the
  // loop, and require the coalescer to have merged something (non-vacuous).
  for (const std::string& scenario :
       {std::string("pack-dram-coalesce"), std::string("pack-64-dram-x8-g4")}) {
    for (const auto kernel : {wl::KernelKind::spmv, wl::KernelKind::sssp}) {
      auto cfg = sys::plan_workload(kernel, scenario);
      cfg.n = 96;
      cfg.nnz_per_row = 24;
      sys::WorkloadJob naive_job;
      naive_job.scenario = scenario;
      naive_job.cfg = cfg;
      naive_job.naive_kernel = true;
      sys::WorkloadJob gated_job = naive_job;
      gated_job.naive_kernel = false;
      const auto results =
          sys::run_workloads({naive_job, gated_job}, /*threads=*/1);
      const Snapshot naive = Snapshot::of(results[0]);
      const Snapshot gated = Snapshot::of(results[1]);
      expect_identical(naive, gated,
                       scenario + " " + wl::kernel_name(kernel));
      EXPECT_GT(gated.coalesce_unique, 0u) << scenario;
      EXPECT_GT(gated.coalesce_merged, 0u) << scenario;
    }
  }
}

TEST(KernelEquivalence, FaultInjectionStaysCycleIdentical) {
  // Fault decisions are a pure hash of per-site event ordinals, so the
  // gated and naive kernels (identical traffic) must see identical faults,
  // identical retries and identical cycles. Rates high enough that the run
  // is non-vacuous: faults actually fire and are recovered.
  for (const std::string& scenario :
       {std::string("pack-256-dram-f50-r4"),
        std::string("pack-64-dram-f50-r4"),
        // Faults on a multi-channel fabric: per-link injection plus the
        // router's truncation-poison path must stay deterministic.
        std::string("pack-256-dram-ch4-f50-r4")}) {
    for (const auto kernel : {wl::KernelKind::spmv, wl::KernelKind::gemv}) {
      auto cfg = sys::plan_workload(kernel, scenario);
      cfg.n = 64;
      if (wl::kernel_is_indirect(kernel)) cfg.nnz_per_row = 16;
      sys::WorkloadJob naive_job;
      naive_job.scenario = scenario;
      naive_job.cfg = cfg;
      naive_job.naive_kernel = true;
      sys::WorkloadJob gated_job = naive_job;
      gated_job.naive_kernel = false;
      const auto results =
          sys::run_workloads({naive_job, gated_job}, /*threads=*/1);
      const Snapshot naive = Snapshot::of(results[0]);
      const Snapshot gated = Snapshot::of(results[1]);
      expect_identical(naive, gated,
                       scenario + " " + wl::kernel_name(kernel));
      EXPECT_GT(gated.faults_injected, 0u)
          << scenario << " " << wl::kernel_name(kernel);
      EXPECT_TRUE(gated.correct) << scenario << " " << results[1].error;
    }
  }
}

TEST(KernelEquivalence, RefreshEpochMultiSkipStress) {
  // Tiny refresh interval: epochs are ~18x more frequent than the default,
  // so every idle fast-forward in the gated run (converter stalls, drain
  // tails) spans several tREFI boundaries, and the DRAM model's lazy
  // multi-epoch refresh catch-up plus bulk stall settlement must stay bit-
  // and cycle-identical to per-cycle naive ticking. (The timing set keeps
  // the ctor liveness rule tRFC + tRP + tRCD < tREFI.)
  mem::DramTimingConfig t;
  t.tREFI = 256;
  t.tRFC = 48;
  for (const auto kernel : {wl::KernelKind::gemv, wl::KernelKind::spmv}) {
    for (const std::string& scenario :
         {std::string("pack-dram"), std::string("base-dram")}) {
      auto cfg = sys::plan_workload(kernel, scenario);
      cfg.n = 64;
      if (wl::kernel_is_indirect(kernel)) cfg.nnz_per_row = 16;
      sys::WorkloadJob naive_job;
      naive_job.scenario = scenario;
      naive_job.cfg = cfg;
      naive_job.naive_kernel = true;
      naive_job.builder_patch = [&t](sys::SystemBuilder& b) {
        b.dram_timing(t);
      };
      sys::WorkloadJob gated_job = naive_job;
      gated_job.naive_kernel = false;
      const auto results =
          sys::run_workloads({naive_job, gated_job}, /*threads=*/1);
      const Snapshot naive = Snapshot::of(results[0]);
      const Snapshot gated = Snapshot::of(results[1]);
      expect_identical(naive, gated, scenario + " small-tREFI " +
                                         wl::kernel_name(kernel));
      EXPECT_TRUE(gated.correct) << scenario << " " << results[1].error;
      // Non-vacuous: the run must actually have crossed many epochs.
      EXPECT_GT(gated.refresh_stall_cycles, 0u) << scenario;
      EXPECT_GT(gated.cycles, 4u * t.tREFI) << scenario;
    }
  }
}

TEST(KernelEquivalence, DramRowStatsAreExercised) {
  // Guard against the dram equivalence checks passing vacuously: the gated
  // run of a dram scenario must actually accumulate row-buffer activity.
  const Snapshot gated = drive_scenario("pack-dram", /*naive=*/false);
  EXPECT_GT(gated.row_hits + gated.row_misses, 0u);
  EXPECT_EQ(gated.row_hits + gated.row_misses, gated.bank_grants);
}

TEST(KernelEquivalence, EveryHeadlineWorkloadKind) {
  // All six paper kernels on the PACK SoC (the richest converter mix).
  const wl::KernelKind kernels[] = {wl::KernelKind::ismt, wl::KernelKind::gemv,
                                    wl::KernelKind::trmv, wl::KernelKind::spmv,
                                    wl::KernelKind::prank,
                                    wl::KernelKind::sssp};
  for (const auto kernel : kernels) {
    auto cfg = sys::plan_workload(kernel, sys::scenario_name(sys::SystemKind::pack));
    if (wl::kernel_is_indirect(kernel)) {
      cfg.n = 128;
      cfg.nnz_per_row = 48;
    } else {
      cfg.n = 96;
    }
    const std::string scenario = sys::scenario_name(sys::SystemKind::pack);
    sys::WorkloadJob naive_job;
    naive_job.scenario = scenario;
    naive_job.cfg = cfg;
    naive_job.naive_kernel = true;
    sys::WorkloadJob gated_job = naive_job;
    gated_job.naive_kernel = false;
    const auto results =
        sys::run_workloads({naive_job, gated_job}, /*threads=*/1);
    expect_identical(Snapshot::of(results[0]), Snapshot::of(results[1]),
                     std::string(wl::kernel_name(kernel)));
  }
}

TEST(KernelEquivalence, OpenLoopTrafficStaysCycleIdentical) {
  // The open-loop subsystem sleeps between arrivals via wake_hint, so it is
  // exactly the kind of component that could desynchronize the gated
  // kernel. Latency percentiles, rates and queue peaks — not just cycle
  // counts — must match the naive kernel on every arrival shape: smooth
  // Poisson, bursty, multi-channel, coalesced (one and two channels) and
  // fault-injected.
  for (const std::string& name :
       {std::string("base-256-dram-p80"), std::string("pack-256-dram-p160"),
        std::string("pack-256-dram-p80-b16"),
        std::string("pack-256-dram-x512-g16-p80"),
        std::string("pack-256-dram-x512-g16-ch2-p160"),
        std::string("pack-256-dram-f50-r4-p80")}) {
    sys::RunResult res[2];
    for (const bool naive : {false, true}) {
      auto b = sys::ScenarioRegistry::instance().builder(name);
      b.naive_kernel(naive);
      res[naive] = b.build()->run_open_loop(60'000, 10'000'000);
      ASSERT_TRUE(res[naive].correct) << name << ": " << res[naive].error;
    }
    EXPECT_EQ(res[0].cycles, res[1].cycles) << name;
    EXPECT_EQ(res[0].latency.count(), res[1].latency.count()) << name;
    EXPECT_EQ(res[0].latency.percentile(50), res[1].latency.percentile(50))
        << name;
    EXPECT_EQ(res[0].latency.percentile(99), res[1].latency.percentile(99))
        << name;
    EXPECT_EQ(res[0].latency.max(), res[1].latency.max()) << name;
    EXPECT_EQ(res[0].offered_rate, res[1].offered_rate) << name;
    EXPECT_EQ(res[0].achieved_rate, res[1].achieved_rate) << name;
    EXPECT_EQ(res[0].queue_peak, res[1].queue_peak) << name;
    EXPECT_EQ(res[0].retries, res[1].retries) << name;
    EXPECT_EQ(res[0].faults_injected, res[1].faults_injected) << name;
  }
}

TEST(KernelEquivalence, SensitivityHarness) {
  for (const bool indirect : {false, true}) {
    sys::SensitivityConfig cfg;
    cfg.indirect = indirect;
    cfg.stride_elems = indirect ? 1 : 7;
    cfg.num_bursts = 2;
    cfg.burst_beats = 64;
    sys::SensitivityConfig naive_cfg = cfg;
    naive_cfg.naive_kernel = true;
    const Snapshot naive =
        Snapshot::of(sys::measure_read_utilization(naive_cfg));
    const Snapshot gated = Snapshot::of(sys::measure_read_utilization(cfg));
    expect_identical(naive, gated,
                     std::string("indirect=") + (indirect ? "1" : "0"));
    EXPECT_GT(gated.r_util, 0.0);
  }

  // Stream masters through the channel routers: 2 channels x 4 masters
  // under two DRAM mappings, compared per channel.
  constexpr std::uint64_t kBytesPerMaster = 16 * 1024;
  for (const auto mapping :
       {mem::DramMapping::permuted, mem::DramMapping::row_interleaved}) {
    const std::string what =
        std::string("channel streams ") + mem::dram_mapping_name(mapping);
    const sys::RunResult naive = sys::measure_channel_streams(
        2, 4, mapping, kBytesPerMaster, /*naive_kernel=*/true);
    const sys::RunResult gated =
        sys::measure_channel_streams(2, 4, mapping, kBytesPerMaster);
    expect_identical(Snapshot::of(naive), Snapshot::of(gated), what);
    ASSERT_EQ(naive.per_channel.size(), 2u) << what;
    ASSERT_EQ(gated.per_channel.size(), 2u) << what;
    std::uint64_t payload = 0;
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(naive.per_channel[c].r_util, gated.per_channel[c].r_util)
          << what << " ch" << c;
      EXPECT_EQ(naive.per_channel[c].row_hits, gated.per_channel[c].row_hits)
          << what << " ch" << c;
      EXPECT_EQ(naive.per_channel[c].row_misses,
                gated.per_channel[c].row_misses)
          << what << " ch" << c;
      EXPECT_GT(gated.per_channel[c].r_util, 0.0) << what << " ch" << c;
      payload += gated.per_channel[c].bus.r_payload_bytes;
    }
    // Contiguous data streams: every requested byte is useful payload.
    EXPECT_EQ(payload, 4 * kBytesPerMaster) << what;
  }
}

TEST(KernelEquivalence, StreamRunReportsTimeout) {
  // A stream that cannot finish inside max_cycles must fail the run, not
  // report a partial-run utilization.
  sys::SystemBuilder builder;
  builder.monitor(false);
  builder.attach_stream("req");
  auto system = builder.build();
  std::vector<std::vector<axi::AxiAr>> streams(1);
  streams[0] = axi::split_contiguous(0x8000'0000ull, 64 * 1024,
                                     system->bus_bytes(), axi::Traffic::data);
  const sys::RunResult r = system->run_streams(std::move(streams), 10);
  EXPECT_FALSE(r.correct);
  EXPECT_EQ(r.error, "timeout");
  EXPECT_EQ(r.cycles, 10u);
}

}  // namespace
}  // namespace axipack
