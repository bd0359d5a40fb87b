// End-to-end integration: every workload runs on every system, results are
// verified against golden references, and the paper's qualitative ordering
// holds (PACK faster than BASE, close to IDEAL).
#include "test_common.hpp"

#include <memory>
#include <string>
#include <tuple>

#include "mem/dram_memory.hpp"
#include "pack/adapter.hpp"
#include "systems/runner.hpp"
#include "systems/scenario.hpp"
#include "systems/sweep.hpp"
#include "systems/system.hpp"

namespace axipack {
namespace {

using sys::RunResult;
using sys::run_default;
using sys::SystemKind;
using wl::KernelKind;

/// Small problem sizes keep the full cross-product fast while still
/// exercising every code path.
wl::WorkloadConfig small_config(KernelKind kernel, SystemKind system) {
  wl::WorkloadConfig cfg = sys::plan_workload(kernel, sys::scenario_name(system));
  cfg.n = wl::kernel_is_indirect(kernel) ? 48 : 32;
  cfg.nnz_per_row = 24;
  return cfg;
}

class AllWorkloadsAllSystems
    : public ::testing::TestWithParam<std::tuple<KernelKind, SystemKind>> {};

TEST_P(AllWorkloadsAllSystems, ProducesCorrectResults) {
  const auto [kernel, system] = GetParam();
  const auto result =
      sys::run_workload(sys::scenario_name(system), small_config(kernel, system));
  EXPECT_TRUE(result.correct) << result.error;
  EXPECT_GT(result.cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AllWorkloadsAllSystems,
    ::testing::Combine(::testing::Values(KernelKind::ismt, KernelKind::gemv,
                                         KernelKind::trmv, KernelKind::spmv,
                                         KernelKind::prank, KernelKind::sssp),
                       ::testing::Values(SystemKind::base, SystemKind::pack,
                                         SystemKind::ideal)),
    [](const auto& info) {
      return std::string(wl::kernel_name(std::get<0>(info.param))) + "_" +
             sys::system_name(std::get<1>(info.param));
    });

class DataflowsWork
    : public ::testing::TestWithParam<std::tuple<KernelKind, wl::Dataflow,
                                                 SystemKind>> {};

TEST_P(DataflowsWork, BothDataflowsCorrect) {
  const auto [kernel, dataflow, system] = GetParam();
  auto cfg = small_config(kernel, system);
  cfg.dataflow = dataflow;
  const auto result =
      sys::run_workload(sys::scenario_name(system), cfg);
  EXPECT_TRUE(result.correct) << result.error;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, DataflowsWork,
    ::testing::Combine(::testing::Values(KernelKind::gemv, KernelKind::trmv),
                       ::testing::Values(wl::Dataflow::rowwise,
                                         wl::Dataflow::colwise),
                       ::testing::Values(SystemKind::base, SystemKind::pack,
                                         SystemKind::ideal)));

TEST(BusWidths, AllWidthsCorrect) {
  for (const unsigned bus : {64u, 128u, 256u}) {
    for (const auto kind : {SystemKind::base, SystemKind::pack}) {
      auto cfg = small_config(KernelKind::ismt, kind);
      const auto result =
          sys::run_workload(sys::scenario_name(kind, bus), cfg);
      EXPECT_TRUE(result.correct)
          << "bus " << bus << " " << sys::system_name(kind) << ": "
          << result.error;
    }
  }
}

TEST(BankCounts, AllCountsCorrect) {
  for (const unsigned banks : {8u, 11u, 16u, 17u, 31u, 32u}) {
    auto cfg = small_config(KernelKind::spmv, SystemKind::pack);
    const auto result = sys::run_workload(
        sys::scenario_name(SystemKind::pack, 256, banks), cfg);
    EXPECT_TRUE(result.correct) << "banks " << banks << ": " << result.error;
  }
}

TEST(Ordering, PackBeatsBaseOnStrided) {
  const auto base = run_default(KernelKind::ismt, SystemKind::base);
  const auto pack = run_default(KernelKind::ismt, SystemKind::pack);
  ASSERT_TRUE(base.correct) << base.error;
  ASSERT_TRUE(pack.correct) << pack.error;
  EXPECT_GT(static_cast<double>(base.cycles) / pack.cycles, 2.0);
}

TEST(Ordering, PackNearIdealOnGemv) {
  const auto pack = run_default(KernelKind::gemv, SystemKind::pack);
  const auto ideal = run_default(KernelKind::gemv, SystemKind::ideal);
  ASSERT_TRUE(pack.correct && ideal.correct);
  // PACK achieves ~97% of IDEAL on average in the paper; allow slack.
  EXPECT_LT(static_cast<double>(pack.cycles) / ideal.cycles, 1.35);
}

TEST(Ordering, IndexTrafficOnlyOnBaseAndIdeal) {
  auto cfg = small_config(KernelKind::spmv, SystemKind::base);
  const auto base =
      sys::run_workload(sys::scenario_name(SystemKind::base), cfg);
  EXPECT_GT(base.bus.r_index_bytes, 0u);

  cfg = small_config(KernelKind::spmv, SystemKind::pack);
  const auto pack =
      sys::run_workload(sys::scenario_name(SystemKind::pack), cfg);
  EXPECT_EQ(pack.bus.r_index_bytes, 0u);
}

TEST(Determinism, RepeatRunsIdentical) {
  const auto a = run_default(KernelKind::spmv, SystemKind::pack);
  const auto b = run_default(KernelKind::spmv, SystemKind::pack);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.bus.r_payload_bytes, b.bus.r_payload_bytes);
}

TEST(Utilization, BoundedByOne) {
  for (const auto kind :
       {SystemKind::base, SystemKind::pack, SystemKind::ideal}) {
    const auto r = run_default(KernelKind::gemv, kind);
    EXPECT_GE(r.r_util, 0.0);
    EXPECT_LE(r.r_util, 1.0);
    EXPECT_LE(r.r_util_no_idx, r.r_util + 1e-12);
  }
}

/// The adapter configuration `scenario`'s builder derives for channel 0.
pack::AdapterConfig built_adapter_config(const std::string& scenario) {
  const std::unique_ptr<sys::System> system =
      sys::ScenarioRegistry::instance().builder(scenario).build();
  return system->adapter().config();
}

TEST(AdapterSizing, DramQueuesCoverTheMemoryLoop) {
  // Default DRAM timing: a row miss is 30 cycles, and the coalesced port
  // mux may hold a lane for its 32-cycle sticky patience on top.
  const pack::AdapterConfig coalesced =
      built_adapter_config("pack-256-dram-x512-g16");
  EXPECT_EQ(coalesced.queue_depth, 62u);
  EXPECT_EQ(coalesced.idx_window_lines, 62u);
  const pack::AdapterConfig pack = built_adapter_config("pack-256-dram");
  EXPECT_EQ(pack.queue_depth, 30u);
  EXPECT_EQ(pack.idx_window_lines, 30u);
  EXPECT_EQ(built_adapter_config("base-256-dram").queue_depth, 30u);
  // SRAM systems keep the builder's depth and the adapter's window.
  const pack::AdapterConfig sram = built_adapter_config("pack-256-17b");
  EXPECT_EQ(sram.queue_depth, 8u);
  EXPECT_EQ(sram.idx_window_lines, 4u);
}

TEST(AdapterSizing, ExplicitAdapterConfigIsKept) {
  pack::AdapterConfig cfg;
  cfg.queue_depth = 5;
  cfg.idx_window_lines = 3;
  const std::unique_ptr<sys::System> system =
      sys::ScenarioRegistry::instance()
          .builder("pack-256-dram-x512-g16")
          .adapter(cfg)
          .build();
  const pack::AdapterConfig& built = system->adapter().config();
  EXPECT_EQ(built.queue_depth, 5u);
  EXPECT_EQ(built.idx_window_lines, 3u);
  EXPECT_TRUE(built.coalesce_enable);
}

TEST(AdapterSizing, EveryChannelGetsTheSameLoop) {
  const std::unique_ptr<sys::System> system =
      sys::ScenarioRegistry::instance()
          .builder("pack-256-dram-x512-g16-ch2")
          .build();
  ASSERT_EQ(system->num_channels(), 2u);
  for (unsigned c = 0; c < system->num_channels(); ++c) {
    const pack::AdapterConfig& built = system->adapter(c).config();
    EXPECT_TRUE(built.coalesce_enable) << "channel " << c;
    EXPECT_EQ(built.queue_depth, 62u) << "channel " << c;
    EXPECT_EQ(built.idx_window_lines, 62u) << "channel " << c;
  }
}

/// The DRAM configuration `system` built for `channel`.
mem::DramMemoryConfig built_dram_config(const sys::System& system,
                                        unsigned channel = 0) {
  const auto* dram =
      dynamic_cast<const mem::DramMemory*>(system.memory(channel));
  EXPECT_NE(dram, nullptr) << "channel " << channel;
  return dram != nullptr ? dram->config() : mem::DramMemoryConfig{};
}

/// The DRAM configuration `scenario`'s builder derives for channel 0.
mem::DramMemoryConfig built_dram_config(const std::string& scenario) {
  const std::unique_ptr<sys::System> system =
      sys::ScenarioRegistry::instance().builder(scenario).build();
  return built_dram_config(*system);
}

TEST(DramSizing, WindowCoversTheAdaptersInFlightWords) {
  // Seven regulated converter stages per lane, each holding queue_depth
  // words: 7 x 30 on pack-dram and base-dram, 7 x 62 coalesced.
  const mem::DramMemoryConfig pack = built_dram_config("pack-dram");
  EXPECT_EQ(pack.sched_window, 210u);
  EXPECT_EQ(pack.req_depth, 210u);
  const mem::DramMemoryConfig coalesced =
      built_dram_config("pack-dram-coalesce");
  EXPECT_EQ(coalesced.sched_window, 434u);
  EXPECT_EQ(coalesced.req_depth, 434u);
  EXPECT_EQ(built_dram_config("base-dram").sched_window, 210u);
}

TEST(DramSizing, EveryChannelGetsTheSameWindow) {
  const std::unique_ptr<sys::System> system =
      sys::ScenarioRegistry::instance().builder("pack-256-dram-ch4").build();
  ASSERT_EQ(system->num_channels(), 4u);
  for (unsigned c = 0; c < system->num_channels(); ++c) {
    EXPECT_EQ(built_dram_config(*system, c).sched_window, 210u)
        << "channel " << c;
  }
}

TEST(DramSizing, ExplicitKnobsAreKept) {
  // An explicit window keeps the FIFO depth of the fixed-default builds.
  const mem::DramMemoryConfig w8 = built_dram_config("pack-256-dram-w8");
  EXPECT_EQ(w8.sched_window, 8u);
  EXPECT_EQ(w8.req_depth, 32u);
  const mem::DramMemoryConfig w64 = built_dram_config("pack-256-dram-w64");
  EXPECT_EQ(w64.sched_window, 64u);
  EXPECT_EQ(w64.req_depth, 64u);
  EXPECT_EQ(built_dram_config("pack-256-dram-q48").req_depth, 48u);
  // A cap alone leaves the window derived.
  const mem::DramMemoryConfig c16 = built_dram_config("pack-256-dram-c16");
  EXPECT_EQ(c16.sched_window, 210u);
  EXPECT_EQ(c16.starve_cap, 16u);
}

TEST(SweepThreads, ParsesValidCounts) {
  EXPECT_EQ(sys::SweepRunner::parse_threads("1").value_or(0), 1u);
  EXPECT_EQ(sys::SweepRunner::parse_threads("4").value_or(0), 4u);
  EXPECT_EQ(sys::SweepRunner::parse_threads("128").value_or(0), 128u);
  EXPECT_EQ(sys::SweepRunner::parse_threads(" 8 ").value_or(0), 8u);
  EXPECT_EQ(sys::SweepRunner::parse_threads("007").value_or(0), 7u);
}

TEST(SweepThreads, RejectsInvalidCounts) {
  // Historical bug: strtol-based parsing silently fell through to
  // hardware_concurrency() on all of these instead of rejecting them.
  EXPECT_FALSE(sys::SweepRunner::parse_threads(nullptr).has_value());
  EXPECT_FALSE(sys::SweepRunner::parse_threads("").has_value());
  EXPECT_FALSE(sys::SweepRunner::parse_threads("0").has_value());
  EXPECT_FALSE(sys::SweepRunner::parse_threads("-2").has_value());
  EXPECT_FALSE(sys::SweepRunner::parse_threads("four").has_value());
  EXPECT_FALSE(sys::SweepRunner::parse_threads("4x").has_value());
  EXPECT_FALSE(sys::SweepRunner::parse_threads("4 8").has_value());
  EXPECT_FALSE(sys::SweepRunner::parse_threads("0x4").has_value());
  EXPECT_FALSE(sys::SweepRunner::parse_threads("99999999999").has_value());
}

TEST(SweepThreads, ExplicitCountOverridesEnvironment) {
  const sys::SweepRunner runner(3);
  EXPECT_EQ(runner.threads(), 3u);
}

}  // namespace
}  // namespace axipack
