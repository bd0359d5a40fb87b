// ScenarioRegistry and SystemBuilder topology tests: every registered
// scenario must build, parametric names must parse, every memory kind must
// run behind the adapter, and the dual-master scenario's run results must
// be exact.
#include "test_common.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include "dma/descriptor.hpp"
#include "systems/runner.hpp"
#include "systems/scenario.hpp"
#include "systems/system.hpp"

namespace axipack {
namespace {

using sys::ScenarioRegistry;
using sys::System;
using sys::SystemBuilder;
using sys::SystemKind;

TEST(ScenarioRegistry, ListsTheCoreScenarios) {
  const auto names = ScenarioRegistry::instance().names();
  EXPECT_GE(names.size(), 6u);
  for (const char* required :
       {"base-256-17b", "pack-256-17b", "ideal-256", "pack-256-idealmem",
        "dual-master-pack", "dual-dma-pack"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), required), names.end())
        << "missing scenario " << required;
  }
}

TEST(ScenarioRegistry, EveryRegisteredScenarioBuilds) {
  for (const auto& name : ScenarioRegistry::instance().names()) {
    std::unique_ptr<System> system = ScenarioRegistry::instance().build(name);
    ASSERT_NE(system, nullptr) << name;
    EXPECT_TRUE(system->drained()) << name << " not quiescent at reset";
  }
}

TEST(ScenarioRegistry, ScenarioNameRoundTrips) {
  EXPECT_EQ(sys::scenario_name(SystemKind::pack), "pack-256-17b");
  EXPECT_EQ(sys::scenario_name(SystemKind::base, 128), "base-128-17b");
  EXPECT_EQ(sys::scenario_name(SystemKind::pack, 256, 31), "pack-256-31b");
  EXPECT_EQ(sys::scenario_name(SystemKind::ideal, 64), "ideal-64");
  for (const auto kind :
       {SystemKind::base, SystemKind::pack, SystemKind::ideal}) {
    for (const unsigned bus : {64u, 128u, 256u}) {
      EXPECT_TRUE(ScenarioRegistry::instance().contains(
          sys::scenario_name(kind, bus)))
          << sys::scenario_name(kind, bus);
    }
  }
}

TEST(ScenarioRegistry, ParsesParametricBankCounts) {
  // pack-256-31b is not registered explicitly; the parametric family
  // resolves it, and the resulting system runs correctly.
  EXPECT_EQ(ScenarioRegistry::instance().find("pack-256-31b"), nullptr);
  ASSERT_TRUE(ScenarioRegistry::instance().contains("pack-256-31b"));
  auto cfg = sys::plan_workload(wl::KernelKind::spmv, "pack-256-31b");
  cfg.n = 48;
  cfg.nnz_per_row = 24;
  const auto result = sys::run_workload("pack-256-31b", cfg);
  EXPECT_TRUE(result.correct) << result.error;
}

TEST(ScenarioRegistry, RejectsMalformedNames) {
  auto& reg = ScenarioRegistry::instance();
  EXPECT_FALSE(reg.contains("pack-512-17b"));  // unsupported bus width
  EXPECT_FALSE(reg.contains("pack-256-0b"));   // zero banks
  EXPECT_FALSE(reg.contains("pack-256-17"));   // missing 'b' suffix
  EXPECT_FALSE(reg.contains("ideal-256-17b")); // ideal takes no bank count
  EXPECT_FALSE(reg.contains("warp-256-17b"));  // unknown family
  // 2^32 + 17: must not wrap around to a "valid" 17-bank system.
  EXPECT_FALSE(reg.contains("pack-256-4294967313b"));
  EXPECT_FALSE(reg.contains(""));
}

TEST(ScenarioRegistry, CustomScenariosCanBeRegistered) {
  ScenarioRegistry::instance().add(
      {"test-tiny-pack", "pack SoC with an 8-bank memory (test-local)", [] {
         SystemBuilder b;
         b.bus_bits(64).banks(8);
         b.attach_processor(vproc::VlsuMode::pack);
         return b;
       }});
  ASSERT_TRUE(ScenarioRegistry::instance().contains("test-tiny-pack"));
  auto cfg = sys::plan_workload(wl::KernelKind::ismt, "test-tiny-pack");
  cfg.n = 32;
  const auto result = sys::run_workload("test-tiny-pack", cfg);
  EXPECT_TRUE(result.correct) << result.error;
}

TEST(MemoryBackends, DramScenariosRunEndToEnd) {
  // base-dram / pack-dram resolve through the registry, execute a real
  // workload over the DRAM timing model, and report row-buffer stats.
  auto& reg = ScenarioRegistry::instance();
  ASSERT_TRUE(reg.contains("base-dram"));
  ASSERT_TRUE(reg.contains("pack-dram"));
  for (const auto kind : {SystemKind::base, SystemKind::pack}) {
    const std::string name = std::string(system_name(kind)) + "-dram";
    auto cfg = sys::plan_workload(wl::KernelKind::ismt, name);
    cfg.n = 64;
    const auto r = sys::run_workload(name, cfg);
    EXPECT_TRUE(r.correct) << name << ": " << r.error;
    EXPECT_GT(r.row_hits + r.row_misses, 0u) << name;
    EXPECT_EQ(r.row_hits + r.row_misses, r.bank_grants) << name;
    EXPECT_GT(r.row_hit_ratio(), 0.0) << name;
  }
}

TEST(MemoryBackends, DramParametricFamilyParses) {
  auto& reg = ScenarioRegistry::instance();
  EXPECT_TRUE(reg.contains("pack-128-dram"));
  EXPECT_TRUE(reg.contains("base-64-dram"));
  EXPECT_FALSE(reg.contains("pack-96-dram"));   // bus width not swept
  EXPECT_FALSE(reg.contains("ideal-256-dram"));  // ideal has no fabric
  EXPECT_FALSE(reg.contains("pack-256-dramm"));
  auto cfg = sys::plan_workload(wl::KernelKind::gemv, "pack-128-dram");
  cfg.n = 48;
  const auto r = sys::run_workload("pack-128-dram", cfg);
  EXPECT_TRUE(r.correct) << r.error;
  EXPECT_EQ(r.bus_bits, 128u);
  EXPECT_GT(r.row_hits, 0u);
}

TEST(MemoryBackends, DramSchedulerKnobSuffixesParse) {
  auto& reg = ScenarioRegistry::instance();
  // Window / cap / request-depth knobs, in any order, each at most once.
  EXPECT_TRUE(reg.contains("pack-256-dram-w1"));
  EXPECT_TRUE(reg.contains("pack-256-dram-w16-c128"));
  EXPECT_TRUE(reg.contains("base-128-dram-c0"));
  EXPECT_TRUE(reg.contains("pack-64-dram-q32"));
  EXPECT_TRUE(reg.contains("pack-256-dram-c16-w8"));   // order-free
  EXPECT_TRUE(reg.contains("pack-256-dram-w32-c48-q64"));
  // Malformed: unknown knob, missing value, zero window/depth, duplicates.
  EXPECT_FALSE(reg.contains("pack-256-dram-z4"));
  EXPECT_FALSE(reg.contains("pack-256-dram-w"));
  EXPECT_FALSE(reg.contains("pack-256-dram-w0"));
  EXPECT_FALSE(reg.contains("pack-256-dram-q0"));
  EXPECT_FALSE(reg.contains("pack-256-dram-w4-w8"));
  EXPECT_FALSE(reg.contains("pack-256-dram-w4c8"));
  EXPECT_FALSE(reg.contains("pack-256-dram-"));
}

TEST(MemoryBackends, RepeatedKnobNamesTheOffender) {
  // A repeated knob must be rejected with a diagnostic naming the knob —
  // historically it disengaged silently and surfaced only as a generic
  // "unknown scenario" abort far from the typo.
  for (const char knob : {'w', 'c', 'q', 'x', 'g', 'f', 'r', 'p', 'b'}) {
    const std::string name = std::string("pack-256-dram-") + knob + "4-" +
                             knob + "8";
    std::string error;
    EXPECT_FALSE(sys::parse_scenario(name, &error).has_value()) << name;
    EXPECT_NE(error.find(name), std::string::npos) << error;
    EXPECT_NE(error.find(std::string("'-") + knob + "'"), std::string::npos)
        << "diagnostic for " << name << " does not name the knob: " << error;
  }
  // Repeats separated by other knobs are still repeats.
  std::string error;
  EXPECT_FALSE(
      sys::parse_scenario("pack-256-dram-w8-c16-w32", &error).has_value());
  EXPECT_NE(error.find("'-w'"), std::string::npos) << error;
  // Names that merely belong to no family leave the diagnostic untouched.
  error.clear();
  EXPECT_FALSE(sys::parse_scenario("not-a-scenario", &error).has_value());
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_FALSE(sys::parse_scenario("pack-256-dram-z4", &error).has_value());
  EXPECT_TRUE(error.empty()) << error;
  // Valid parametric points still parse with the diagnostic parameter set.
  EXPECT_TRUE(sys::parse_scenario("pack-256-dram-w8-c16", &error).has_value());
  EXPECT_TRUE(error.empty()) << error;
}

// ---------------------------------------------------------------------------
// Table-driven grammar coverage: each row of sys::kDramKnobs is exercised
// from the table itself, so a new knob is covered without a new test.

/// "pack-256-dram-" plus the knob a row needs (at its minimum), if any.
std::string dram_stem(const sys::DramKnob& k) {
  std::string stem = "pack-256-dram-";
  if (k.needs >= 0) {
    const sys::DramKnob& need = sys::kDramKnobs[k.needs];
    stem += need.token + std::to_string(need.min) + "-";
  }
  return stem;
}

/// Rejected, with a diagnostic holding the full name and `knob`.
void expect_diagnosed(const std::string& name, const std::string& knob) {
  std::string error;
  EXPECT_FALSE(sys::parse_scenario(name, &error).has_value()) << name;
  EXPECT_NE(error.find("\"" + name + "\""), std::string::npos)
      << name << ": " << error;
  EXPECT_NE(error.find(knob), std::string::npos) << name << ": " << error;
}

TEST(ScenarioGrammar, EveryKnobRowBoundsItsDomain) {
  for (const sys::DramKnob& k : sys::kDramKnobs) {
    const std::string stem = dram_stem(k);
    const std::string knob = std::string("'-") + k.token + "'";
    for (const unsigned v : {k.min, k.max}) {
      const std::string name = stem + k.token + std::to_string(v);
      std::string error;
      EXPECT_TRUE(sys::parse_scenario(name, &error).has_value())
          << name << ": " << error;
      EXPECT_TRUE(error.empty()) << name << ": " << error;
    }
    if (k.min > 0) {
      expect_diagnosed(stem + k.token + std::to_string(k.min - 1), knob);
    }
    expect_diagnosed(stem + k.token + std::to_string(k.max + 1), knob);
    // Far past the maximum (and past the number parser's own cap).
    expect_diagnosed(stem + k.token + "99999999999", knob);
    const std::string once = k.token + std::to_string(k.min);
    expect_diagnosed(stem + once + "-" + once, knob);
    expect_diagnosed(stem + k.token, knob);  // no value
  }
}

TEST(ScenarioGrammar, RequiredKnobIsNamed) {
  for (const sys::DramKnob& k : sys::kDramKnobs) {
    if (k.needs < 0) continue;
    const sys::DramKnob& need = sys::kDramKnobs[k.needs];
    const std::string name =
        std::string("base-128-dram-") + k.token + std::to_string(k.min);
    expect_diagnosed(name, std::string("'-") + need.token + "{" +
                               need.metavar + "}'");
  }
}

TEST(ScenarioGrammar, FixedDramNamesAreTheirSpellings) {
  // Each fixed name and its parametric spelling build the same system:
  // a small spmv run reports the same measurements on both.
  const std::pair<const char*, const char*> aliases[] = {
      {"base-dram", "base-256-dram"},
      {"pack-dram", "pack-256-dram"},
      {"pack-dram-coalesce", "pack-256-dram-x512-g16"},
      {"pack-dram-faults", "pack-256-dram-f1"},
      {"many-master-pack-16", "pack-256-dram-ch4-m16"},
      {"many-master-pack-32", "pack-256-dram-ch8-m32"},
      {"many-master-pack-64", "pack-256-dram-ch8-m64"},
  };
  auto& reg = ScenarioRegistry::instance();
  for (const auto& [alias, spelling] : aliases) {
    ASSERT_NE(reg.find(alias), nullptr) << alias;
    auto cfg = sys::plan_workload(wl::KernelKind::spmv, alias);
    cfg.n = 48;
    cfg.nnz_per_row = 24;
    const sys::RunResult a = sys::run_workload(alias, cfg);
    const sys::RunResult b = sys::run_workload(spelling, cfg);
    EXPECT_TRUE(a.correct) << alias << ": " << a.error;
    EXPECT_EQ(a.to_json(), b.to_json()) << alias << " vs " << spelling;
  }
  // pack-dram-faults again, on a run large enough to inject faults.
  auto cfg = sys::plan_workload(wl::KernelKind::spmv, "pack-dram-faults");
  cfg.n = 256;
  cfg.nnz_per_row = 64;
  const sys::RunResult a = sys::run_workload("pack-dram-faults", cfg);
  const sys::RunResult b = sys::run_workload("pack-256-dram-f1", cfg);
  EXPECT_GT(a.faults_injected, 0u);
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(OpenLoopScenarios, TrafficKnobsParse) {
  auto& reg = ScenarioRegistry::instance();
  // -p{RATE} (requests per 100k cycles) and -b{BURST} compose with every
  // other knob, in any order.
  EXPECT_TRUE(reg.contains("pack-256-dram-p40"));
  EXPECT_TRUE(reg.contains("base-128-dram-p160"));
  EXPECT_TRUE(reg.contains("pack-256-dram-p80-b16"));
  EXPECT_TRUE(reg.contains("pack-256-dram-b16-p80"));  // order-free
  EXPECT_TRUE(reg.contains("pack-256-dram-x512-g16-ch2-p320"));
  EXPECT_TRUE(reg.contains("pack-256-dram-f50-r4-p80"));
  // Zero rate / zero burst are malformed, not "disabled".
  EXPECT_FALSE(reg.contains("pack-256-dram-p0"));
  EXPECT_FALSE(reg.contains("pack-256-dram-p40-b0"));
  // Named open-loop scenarios are registered.
  EXPECT_TRUE(reg.contains("open-loop-base-dram"));
  EXPECT_TRUE(reg.contains("open-loop-pack-dram"));
  EXPECT_TRUE(reg.contains("open-loop-coalesce-dram"));
}

TEST(OpenLoopScenarios, BurstWithoutRateNamesTheProblem) {
  // A burst length with no arrival rate shapes nothing: loud diagnostic,
  // like repeated knobs, instead of silently running closed-loop.
  std::string error;
  EXPECT_FALSE(sys::parse_scenario("pack-256-dram-b16", &error).has_value());
  EXPECT_NE(error.find("'-b16'"), std::string::npos) << error;
  EXPECT_NE(error.find("-p{R}"), std::string::npos) << error;
}

TEST(OpenLoopScenarios, TrafficKnobBuildsADriverAndKeepsMasterNumbering) {
  // -p attaches the sg master last: master 0 stays the processor and -m
  // numbering is unchanged relative to the closed-loop family member.
  auto system = ScenarioRegistry::instance().build("pack-256-dram-p40");
  EXPECT_NE(system->traffic_driver(), nullptr);
  EXPECT_TRUE(system->is_processor(0));
  EXPECT_TRUE(system->is_dma(system->num_masters() - 1));
  // The narrow variant's sg engine must also be narrow (that asymmetry is
  // the whole open-loop comparison).
  auto base = ScenarioRegistry::instance().build("base-256-dram-p40");
  EXPECT_FALSE(base->dma(base->num_masters() - 1).config().use_pack);
  auto pack = ScenarioRegistry::instance().build("pack-256-dram-p40");
  EXPECT_TRUE(pack->dma(pack->num_masters() - 1).config().use_pack);
}

TEST(MemoryBackends, SchedWindowScenarioRunsAndShiftsHitRatio) {
  // The parsed knobs must actually reach the scheduler: an indirect
  // workload on the head-only scheduler thrashes rows; the batched default
  // recovers them (the PR-3 DRAM finding and its fix, in miniature).
  // Large enough that the index/value/x regions span several DRAM rows per
  // bank (smaller sets fit one row-span and never thrash).
  auto cfg = sys::plan_workload(wl::KernelKind::spmv, "pack-256-dram-w1");
  cfg.n = 192;
  cfg.nnz_per_row = 64;
  const auto plain = sys::run_workload("pack-256-dram-w1", cfg);
  const auto batched = sys::run_workload("pack-256-dram", cfg);
  ASSERT_TRUE(plain.correct) << plain.error;
  ASSERT_TRUE(batched.correct) << batched.error;
  EXPECT_GT(batched.row_hit_ratio(), plain.row_hit_ratio() + 0.1)
      << "sched window had no effect on the indirect-kernel hit ratio";
  EXPECT_EQ(plain.row_batch_defer_cycles, 0u);  // w1 = batching disabled
}

TEST(MemoryBackends, IdealMemoryRemovesBankConflicts) {
  // Same PACK pipeline, banked vs ideal memory: the ideal memory must
  // report no conflict losses and never be slower.
  auto cfg = sys::plan_workload(wl::KernelKind::spmv, "pack-256-17b");
  cfg.n = 64;
  cfg.nnz_per_row = 32;
  const auto banked = sys::run_workload("pack-256-17b", cfg);
  const auto ideal = sys::run_workload("pack-256-idealmem", cfg);
  ASSERT_TRUE(banked.correct) << banked.error;
  ASSERT_TRUE(ideal.correct) << ideal.error;
  EXPECT_EQ(ideal.bank_conflict_losses, 0u);
  EXPECT_LE(ideal.cycles, banked.cycles);
}

TEST(DualMasterScenario, RunResultsAreExact) {
  // The registered dual-master scenario: the vector processor runs ismt
  // while the DMA engine gathers a disjoint strided region. Both results
  // are verified element-exact, and both streams must actually have moved
  // over the one shared link.
  auto system = ScenarioRegistry::instance().build("dual-master-pack");
  ASSERT_EQ(system->num_masters(), 2u);
  mem::BackingStore& store = system->store();

  auto wc = sys::plan_workload(wl::KernelKind::ismt, "dual-master-pack");
  wc.n = 32;
  const wl::WorkloadInstance inst = wl::build_workload(store, wc);

  const std::uint64_t n = 512;
  const std::int64_t stride = 36;
  const std::uint64_t src = store.alloc(n * stride + 64, 64);
  const std::uint64_t dst = store.alloc(n * 4, 64);
  for (std::uint64_t i = 0; i < n; ++i) {
    store.write_u32(src + i * stride, 0xC0FE'0000u + std::uint32_t(i));
  }
  dma::Descriptor d;
  d.src = dma::Pattern::strided(src, stride);
  d.dst = dma::Pattern::contiguous(dst);
  d.elem_bytes = 4;
  d.num_elems = n;
  system->dma(1).push(d);

  system->processor(0).run(inst.program);
  ASSERT_TRUE(system->run_until_drained(2'000'000));

  std::string msg;
  EXPECT_TRUE(inst.check(store, msg)) << msg;
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(store.read_u32(dst + 4 * i), 0xC0FE'0000u + i)
        << "dma element " << i;
  }
  ASSERT_NE(system->bus_stats(), nullptr);
  EXPECT_GT(system->bus_stats()->r_payload_bytes, n * 4);
  EXPECT_GT(system->dma(1).stats().bytes_moved, 0u);
}

TEST(DualDmaScenario, BothEnginesMoveTheirStreams) {
  auto system = ScenarioRegistry::instance().build("dual-dma-pack");
  ASSERT_EQ(system->num_masters(), 2u);
  mem::BackingStore& store = system->store();
  const std::uint64_t n = 256;
  std::uint64_t dsts[2];
  for (unsigned e = 0; e < 2; ++e) {
    const std::int64_t stride = e == 0 ? 36 : 52;
    const std::uint64_t src = store.alloc(n * stride + 64, 64);
    dsts[e] = store.alloc(n * 4, 64);
    for (std::uint64_t i = 0; i < n; ++i) {
      store.write_u32(src + i * stride, (e << 16) + std::uint32_t(i));
    }
    dma::Descriptor d;
    d.src = dma::Pattern::strided(src, stride);
    d.dst = dma::Pattern::contiguous(dsts[e]);
    d.elem_bytes = 4;
    d.num_elems = n;
    system->dma(e).push(d);
  }
  ASSERT_TRUE(system->run_until_drained(1'000'000));
  for (unsigned e = 0; e < 2; ++e) {
    for (std::uint64_t i = 0; i < n; ++i) {
      ASSERT_EQ(store.read_u32(dsts[e] + 4 * i), (e << 16) + i)
          << "engine " << e << " element " << i;
    }
  }
}

}  // namespace
}  // namespace axipack
