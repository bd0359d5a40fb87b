// Declarative experiment layer tests: grid expansion order and size,
// baseline-join speedups, backend-aware plan_workload choices across the
// scenario families (including the -dram names), filtering, the default
// runner (pooled == serial, builder patches reach the run), and the
// CSV/JSON emitters (golden-shape checks plus RunResult::to_json).
#include "test_common.hpp"

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "systems/experiment.hpp"
#include "systems/runner.hpp"
#include "systems/scenario.hpp"
#include "util/json.hpp"

namespace axipack {
namespace {

using sys::AxisValue;
using sys::ExperimentSpec;
using sys::GridPoint;
using sys::PointResult;
using sys::ResultSet;
using sys::SystemKind;

// ------------------------------------------------------- plan_workload

TEST(PlanWorkload, SramMethodologyMatchesThePaper) {
  // BASE streams row-wise; PACK/IDEAL run gemv/trmv column-wise on the
  // banked SRAM backend; in-memory indices only exist on PACK.
  const auto base = sys::plan_workload(wl::KernelKind::gemv,
                                       sys::scenario_name(SystemKind::base));
  EXPECT_EQ(static_cast<int>(base.dataflow),
            static_cast<int>(wl::Dataflow::rowwise));
  EXPECT_FALSE(base.in_memory_indices);

  const auto pack = sys::plan_workload(wl::KernelKind::gemv,
                                       sys::scenario_name(SystemKind::pack));
  EXPECT_EQ(static_cast<int>(pack.dataflow),
            static_cast<int>(wl::Dataflow::colwise));
  EXPECT_TRUE(pack.in_memory_indices);

  const auto ideal = sys::plan_workload(
      wl::KernelKind::trmv, sys::scenario_name(SystemKind::ideal));
  EXPECT_EQ(static_cast<int>(ideal.dataflow),
            static_cast<int>(wl::Dataflow::colwise));
  EXPECT_FALSE(ideal.in_memory_indices);
}

TEST(PlanWorkload, PackOnDramGoesRowWise) {
  // The backend-aware rule that closes the ROADMAP residual: column
  // strides thrash DRAM rows, so PACK gemv/trmv plan row-wise on every
  // "dram" scenario spelling — fixed names, parametric widths, and the
  // knobbed family.
  for (const char* scenario :
       {"pack-dram", "pack-256-dram", "pack-128-dram", "pack-64-dram",
        "pack-256-dram-w1", "pack-256-dram-w16-c128-q32"}) {
    for (const auto kernel : {wl::KernelKind::gemv, wl::KernelKind::trmv}) {
      const auto cfg = sys::plan_workload(kernel, scenario);
      EXPECT_EQ(static_cast<int>(cfg.dataflow),
                static_cast<int>(wl::Dataflow::rowwise))
          << scenario << " " << wl::kernel_name(kernel);
      EXPECT_TRUE(cfg.in_memory_indices) << scenario;
    }
  }
  // BASE on dram was already row-wise; the SRAM pack plan stays col-wise.
  EXPECT_EQ(static_cast<int>(
                sys::plan_workload(wl::KernelKind::gemv, "base-dram")
                    .dataflow),
            static_cast<int>(wl::Dataflow::rowwise));
  EXPECT_EQ(static_cast<int>(
                sys::plan_workload(wl::KernelKind::gemv, "pack-256-17b")
                    .dataflow),
            static_cast<int>(wl::Dataflow::colwise));
}

TEST(PlanWorkload, SeesBuilderPatchesNotJustNames) {
  // A builder retargeted onto "dram" after scenario resolution must plan
  // row-wise too — the planner inspects the builder, not the name.
  sys::SystemBuilder b =
      sys::ScenarioRegistry::instance().builder("pack-256-17b");
  EXPECT_EQ(static_cast<int>(sys::plan_workload(wl::KernelKind::gemv, b)
                                 .dataflow),
            static_cast<int>(wl::Dataflow::colwise));
  b.memory(mem::MemoryKind::dram);
  EXPECT_TRUE(b.memory_kind() == mem::MemoryKind::dram);
  EXPECT_EQ(static_cast<int>(sys::plan_workload(wl::KernelKind::gemv, b)
                                 .dataflow),
            static_cast<int>(wl::Dataflow::rowwise));
}

// ------------------------------------------------------ grid expansion

ExperimentSpec tiny_spec() {
  return ExperimentSpec("tiny")
      .kernels_axis({wl::KernelKind::ismt})
      .axis("n", {AxisValue::config("8", [](wl::WorkloadConfig& c) {
                    c.n = 8;
                  }),
                  AxisValue::config("16", [](wl::WorkloadConfig& c) {
                    c.n = 16;
                  })})
      .systems_axis({SystemKind::base, SystemKind::pack})
      .baseline("system", "base");
}

TEST(ExperimentSpec, ExpansionOrderAndSize) {
  const std::vector<GridPoint> points = tiny_spec().expand();
  ASSERT_EQ(points.size(), 4u);  // 1 kernel x 2 n x 2 systems
  // Row-major, first axis outermost: the last axis (system) cycles
  // fastest.
  EXPECT_EQ(points[0].coord("n"), "8");
  EXPECT_EQ(points[0].coord("system"), "base");
  EXPECT_EQ(points[1].coord("n"), "8");
  EXPECT_EQ(points[1].coord("system"), "pack");
  EXPECT_EQ(points[2].coord("n"), "16");
  EXPECT_EQ(points[3].coord("n"), "16");
  // Coords carry every axis in declaration order.
  ASSERT_EQ(points[0].coords.size(), 3u);
  EXPECT_EQ(points[0].coords[0].first, "kernel");
  EXPECT_EQ(points[0].coords[0].second, "ismt");
  // The config patches landed.
  EXPECT_EQ(points[0].cfg.n, 8u);
  EXPECT_EQ(points[3].cfg.n, 16u);
  // Scenario derives from the system axis.
  EXPECT_EQ(points[0].scenario, "base-256-17b");
  EXPECT_EQ(points[1].scenario, "pack-256-17b");
}

TEST(ExperimentSpec, PlansPerPointThenAppliesPatches) {
  const auto points =
      ExperimentSpec("plan")
          .kernels_axis({wl::KernelKind::gemv})
          .scenarios_axis("endpoint", {"pack-256-17b", "pack-dram"})
          .expand();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(static_cast<int>(points[0].cfg.dataflow),
            static_cast<int>(wl::Dataflow::colwise));
  EXPECT_EQ(static_cast<int>(points[1].cfg.dataflow),
            static_cast<int>(wl::Dataflow::rowwise));
  // An explicit patch overrides the plan.
  const auto pinned =
      ExperimentSpec("pin")
          .kernels_axis({wl::KernelKind::gemv})
          .scenarios_axis("endpoint", {"pack-dram"})
          .axis("dataflow", {AxisValue::config("col", [](wl::WorkloadConfig&
                                                            c) {
                  c.dataflow = wl::Dataflow::colwise;
                })})
          .expand();
  ASSERT_EQ(pinned.size(), 1u);
  EXPECT_EQ(static_cast<int>(pinned[0].cfg.dataflow),
            static_cast<int>(wl::Dataflow::colwise));
}

TEST(ExperimentSpec, QuickShrinksWorkloads) {
  const auto points =
      ExperimentSpec("quick")
          .kernels_axis({wl::KernelKind::spmv})
          .systems_axis({SystemKind::pack})
          .quick(true)
          .expand();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_TRUE(points[0].quick);
  EXPECT_LE(points[0].cfg.n, 48u);
  EXPECT_LE(points[0].cfg.nnz_per_row, 8u);
  EXPECT_LE(points[0].cfg.iterations, 1u);
}

TEST(ExperimentSpec, FilterKeepsBaselinePartners) {
  auto spec = tiny_spec();
  spec.filter("pack");
  const auto points = spec.expand();
  // Both pack points survive, plus their base partners for the join.
  ASSERT_EQ(points.size(), 4u);
  auto spec2 = tiny_spec();
  spec2.filter("16");
  const auto points2 = spec2.expand();
  ASSERT_EQ(points2.size(), 2u);
  EXPECT_EQ(points2[0].coord("n"), "16");
  EXPECT_EQ(points2[1].coord("n"), "16");
  auto spec3 = tiny_spec();
  spec3.filter("no-such-label");
  EXPECT_EQ(spec3.expand().size(), 0u);
}

TEST(ExperimentSpec, ParamAxisLabelsAndLookup) {
  const auto points = ExperimentSpec("params")
                          .param_axis("depth", "depth", {1, 16})
                          .expand();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].coord("depth"), "1");
  EXPECT_EQ(points[1].coord("depth"), "16");
  EXPECT_EQ(points[0].param("depth"), 1.0);
  EXPECT_EQ(points[1].param("depth"), 16.0);
}

// ---------------------------------------------------- runs and joins

TEST(ExperimentSpec, BaselineJoinSpeedups) {
  // Custom runner with known cycle counts: base 1000, pack 250 -> 4x.
  const ResultSet set =
      ExperimentSpec("join")
          .kernels_axis({wl::KernelKind::ismt})
          .systems_axis({SystemKind::base, SystemKind::pack})
          .baseline("system", "base")
          .runner([](const GridPoint& p) {
            PointResult out;
            out.run.cycles = p.coord("system") == "base" ? 1000 : 250;
            out.run.correct = true;
            return out;
          })
          .run();
  ASSERT_EQ(set.size(), 2u);
  const auto* base = set.find({{"system", "base"}});
  const auto* pack = set.find({{"system", "pack"}});
  ASSERT_NE(base, nullptr);
  ASSERT_NE(pack, nullptr);
  ASSERT_TRUE(base->speedup.has_value());
  ASSERT_TRUE(pack->speedup.has_value());
  EXPECT_NEAR(*base->speedup, 1.0, 1e-12);
  EXPECT_NEAR(*pack->speedup, 4.0, 1e-12);
  EXPECT_TRUE(set.all_correct());
}

TEST(ExperimentSpec, RealRunEndToEnd) {
  // A real (tiny) simulation grid through the default runner: results are
  // verified and the pack speedup is joined against base.
  const ResultSet set =
      ExperimentSpec("real")
          .kernels_axis({wl::KernelKind::ismt})
          .systems_axis({SystemKind::base, SystemKind::pack})
          .baseline("system", "base")
          .configure([](wl::WorkloadConfig& c) { c.n = 32; })
          .threads(1)
          .run();
  ASSERT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.all_correct());
  const auto* pack = set.find({{"system", "pack"}});
  ASSERT_NE(pack, nullptr);
  ASSERT_TRUE(pack->speedup.has_value());
  EXPECT_GE(*pack->speedup, 1.0);  // pack is never slower
  EXPECT_GT(pack->run.cycles, 0u);
}

TEST(ExperimentSpec, PooledRunMatchesSerialRowForRow) {
  // Pool workers finish points in any order; the rows must still come back
  // in expansion order, each with the serial run's exact result.
  const auto run_at = [](unsigned threads) {
    return ExperimentSpec("pool")
        .kernels_axis({wl::KernelKind::ismt, wl::KernelKind::gemv,
                       wl::KernelKind::spmv})
        .scenarios_axis("scenario",
                        {"base-256-17b", "pack-256-17b", "pack-dram"})
        .configure([](wl::WorkloadConfig& c) {
          c.n = 32;
          c.nnz_per_row = 8;
        })
        .threads(threads)
        .run();
  };
  const ResultSet serial = run_at(1);
  const ResultSet pooled = run_at(4);
  ASSERT_EQ(serial.size(), 9u);
  ASSERT_EQ(pooled.size(), serial.size());
  EXPECT_TRUE(serial.all_correct());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(pooled.rows()[i].point.coords ==
                serial.rows()[i].point.coords)
        << "row " << i;
    EXPECT_EQ(pooled.rows()[i].run.to_json(), serial.rows()[i].run.to_json())
        << "row " << i;
  }
}

TEST(ExperimentSpec, DefaultRunnerAppliesBuilderPatches) {
  // A point's builder patches must reach the system it runs, not only the
  // planner: one bank behind the 256-bit bus's eight ports conflicts more
  // than the default 17 banks.
  const ResultSet set =
      ExperimentSpec("patched")
          .kernels_axis({wl::KernelKind::gemv})
          .axis("banks", {AxisValue::shaped("17", nullptr),
                          AxisValue::shaped("1", [](sys::PointDraft& d) {
                            d.builder_patches.push_back(
                                [](sys::SystemBuilder& b) { b.banks(1); });
                          })})
          .configure([](wl::WorkloadConfig& c) { c.n = 32; })
          .threads(1)
          .run();
  ASSERT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.all_correct());
  const auto* banked = set.find({{"banks", "17"}});
  const auto* one_bank = set.find({{"banks", "1"}});
  ASSERT_NE(banked, nullptr);
  ASSERT_NE(one_bank, nullptr);
  EXPECT_GT(one_bank->run.bank_conflict_losses,
            banked->run.bank_conflict_losses);
  EXPECT_GT(one_bank->run.cycles, banked->run.cycles);
}

// ----------------------------------------------------------- emission

ResultSet golden_set() {
  return ExperimentSpec("golden")
      .kernels_axis({wl::KernelKind::ismt})
      .systems_axis({SystemKind::base, SystemKind::pack})
      .baseline("system", "base")
      .runner([](const GridPoint& p) {
        PointResult out;
        out.run.cycles = p.coord("system") == "base" ? 100 : 50;
        out.run.r_util = 0.5;
        out.run.correct = true;
        out.metrics["extra"] = 2.5;
        return out;
      })
      .run();
}

TEST(ResultSet, CsvGolden) {
  std::ostringstream os;
  golden_set().write_csv(os);
  const std::string csv = os.str();
  const std::string expected =
      "kernel,system,scenario,planned_kernel,cycles,r_util,r_util_no_idx,"
      "w_util,row_hit_ratio,speedup,correct,extra\n"
      "ismt,base,base-256-17b,ismt,100,0.5,0,0,0,1,true,2.5\n"
      "ismt,pack,pack-256-17b,ismt,50,0.5,0,0,0,2,true,2.5\n";
  EXPECT_EQ(csv, expected);
}

TEST(ResultSet, JsonGoldenShape) {
  const std::string json = golden_set().to_json();
  // Structural golden checks (full-string equality would be brittle
  // against RunResult field additions).
  EXPECT_NE(json.find("\"experiment\": \"golden\""), std::string::npos);
  EXPECT_NE(json.find("\"axes\": [{\"name\": \"kernel\", \"values\": "
                      "[\"ismt\"]}, {\"name\": \"system\", \"values\": "
                      "[\"base\", \"pack\"]}]"),
            std::string::npos);
  EXPECT_NE(json.find("\"baseline\": {\"axis\": \"system\", \"value\": "
                      "\"base\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"coords\": {\"kernel\": \"ismt\", \"system\": "
                      "\"pack\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"speedup\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\": {\"extra\": 2.5}"), std::string::npos);
  EXPECT_NE(json.find("\"cycles\": 50"), std::string::npos);
}

TEST(ResultSet, TableListsAxesAndDerivedColumns) {
  std::ostringstream os;
  golden_set().print_table(os);
  const std::string table = os.str();
  EXPECT_NE(table.find("kernel"), std::string::npos);
  EXPECT_NE(table.find("system"), std::string::npos);
  EXPECT_NE(table.find("speedup"), std::string::npos);
  EXPECT_NE(table.find("2.00x"), std::string::npos);
  EXPECT_NE(table.find("extra"), std::string::npos);
  EXPECT_NE(table.find("yes"), std::string::npos);
}

TEST(RunResult, ToJsonRoundsTheCoreFields) {
  sys::RunResult r;
  r.bus_bits = 128;
  r.cycles = 1234;
  r.r_util = 0.25;
  r.correct = true;
  r.row_hits = 3;
  r.row_misses = 1;
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"bus_bits\": 128"), std::string::npos);
  EXPECT_NE(json.find("\"cycles\": 1234"), std::string::npos);
  EXPECT_NE(json.find("\"r_util\": 0.25"), std::string::npos);
  EXPECT_NE(json.find("\"correct\": true"), std::string::npos);
  EXPECT_NE(json.find("\"row_hit_ratio\": 0.75"), std::string::npos);
  EXPECT_EQ(json.find("\"error\""), std::string::npos);  // empty -> omitted
  r.error = "a \"quoted\" failure";
  EXPECT_NE(r.to_json().find("\"error\": \"a \\\"quoted\\\" failure\""),
            std::string::npos);
}

TEST(JsonWriter, EscapesAndNests) {
  util::JsonWriter w;
  w.begin_object();
  w.key("s").value("line\nbreak \"q\"");
  w.key("list").begin_array().value(1).value(2.5).null().end_array();
  w.key("empty").begin_object().end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"s\": \"line\\nbreak \\\"q\\\"\", "
            "\"list\": [1, 2.5, null], \"empty\": {}}");
}

}  // namespace
}  // namespace axipack
