// Fig. 11 (extension): per-request latency under open-loop load. A seeded
// Poisson arrival process issues indirect-gather requests (64 words each)
// through the scatter-gather ring DMA at a fixed offered rate; the sweep
// crosses offered rate x system (narrow baseline, AXI-Pack, AXI-Pack with
// the near-memory coalescing stage) x memory channels and records the p50 /
// p95 / p99 sojourn latency, the achieved rate and the in-system queue
// high-water mark at every point.
//
// Expected shape: below saturation every system tracks the offered rate
// with a flat latency floor; past its knee the queue grows without bound
// inside the window, p99 explodes and achieved < offered. The packed
// systems move that knee to a 2x higher rate than the narrow baseline at
// the same p99 SLO (<= 5000 cycles) — the headline this bench gates on,
// stamped per curve as `knee_rate`.
#include <cstdint>
#include <string>

#include "bench_common.hpp"
#include "systems/scenario.hpp"
#include "systems/system.hpp"

namespace {

using namespace axipack;

/// p99 SLO (cycles) defining the saturation knee of each latency curve.
constexpr double kSloP99 = 5000.0;

/// The system axis carries the closed-loop scenario stem the runner
/// composes with -ch{C}-p{R}; coalesce is pack plus the near-memory
/// coalescing stage from PR 6.
sys::AxisValue system_value(const std::string& label,
                            const std::string& stem) {
  return sys::AxisValue::shaped(label, [stem](sys::PointDraft& d) {
    d.scenario = stem;
  });
}

void emit(bench::BenchContext& ctx) {
  bench::figure_header("Fig. 11", "open-loop latency under load");
  sys::ExperimentSpec spec("fig11");
  spec.param_axis("rate", "rate", {20, 40, 80, 160, 320})
      .axis("system", {system_value("base-dram", "base-256-dram"),
                       system_value("pack-dram", "pack-256-dram"),
                       system_value("coalesce-dram",
                                    "pack-256-dram-x512-g16")})
      .param_axis("channels", "channels", {1, 2})
      .runner([](const sys::GridPoint& p) {
        const unsigned rate = static_cast<unsigned>(p.param("rate"));
        const unsigned channels =
            static_cast<unsigned>(p.param("channels"));
        std::string name = p.scenario;
        if (channels > 1) name += "-ch" + std::to_string(channels);
        name += "-p" + std::to_string(rate);
        auto system = sys::ScenarioRegistry::instance().builder(name).build();
        sys::PointResult out;
        // 400k measured cycles keep >= ~80 window completions at the
        // lowest rate; --quick trades tail resolution for wall clock.
        out.run = system->run_open_loop(p.quick ? 60'000 : 400'000);
        out.metrics["latency_p50"] = out.run.latency.percentile(50);
        out.metrics["latency_p95"] = out.run.latency.percentile(95);
        out.metrics["latency_p99"] = out.run.latency.percentile(99);
        out.metrics["offered_rate"] = out.run.offered_rate;
        out.metrics["achieved_rate"] = out.run.achieved_rate;
        out.metrics["queue_peak"] =
            static_cast<double>(out.run.queue_peak);
        return out;
      });
  sys::ResultSet set = ctx.prepare(spec).run();

  // Knee enrichment, joined across the rate axis: each (system, channels)
  // curve's knee is the highest swept rate still meeting the p99 SLO,
  // stamped on every row of the curve (0 when even the lowest rate
  // misses). The headline ratio knee(coalesce) / knee(base-dram) is the
  // floor test_model_floors gates on.
  auto& rows = set.mutable_rows();
  const auto curve_knee = [&](const sys::ResultRow& like) -> double {
    double knee = 0.0;
    for (const auto& r : rows) {
      if (r.coord("system") != like.coord("system") ||
          r.coord("channels") != like.coord("channels")) {
        continue;
      }
      const double rate = r.metrics.at("offered_rate");
      if (r.metrics.at("latency_p99") <= kSloP99 && rate > knee) {
        knee = rate;
      }
    }
    return knee;
  };
  for (auto& row : rows) {
    row.metrics["slo_p99"] = kSloP99;
    row.metrics["knee_rate"] = curve_knee(row);
  }
  ctx.report(std::move(set));

  std::printf(
      "\nexpected shape: flat latency floor below the knee, p99 blow-up and "
      "achieved <\noffered past it; the packed systems' knee sits ~2x the "
      "narrow baseline's at the\nsame p99 <= %.0f-cycle SLO\n\n",
      kSloP99);
}

}  // namespace

int main(int argc, char** argv) {
  return axipack::bench::run_bench_main(argc, argv, emit);
}
