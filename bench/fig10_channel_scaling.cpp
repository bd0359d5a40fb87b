// Fig. 10 (extension): aggregate read-bandwidth scaling with interleaved
// memory channels. M stream masters read disjoint contiguous regions
// through the channel-interleaved fabric; aggregate R utilization (every
// channel link's payload against ONE link's capacity) scales near-linearly
// with channel count until the master pool can no longer feed the links —
// the saturation knee this bench records per (masters, mapping) curve.
//
// Expected shape: with M masters, each able to sink one R beat per cycle,
// aggregate utilization tracks min(masters, channels) and the knee sits
// where channels catch up with the masters' sink rate; the DRAM mapping
// moves the curve only marginally (streams are row-friendly under all
// three mappings once split per channel).
#include <string>

#include "bench_common.hpp"
#include "mem/dram_timing.hpp"
#include "systems/sensitivity.hpp"

namespace {

using namespace axipack;

sys::AxisValue mapping_value(mem::DramMapping m) {
  return sys::AxisValue::shaped(
      mem::dram_mapping_name(m), [m](sys::PointDraft& d) {
        d.params["mapping"] = static_cast<double>(m);
      });
}

void emit(bench::BenchContext& ctx) {
  bench::figure_header("Fig. 10", "multi-channel read-bandwidth scaling");
  sys::ExperimentSpec spec("fig10");
  spec.param_axis("channels", "channels", {1, 2, 4, 8})
      .param_axis("masters", "masters", {8, 16, 32})
      .axis("mapping", {mapping_value(mem::DramMapping::permuted),
                        mapping_value(mem::DramMapping::bank_interleaved),
                        mapping_value(mem::DramMapping::row_interleaved)})
      .runner([](const sys::GridPoint& p) {
        // Quick streams still span every channel (8 granules per master).
        const sys::RunResult r = sys::measure_channel_streams(
            static_cast<unsigned>(p.param("channels")),
            static_cast<unsigned>(p.param("masters")),
            static_cast<mem::DramMapping>(static_cast<int>(p.param("mapping"))),
            p.quick ? 32 * 1024 : 256 * 1024);
        // Reported through metrics only: filling PointResult::run would add
        // the generic run columns to the table.
        sys::PointResult out;
        double agg = 0.0, min_ch = 0.0, max_ch = 0.0;
        for (std::size_t c = 0; c < r.per_channel.size(); ++c) {
          const double u = r.per_channel[c].r_util;
          agg += u;
          if (c == 0 || u < min_ch) min_ch = u;
          if (c == 0 || u > max_ch) max_ch = u;
        }
        out.metrics["agg_r_util"] = agg;
        out.metrics["cycles"] = static_cast<double>(r.cycles);
        out.metrics["min_ch_r_util"] = min_ch;
        out.metrics["max_ch_r_util"] = max_ch;
        out.metrics["row_hit_ratio"] = r.row_hit_ratio();
        return out;
      });
  sys::ResultSet set = ctx.prepare(spec).run();

  // Derived metrics joined across the channel axis: scaling vs the
  // 1-channel partner, and the saturation knee of each (masters, mapping)
  // curve — the largest channel count whose doubling step still gained
  // >= 30% aggregate utilization (stamped on every row of the curve).
  auto& rows = set.mutable_rows();
  const auto find_util = [&](const sys::ResultRow& like,
                             const std::string& channels) -> double {
    for (const auto& r : rows) {
      if (r.coord("channels") == channels &&
          r.coord("masters") == like.coord("masters") &&
          r.coord("mapping") == like.coord("mapping")) {
        return r.metrics.at("agg_r_util");
      }
    }
    return 0.0;
  };
  for (auto& row : rows) {
    const double base = find_util(row, "1");
    if (base > 0.0) {
      row.metrics["scaling_vs_1ch"] = row.metrics.at("agg_r_util") / base;
    }
  }
  for (auto& row : rows) {
    double knee = 1.0;
    for (const unsigned c : {2u, 4u, 8u}) {
      const double prev = find_util(row, std::to_string(c / 2));
      const double cur = find_util(row, std::to_string(c));
      if (prev > 0.0 && cur >= 1.3 * prev) knee = c;
    }
    row.metrics["knee_channels"] = knee;
  }
  ctx.report(std::move(set));

  std::printf("\nexpected shape: aggregate R-util tracks min(masters, "
              "channels); the knee is\nwhere extra channels stop paying "
              "because the master pool is the bottleneck\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  return axipack::bench::run_bench_main(argc, argv, emit);
}
