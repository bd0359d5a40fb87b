// Fig. 5a: indirect-read bus utilization versus element/index size pairs
// and bank count, with an ideal requestor issuing length-256 read bursts of
// random indices (decoupling queues deepened to 32).
//
// Paper reference: utilization rises monotonically with bank count; across
// sizes it is bounded by r/(r+1) where r = elem_size/index_size (50% / 67%
// / 80% ideal for 32-bit elements with 32/16/8-bit indices); prime bank
// counts bring no inherent advantage for random accesses.
#include "bench_common.hpp"
#include "systems/sensitivity.hpp"

namespace {

using namespace axipack;

sys::AxisValue size_pair(unsigned es, unsigned is) {
  return sys::AxisValue::shaped(
      std::to_string(es) + "/" + std::to_string(is),
      [es, is](sys::PointDraft& d) {
        d.params["elem_bits"] = es;
        d.params["index_bits"] = is;
      });
}

sys::AxisValue banks_value(unsigned banks) {
  return sys::AxisValue::shaped(
      banks == 0 ? "ideal" : std::to_string(banks),
      [banks](sys::PointDraft& d) { d.params["banks"] = banks; });
}

/// Index coalescing unit on/off (entries 0 disables it in the harness).
sys::AxisValue coalesce_value(std::size_t entries) {
  return sys::AxisValue::shaped(
      entries == 0 ? std::string("off")
                   : std::string("x").append(std::to_string(entries)),
      [entries](sys::PointDraft& d) {
        d.params["coalesce_entries"] = static_cast<double>(entries);
      });
}

void emit(bench::BenchContext& ctx) {
  bench::figure_header("Fig. 5a", "indirect read utilization sensitivity");
  // The paper's size pairs, ordered by the ratio r = es/is.
  ctx.run(
      sys::ExperimentSpec("fig5a")
          .axis("elem/idx",
                {size_pair(32, 32), size_pair(32, 16), size_pair(64, 32),
                 size_pair(32, 8), size_pair(64, 16), size_pair(128, 32),
                 size_pair(64, 8), size_pair(128, 16), size_pair(256, 32),
                 size_pair(128, 8), size_pair(256, 16), size_pair(256, 8)})
          .axis("banks", {banks_value(8), banks_value(11), banks_value(16),
                          banks_value(17), banks_value(31), banks_value(32),
                          banks_value(0)})
          .axis("coalesce", {coalesce_value(0), coalesce_value(32)})
          .runner([](const sys::GridPoint& p) {
            sys::SensitivityConfig cfg;
            cfg.indirect = true;
            cfg.elem_bits = static_cast<unsigned>(p.param("elem_bits"));
            cfg.index_bits = static_cast<unsigned>(p.param("index_bits"));
            cfg.banks = static_cast<unsigned>(p.param("banks"));
            cfg.coalesce_entries =
                static_cast<std::size_t>(p.param("coalesce_entries"));
            cfg.num_bursts = p.quick ? 2 : 6;
            sys::PointResult out;
            out.run = sys::measure_read_utilization(cfg);
            out.metrics["r_util"] = out.run.r_util;
            const double r = p.param("elem_bits") / p.param("index_bits");
            out.metrics["bound"] = r / (r + 1.0);
            return out;
          }));
  std::printf("\npaper shape: monotone in bank count; bounded by r/(r+1); "
              "larger elements or\nsmaller indices push utilization beyond "
              "the workload results of Fig. 3a\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  return axipack::bench::run_bench_main(argc, argv, emit);
}
