// Fig. 5b: strided-read bus utilization versus element size and bank count,
// averaged across element strides 0..63.
//
// Paper reference: prime bank counts clearly win on strided accesses (no
// stride pathologies except multiples of the bank count); more banks help
// everywhere; larger elements see fewer conflicts. 17 banks deliver ~95% of
// ideal performance on strided reads.
#include "bench_common.hpp"
#include "systems/sensitivity.hpp"

namespace {

using namespace axipack;

void emit(bench::BenchContext& ctx) {
  bench::figure_header("Fig. 5b",
                       "strided read utilization (avg over strides 0..63)");
  const auto& results = ctx.run(
      sys::ExperimentSpec("fig5b")
          .param_axis("elem_bits", "elem_bits", {32, 64, 128, 256})
          .param_axis("banks", "banks", {8, 11, 16, 17, 31, 32})
          .runner([](const sys::GridPoint& p) {
            sys::PointResult out;
            out.metrics["r_util_avg"] = sys::strided_util_avg(
                static_cast<unsigned>(p.param("elem_bits")),
                static_cast<unsigned>(p.param("banks")),
                /*max_stride=*/p.quick ? 15 : 63);
            return out;
          }));
  double util17_sum = 0.0;
  int util17_count = 0;
  for (const sys::ResultRow& row : results.rows()) {
    if (row.coord("banks") != "17") continue;
    util17_sum += row.metrics.at("r_util_avg");
    ++util17_count;
  }
  if (util17_count > 0) {
    std::printf("\n17-bank average across element sizes: %.1f%% "
                "(paper: ~95%% of ideal on strided reads)\n",
                util17_sum / util17_count * 100.0);
  }
  std::printf("paper shape: prime counts beat power-of-two; utilization "
              "rises with banks and element size\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  return axipack::bench::run_bench_main(argc, argv, emit);
}
