// Fig. 3b: gemv row-wise vs column-wise dataflows on all three systems.
//
// Paper reference: row-wise flows are contiguous, so BASE == PACK ~= IDEAL,
// but reductions cap BASE utilization at 37%. Column-wise flows hit 87%
// utilization on PACK and are fastest overall on PACK/IDEAL, while on BASE
// the per-element strided cost makes column-wise the worst option.
#include "bench_common.hpp"

namespace {

using namespace axipack;

void emit(bench::BenchContext& ctx) {
  bench::figure_header("Fig. 3b", "gemv dataflows compared (n=256)");
  ctx.run(
      sys::ExperimentSpec("fig3b")
          .kernels_axis({wl::KernelKind::gemv})
          .axis("dataflow",
                {sys::AxisValue::dataflow(wl::Dataflow::rowwise),
                 sys::AxisValue::dataflow(wl::Dataflow::colwise)})
          .systems_axis({sys::SystemKind::base, sys::SystemKind::pack,
                         sys::SystemKind::ideal}));
  std::printf("\npaper: BASE row-wise R util ~37%%, PACK col-wise R util "
              "~87%%\n");
  std::printf("paper shape: col-wise slowest on BASE, fastest on "
              "PACK/IDEAL; row-wise nearly\nidentical across systems\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  return axipack::bench::run_bench_main(argc, argv, emit);
}
