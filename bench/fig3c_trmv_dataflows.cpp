// Fig. 3c: trmv row-wise vs column-wise dataflows on all three systems.
//
// Paper reference: as for gemv but with shorter (triangular) streams —
// BASE row-wise utilization drops to 23%, PACK column-wise reaches 72%.
#include "bench_common.hpp"

namespace {

using namespace axipack;

void emit(bench::BenchContext& ctx) {
  bench::figure_header("Fig. 3c", "trmv dataflows compared (n=256)");
  ctx.run(
      sys::ExperimentSpec("fig3c")
          .kernels_axis({wl::KernelKind::trmv})
          .axis("dataflow",
                {sys::AxisValue::dataflow(wl::Dataflow::rowwise),
                 sys::AxisValue::dataflow(wl::Dataflow::colwise)})
          .systems_axis({sys::SystemKind::base, sys::SystemKind::pack,
                         sys::SystemKind::ideal}));
  std::printf("\npaper: BASE row-wise R util ~23%%, PACK col-wise R util "
              "~72%%\n");
  std::printf("paper shape: same as gemv with lower utilizations from "
              "shorter triangular streams\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  return axipack::bench::run_bench_main(argc, argv, emit);
}
