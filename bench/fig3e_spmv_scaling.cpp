// Fig. 3e: spmv PACK speedup over BASE versus average nonzeros per row
// (2..390) and bus width.
//
// Paper reference: speedups converge to 1.4x / 1.8x / 2.4x for 64/128/256
// bit; the nonzeros per row set stream length per row iteration, so the
// scaling mirrors Fig. 3d.
#include "bench_common.hpp"

namespace {

using namespace axipack;

sys::AxisValue nnz_value(std::uint32_t nnz) {
  return sys::AxisValue::config(std::to_string(nnz),
                                [nnz](wl::WorkloadConfig& c) {
                                  c.nnz_per_row = nnz;
                                  // Keep total work bounded across the sweep.
                                  c.n = nnz >= 128 ? 256u : 512u;
                                });
}

void emit(bench::BenchContext& ctx) {
  bench::figure_header("Fig. 3e", "spmv PACK speedup scaling");
  const auto& results = ctx.run(
      sys::ExperimentSpec("fig3e")
          .kernels_axis({wl::KernelKind::spmv})
          .axis("nnz/row", {nnz_value(2), nnz_value(8), nnz_value(24),
                            nnz_value(64), nnz_value(128), nnz_value(256),
                            nnz_value(390)})
          .axis("bus", {sys::AxisValue::bus_bits(64),
                        sys::AxisValue::bus_bits(128),
                        sys::AxisValue::bus_bits(256)})
          .systems_axis({sys::SystemKind::base, sys::SystemKind::pack})
          .baseline("system", "base"));

  double converged[3] = {0, 0, 0};
  const char* buses[] = {"64", "128", "256"};
  for (int i = 0; i < 3; ++i) {
    const auto* row = results.find(
        {{"nnz/row", "390"}, {"bus", buses[i]}, {"system", "pack"}});
    if (row != nullptr && row->speedup) converged[i] = *row->speedup;
  }
  std::printf("\npaper: converged speedups ~1.4x / 1.8x / 2.4x  —  "
              "measured at nnz=390: %.1fx / %.1fx / %.1fx\n\n",
              converged[0], converged[1], converged[2]);
}

}  // namespace

int main(int argc, char** argv) {
  return axipack::bench::run_bench_main(argc, argv, emit);
}
