// Fig. 3d: ismt PACK speedup over BASE versus matrix dimension (8..256)
// and bus width (64/128/256 bit, i.e. 2/4/8 lanes).
//
// Paper reference: speedups converge with matrix size and reach up to
// 1.9x / 3.2x / 5.4x for 64/128/256-bit buses; short matrices are
// bottlenecked by row-iteration overhead; AXI-Pack never slows down.
#include "bench_common.hpp"

namespace {

using namespace axipack;

sys::AxisValue dim_value(std::uint32_t n) {
  return sys::AxisValue::config(std::to_string(n),
                                [n](wl::WorkloadConfig& c) { c.n = n; });
}

void emit(bench::BenchContext& ctx) {
  bench::figure_header("Fig. 3d", "ismt PACK speedup scaling");
  const auto& results = ctx.run(
      sys::ExperimentSpec("fig3d")
          .kernels_axis({wl::KernelKind::ismt})
          .axis("dim", {dim_value(8), dim_value(16), dim_value(32),
                        dim_value(64), dim_value(128), dim_value(192),
                        dim_value(256)})
          .axis("bus", {sys::AxisValue::bus_bits(64),
                        sys::AxisValue::bus_bits(128),
                        sys::AxisValue::bus_bits(256)})
          .systems_axis({sys::SystemKind::base, sys::SystemKind::pack})
          .baseline("system", "base"));

  double converged[3] = {0, 0, 0};
  const char* buses[] = {"64", "128", "256"};
  for (int i = 0; i < 3; ++i) {
    const auto* row = results.find(
        {{"dim", "256"}, {"bus", buses[i]}, {"system", "pack"}});
    if (row != nullptr && row->speedup) converged[i] = *row->speedup;
  }
  std::printf("\npaper: converged speedups ~1.9x / 3.2x / 5.4x  —  "
              "measured at n=256: %.1fx / %.1fx / %.1fx\n",
              converged[0], converged[1], converged[2]);
  std::printf("paper: AXI-Pack never causes a slowdown (speedup >= 1 even "
              "at n=8)\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  return axipack::bench::run_bench_main(argc, argv, emit);
}
