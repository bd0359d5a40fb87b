// Fig. 3a: speedups over BASE and read-bus utilizations (with and without
// index traffic) for all six workloads on the three systems.
//
// Paper reference points (256-bit bus): peak speedups 5.4x (ismt) strided /
// 2.4x (spmv) indirect; bus utilizations up to 87% (gemv) / 39% (sssp);
// PACK reaches ~97% of IDEAL on average.
#include "bench_common.hpp"

namespace {

using namespace axipack;

struct PaperRef {
  wl::KernelKind kernel;
  double pack_speedup;  ///< approximate bar heights from Fig. 3a
  double ideal_speedup;
  double pack_r_util;
};

// Reference values read from the published figure (approximate where the
// paper gives no exact number in the text).
const PaperRef kPaper[] = {
    {wl::KernelKind::ismt, 5.4, 5.9, 0.50},
    {wl::KernelKind::gemv, 2.4, 2.5, 0.87},
    {wl::KernelKind::trmv, 2.0, 2.1, 0.72},
    {wl::KernelKind::spmv, 2.4, 2.5, 0.33},
    {wl::KernelKind::prank, 2.2, 2.3, 0.35},
    {wl::KernelKind::sssp, 2.1, 2.2, 0.39},
};

void emit(bench::BenchContext& ctx) {
  bench::figure_header("Fig. 3a", "speedups and R-bus utilizations");
  const auto& results = ctx.run(
      sys::ExperimentSpec("fig3a")
          .kernels_axis({wl::KernelKind::ismt, wl::KernelKind::gemv,
                         wl::KernelKind::trmv, wl::KernelKind::spmv,
                         wl::KernelKind::prank, wl::KernelKind::sssp})
          .systems_axis({sys::SystemKind::base, sys::SystemKind::pack,
                         sys::SystemKind::ideal})
          .baseline("system", "base"));

  double frac_sum = 0.0;
  int frac_count = 0;
  for (const PaperRef& ref : kPaper) {
    const auto* pack =
        results.find({{"kernel", wl::kernel_name(ref.kernel)},
                      {"system", "pack"}});
    const auto* ideal =
        results.find({{"kernel", wl::kernel_name(ref.kernel)},
                      {"system", "ideal"}});
    if (pack == nullptr || ideal == nullptr) continue;
    frac_sum += static_cast<double>(ideal->run.cycles) / pack->run.cycles;
    ++frac_count;
    std::printf("%-5s paper: pack %.1fx / ideal %.1fx / R-util %s  —  "
                "measured: pack %s / ideal %s / R-util %s\n",
                wl::kernel_name(ref.kernel), ref.pack_speedup,
                ref.ideal_speedup, util::fmt_pct(ref.pack_r_util).c_str(),
                pack->speedup ? (util::fmt(*pack->speedup, 2) + "x").c_str()
                              : "-",
                ideal->speedup
                    ? (util::fmt(*ideal->speedup, 2) + "x").c_str()
                    : "-",
                util::fmt_pct(pack->run.r_util).c_str());
  }
  if (frac_count > 0) {
    std::printf("\nPACK reaches %.1f%% of IDEAL on average (paper: 97%%)\n",
                frac_sum / frac_count * 100.0);
  }
  std::printf("all workloads verified: %s\n\n",
              results.all_correct() ? "yes" : "NO");
}

}  // namespace

int main(int argc, char** argv) {
  return axipack::bench::run_bench_main(argc, argv, emit);
}
