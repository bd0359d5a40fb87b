// In-situ matrix transpose (the paper's `ismt` benchmark) on all three
// evaluation systems, printing cycles, read-bus utilization and the
// PACK-over-BASE speedup — the paper's headline strided result.
//
// Usage: transpose_demo [matrix_dim]     (default 128)
#include <array>
#include <cstdio>
#include <iostream>

#include "size_args.hpp"
#include "systems/runner.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace axipack;
  const auto [n] =
      examples::size_args(argc, argv, std::array{128u}, "[matrix_dim]");

  std::printf("ismt: in-situ transpose of a %ux%u FP32 matrix\n\n", n, n);
  util::Table table({"system", "cycles", "R util", "W util", "speedup",
                     "correct"});
  std::uint64_t base_cycles = 0;
  bool all_correct = true;
  for (const auto kind : {sys::SystemKind::base, sys::SystemKind::pack,
                          sys::SystemKind::ideal}) {
    auto wl_cfg = sys::plan_workload(wl::KernelKind::ismt, sys::scenario_name(kind));
    wl_cfg.n = n;
    const auto result =
        sys::run_workload(sys::scenario_name(kind), wl_cfg);
    if (kind == sys::SystemKind::base) base_cycles = result.cycles;
    all_correct &= result.correct;
    table.row()
        .cell(sys::system_name(kind))
        .cell(result.cycles)
        .cell(util::fmt_pct(result.r_util))
        .cell(util::fmt_pct(result.w_util))
        .cell(static_cast<double>(base_cycles) / result.cycles, 2)
        .cell(result.correct ? "yes" : ("NO: " + result.error));
  }
  table.print(std::cout);
  std::printf("\npaper (n=256, 256b bus): PACK speedup 5.4x, PACK R util "
              "~50%% (read-write ordering)\n");
  return all_correct ? 0 : 1;
}
