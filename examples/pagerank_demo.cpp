// PageRank on a synthetic digraph, run on the PACK system with AXI-Pack
// in-memory indirection. Demonstrates a complete application on top of the
// library: generation, iterative vector kernels, convergence checking
// against the golden reference, and performance/energy reporting.
//
// Usage: pagerank_demo [nodes] [avg_degree] [iterations]
#include <array>
#include <cstdio>
#include <iostream>

#include "energy/power_model.hpp"
#include "size_args.hpp"
#include "systems/runner.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace axipack;
  const auto [nodes, degree, iters] =
      examples::size_args(argc, argv, std::array{256u, 32u, 8u},
                          "[nodes] [avg_degree] [iterations]");

  std::printf("pagerank: %u nodes, avg in-degree %u, %u iterations\n\n", nodes,
              degree, iters);

  util::Table table({"system", "cycles", "R util", "power (mW)",
                     "energy (uJ)", "correct"});
  sys::RunResult base_result;
  energy::PowerEstimate base_power;
  bool all_correct = true;
  for (const auto kind : {sys::SystemKind::base, sys::SystemKind::pack}) {
    auto wl_cfg = sys::plan_workload(wl::KernelKind::prank, sys::scenario_name(kind));
    wl_cfg.n = nodes;
    wl_cfg.nnz_per_row = degree;
    wl_cfg.iterations = iters;
    const auto result = sys::run_workload(sys::scenario_name(kind), wl_cfg);
    const auto power = energy::estimate(result);
    all_correct &= result.correct;
    if (kind == sys::SystemKind::base) {
      base_result = result;
      base_power = power;
    }
    table.row()
        .cell(sys::system_name(kind))
        .cell(result.cycles)
        .cell(util::fmt_pct(result.r_util))
        .cell(power.power_mw, 1)
        .cell(power.energy_uj, 2)
        .cell(result.correct ? "yes" : ("NO: " + result.error));
    if (kind == sys::SystemKind::pack) {
      std::printf("\n");
      table.print(std::cout);
      std::printf("\nspeedup:            %.2fx\n",
                  static_cast<double>(base_result.cycles) / result.cycles);
      std::printf("energy efficiency:  %.2fx (paper: up to 2.1x on indirect "
                  "workloads)\n",
                  energy::efficiency_gain(base_power, base_result.cycles,
                                          power, result.cycles));
    }
  }
  return all_correct ? 0 : 1;
}
