// Fig. 8 (extension): near-memory index coalescing on the pack indirect
// path — pending-table entries x grouping window over the three indirect
// kernels on the DRAM backend.
//
// The row-aware batching scheduler (fig7) recovers most of the indirect
// DRAM gap, but the gather stream it sees is still index-ordered: duplicate
// indices fetch the same word repeatedly and same-row accesses arrive
// interleaved with unrelated rows, capping pack-dram's row-hit ratio below
// the base-dram reference. The coalescer attacks both at the source — an
// MSHR-style pending table merges duplicate element words before they
// reach memory, and a bounded grouping window reorders index-derived
// requests so same-bank/same-row fetches leave the adapter adjacent (the
// index stage moves onto parallel lanes so neither stream stalls the
// other).
//
// Sweep: coalescer off (the plain pack-dram wiring, baseline join) against
// every entries x window point, spmv/prank/sssp. Measured shape: the
// indirect kernels' index reuse is across gather vectors, not within one,
// so merging only engages once the pending table retains a full vector's
// worth of element words (512 at the evaluation sizes) — below that the
// table cycles before the duplicates recur and merged stays near zero.
// The grouping window and the bank-partitioned sticky arbitration carry
// the row-hit ratio to/above the base-dram level; the defaults (x512-g16)
// sit just past both knees.
#include "bench_common.hpp"

namespace {

using namespace axipack;

void emit(bench::BenchContext& ctx) {
  bench::figure_header(
      "Fig. 8", "index coalescing sensitivity (pending entries x window)");
  const std::size_t entries[] = {16, 128, 512};
  const std::size_t windows[] = {1, 16, 64};

  // One flattened coalescer axis: the coalescer-off pack-dram wiring
  // (baseline) plus every entries x window point.
  std::vector<sys::AxisValue> points;
  auto off = sys::AxisValue::scenario("pack-dram");
  off.label = "off";
  points.push_back(std::move(off));
  for (const std::size_t e : entries) {
    for (const std::size_t w : windows) {
      std::string label = "x";
      label.append(std::to_string(e)).append("-g").append(std::to_string(w));
      sys::AxisValue v = sys::AxisValue::scenario("pack-256-dram-" + label);
      v.label = std::move(label);
      points.push_back(std::move(v));
    }
  }

  const auto& results = ctx.run(
      sys::ExperimentSpec("fig8")
          .kernels_axis({wl::KernelKind::spmv, wl::KernelKind::prank,
                         wl::KernelKind::sssp})
          .axis("coalesce", std::move(points))
          .baseline("coalesce", "off"));
  std::printf("\nshape: merging engages once the table retains a full "
              "gather vector (x512); window + sticky arbitration lift the "
              "row-hit ratio past the base-dram level at the defaults "
              "(x512-g16)\n");
  std::printf("all workloads verified: %s\n\n",
              results.all_correct() ? "yes" : "NO");
}

}  // namespace

int main(int argc, char** argv) {
  return axipack::bench::run_bench_main(argc, argv, emit);
}
