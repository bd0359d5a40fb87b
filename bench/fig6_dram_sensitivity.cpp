// Fig. 6 (extension): packed-bus utilization over the DRAM backend as a
// function of row-buffer locality and address-mapping policy.
//
// The paper evaluates AXI-Pack against on-chip banked SRAM; this sweep
// re-runs the strided (ismt) and indirect (spmv) headline kernels on the
// BASE and PACK SoCs over the cycle-level DRAM model, sweeping the
// row-buffer size (which moves the achieved row-hit ratio) under both
// address-mapping policies.
//
// Measured shape (and the point of the figure): PACK's utilization and
// speedup track the row-hit ratio — on strided kernels its wide packed
// beats monetize large row buffers (speedup grows with row size, most
// visibly under row-interleaved mapping where BASE serializes on one
// bank). On indirect kernels PACK's fine-grained index/gather interleaving
// used to ping-pong banks between regions and thrash row buffers (the
// PR-3 "DRAM finding"); the row-aware batching scheduler (the default —
// see bench/fig7_row_batching for its sensitivity) coalesces same-row
// requests across the per-port lookahead windows, so PACK now beats BASE
// across the grid. Disable it with sched_window 1 to reproduce the thrash.
#include "bench_common.hpp"
#include "mem/dram_timing.hpp"

namespace {

using namespace axipack;

sys::AxisValue mapping_value(mem::DramMapping mapping) {
  return sys::AxisValue::shaped(
      mem::dram_mapping_name(mapping), [mapping](sys::PointDraft& d) {
        d.params["mapping"] = static_cast<double>(static_cast<int>(mapping));
      });
}

/// System axis value that also retargets the SoC onto the DRAM model
/// with the timing the earlier axes parameterized. `coalesce` additionally
/// enables the index coalescing unit (pack only; default entries/window).
sys::AxisValue dram_system(sys::SystemKind kind, bool coalesce = false,
                           const char* label = nullptr) {
  return sys::AxisValue::shaped(
      label != nullptr ? label : sys::system_name(kind),
      [kind, coalesce](sys::PointDraft& d) {
        d.kind = kind;
        const auto mapping = static_cast<mem::DramMapping>(
            static_cast<int>(d.param("mapping")));
        const unsigned rw = static_cast<unsigned>(d.param("row_words"));
        d.builder_patches.push_back(
            [mapping, rw, coalesce](sys::SystemBuilder& b) {
              mem::DramTimingConfig t;
              t.mapping = mapping;
              t.row_words = rw;
              b.memory(mem::MemoryKind::dram).dram_timing(t);
              if (coalesce) b.coalescer(true);
            });
      });
}

void emit(bench::BenchContext& ctx) {
  bench::figure_header(
      "Fig. 6", "DRAM row-buffer sensitivity (base-dram vs pack-dram)");
  const auto& results = ctx.run(
      sys::ExperimentSpec("fig6")
          .kernels_axis({wl::KernelKind::ismt, wl::KernelKind::spmv})
          .axis("mapping",
                {mapping_value(mem::DramMapping::permuted),
                 mapping_value(mem::DramMapping::bank_interleaved),
                 mapping_value(mem::DramMapping::row_interleaved)})
          .param_axis("row_words", "row_words", {32, 64, 128, 256, 512})
          .axis("system",
                {dram_system(sys::SystemKind::base),
                 dram_system(sys::SystemKind::pack),
                 dram_system(sys::SystemKind::pack, /*coalesce=*/true,
                             "pack-co")})
          .baseline("system", "base")
          .configure([](wl::WorkloadConfig& c) {
            c.n = 192;
            c.nnz_per_row = 64;
          }));
  std::printf("\nshape: PACK utilization/speedup track the row-hit ratio — "
              "strided kernels monetize large rows; row-aware batching "
              "(fig7) keeps indirect kernels from thrashing row buffers\n");
  std::printf("all workloads verified: %s\n\n",
              results.all_correct() ? "yes" : "NO");
}

}  // namespace

int main(int argc, char** argv) {
  return axipack::bench::run_bench_main(argc, argv, emit);
}
