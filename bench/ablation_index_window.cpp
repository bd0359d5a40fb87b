// Ablation: index prefetch window of the indirect converters.
//
// The indirect read converter (paper Fig. 2d) buffers a window of fetched
// indices between its index stage and element stage. The window size is the
// indirect path's central head-of-line knob: it bounds how far index
// fetching may run ahead of element fetching, so a window that is too small
// starves the element stage on bank-conflict bubbles, while a large window
// costs area (one register per pending index). This sweep measures indirect
// read utilization versus window size (in bus lines) across index sizes and
// bank counts. The adapter defaults to 4 lines in SRAM system runs and 8 in
// the sensitivity harness; on DRAM the builder sizes the window to the
// memory loop, one line per cycle of it (AxiPackAdapter::memory_loop_latency:
// the row miss, plus the port mux's sticky hold when coalescing), so 30
// lines on pack-dram and 62 on the coalesced adapter.
#include "bench_common.hpp"
#include "systems/sensitivity.hpp"

namespace {

using namespace axipack;

sys::AxisValue memory_value(unsigned banks) {
  return sys::AxisValue::shaped(
      banks == 0 ? "ideal" : std::to_string(banks) + "b",
      [banks](sys::PointDraft& d) { d.params["banks"] = banks; });
}

void emit(bench::BenchContext& ctx) {
  bench::figure_header("Ablation",
                       "indirect index-window size (bus lines of indices)");
  ctx.run(
      sys::ExperimentSpec("ablation-index-window")
          .param_axis("window", "window_lines", {1, 2, 4, 8, 16, 32})
          .param_axis("index_bits", "index_bits", {32, 8})
          .axis("memory", {memory_value(17), memory_value(0)})
          .runner([](const sys::GridPoint& p) {
            sys::SensitivityConfig cfg;
            cfg.indirect = true;
            cfg.index_bits = static_cast<unsigned>(p.param("index_bits"));
            cfg.idx_window_lines =
                static_cast<unsigned>(p.param("window_lines"));
            cfg.banks = static_cast<unsigned>(p.param("banks"));
            if (p.quick) cfg.num_bursts = 2;
            sys::PointResult out;
            out.metrics["r_util"] =
                sys::measure_read_utilization(cfg).r_util;
            return out;
          }));
  std::printf("\ndesign takeaway: the window needs to cover the per-lane "
              "run-ahead the decoupling\nqueues allow; small indices pack "
              "more entries per line, so 8-bit indices saturate\nwith fewer "
              "lines while 32-bit indices want a deeper window on conflict-"
              "prone banks.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  return axipack::bench::run_bench_main(argc, argv, emit);
}
