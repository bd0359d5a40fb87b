// Fig. 9 (extension): fault tolerance — goodput and recovery cost under
// injected fault rate x master retry budget on the PACK DRAM SoC.
//
// The fault plan injects the default mixed profile (link bit flips, burst
// truncations and stalls, ECC-correctable and uncorrectable DRAM reads,
// dropped writes, packed-beat corruption) at F times the base rates; the
// masters recover through bounded retry with exponential backoff. Swept
// here: F in {0, 20, 100, 400} against a total-attempt budget in
// {1, 2, 4}, for one indirect and one strided kernel.
//
// Measured shape: budget 1 (error detection without replay) loses data
// on the first uncorrectable event at every nonzero rate. Budget >= 2
// absorbs moderate rates — goodput (payload bytes per cycle) sags only
// by the replayed bursts and backoff windows — and the curve finally
// knees at the extreme F = 400 point, where per-attempt failure
// probability compounds faster than the budget grows. (Faults are
// per-event, so full-size runs inject proportionally more per op and
// the knee moves leftward without --quick.) The speedup
// column (baseline join on f0) prices recovery directly;
// `recovery_cyc` is that price per retry.
#include "bench_common.hpp"

namespace {

using namespace axipack;

sys::AxisValue budget_value(unsigned attempts) {
  sys::AxisValue v = sys::AxisValue::shaped(
      std::string("r").append(std::to_string(attempts)),
      [attempts](sys::PointDraft& d) {
        d.builder_patches.push_back([attempts](sys::SystemBuilder& b) {
          sim::RetryConfig rc;
          rc.max_attempts = attempts;
          rc.timeout_cycles = 50'000;
          rc.backoff = 16;
          b.retry(rc);
        });
      });
  return v;
}

void emit(bench::BenchContext& ctx) {
  bench::figure_header(
      "Fig. 9", "fault tolerance (fault-rate scale x retry budget)");

  // Fault axis: the parametric pack-256-dram-f{F} family (f0 = plan
  // attached, zero rates — the fault-free baseline on identical wiring).
  std::vector<sys::AxisValue> rates;
  for (const unsigned scale : {0u, 20u, 100u, 400u}) {
    std::string label = "f";
    label.append(std::to_string(scale));
    sys::AxisValue v = sys::AxisValue::scenario("pack-256-dram-" + label);
    v.label = std::move(label);
    rates.push_back(std::move(v));
  }

  auto spec = sys::ExperimentSpec("fig9")
                  .kernels_axis({wl::KernelKind::spmv, wl::KernelKind::gemv})
                  .axis("fault", std::move(rates))
                  .axis("budget", {budget_value(1), budget_value(2),
                                   budget_value(4)})
                  .baseline("fault", "f0");
  sys::ResultSet results = ctx.prepare(spec).run();

  // Goodput and recovery accounting on every row; recovery latency per
  // retry against the row's f0 partner.
  unsigned lost_r1 = 0;
  unsigned lost_budgeted = 0;
  for (sys::ResultRow& row : results.mutable_rows()) {
    const sys::RunResult& r = row.run;
    if (r.cycles == 0) continue;
    row.metrics["goodput_bpc"] =
        static_cast<double>(r.bus.r_payload_bytes) /
        static_cast<double>(r.cycles);
    row.metrics["faults"] = static_cast<double>(r.faults_injected);
    row.metrics["retries"] = static_cast<double>(r.retries);
    row.metrics["failed"] = static_cast<double>(r.failed_ops);
    if (r.failed_ops > 0) {
      if (row.coord("budget") == "r1") ++lost_r1;
      else ++lost_budgeted;
    }
    if (row.coord("fault") == "f0") continue;
    const auto* base = results.find({{"kernel", row.coord("kernel")},
                                     {"fault", "f0"},
                                     {"budget", row.coord("budget")}});
    const std::uint64_t recov = r.retries + r.retry_timeouts;
    if (base != nullptr && base->run.cycles != 0 && recov > 0 &&
        r.cycles > base->run.cycles) {
      row.metrics["recovery_cyc"] =
          static_cast<double>(r.cycles - base->run.cycles) /
          static_cast<double>(recov);
    }
  }
  ctx.report(std::move(results));
  std::printf("\nshape: budget 1 detects but cannot recover — %u run(s) "
              "lost data at nonzero rates, as expected; budgets >= 2 "
              "absorbed all faults except %u run(s) at the extreme-rate "
              "knee, trading goodput for replay + backoff\n\n",
              lost_r1, lost_budgeted);
}

}  // namespace

int main(int argc, char** argv) {
  return axipack::bench::run_bench_main(argc, argv, emit);
}
