// Workload planning and one-call running.
//
// Two layers build on this file:
//
//   * plan_workload — the paper's methodology, made backend-aware: given a
//     kernel and the SystemBuilder that will run it, pick the fastest
//     workload variant for that (kernel, system, memory backend) triple.
//   * run_workload / run_default — resolve a scenario (or take an explicit
//     builder), build a fresh system + workload, run to completion and
//     verify.
//
// Sets of runs (scenario × kernel × knob sweeps, on the SweepRunner thread
// pool, with baseline joins and table/CSV/JSON emission) use the
// declarative layer in systems/experiment.hpp, whose default point runner
// is run_workload.
#pragma once

#include <string>

#include "systems/scenario.hpp"
#include "systems/system.hpp"
#include "workloads/workloads.hpp"

namespace axipack::sys {

/// Applies the paper's methodology for a (kernel, system) pair — run the
/// fastest variant per system — with the PR-5 extension that the choice
/// sees the *resolved memory backend*, not just the system kind:
///
///   * BASE always streams row-wise (contiguous bursts are all it has).
///   * PACK/IDEAL gemv/trmv run column-wise on SRAM-like backends, where
///     strided streams are cheap (paper Figs. 3b/3c).
///   * PACK on the DRAM model runs gemv/trmv row-wise: column strides
///     hop DRAM rows faster than any scheduler window can re-localize
///     them, while row-wise streams hit the open row at ~99% — the
///     ROADMAP "residual DRAM gap" this rule closes.
///   * In-memory indirection only exists with an AXI-Pack VLSU.
///
/// Builders without a processor master plan as PACK (the adapter is still
/// the endpoint; DMA-driven studies override the config anyway).
wl::WorkloadConfig plan_workload(wl::KernelKind kernel,
                                 const SystemBuilder& builder);

/// Convenience: plans against the named scenario's registered builder.
wl::WorkloadConfig plan_workload(wl::KernelKind kernel,
                                 const std::string& scenario);

/// Builds the system from an explicit builder, runs to completion, verifies.
RunResult run_workload(const SystemBuilder& builder,
                       const wl::WorkloadConfig& wl_cfg);

/// Builds the system from a scenario name, runs to completion, verifies.
RunResult run_workload(const std::string& scenario,
                       const wl::WorkloadConfig& wl_cfg);

/// Convenience: run `kernel` with the planned methodology config on the
/// "{kind}-{bus_bits}-{banks}b" scenario.
RunResult run_default(wl::KernelKind kernel, SystemKind kind,
                      unsigned bus_bits = 256, unsigned banks = 17);

}  // namespace axipack::sys
