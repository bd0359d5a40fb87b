#include "systems/runner.hpp"

namespace axipack::sys {

wl::WorkloadConfig plan_workload(wl::KernelKind kernel,
                                 const SystemBuilder& builder) {
  wl::WorkloadConfig cfg;
  cfg.kernel = kernel;
  const vproc::VlsuMode mode =
      builder.primary_vlsu_mode().value_or(vproc::VlsuMode::pack);
  // Fastest dataflow per (system, memory): contiguous row-wise on BASE;
  // strided column-wise where strided streams are cheap (PACK/IDEAL on
  // SRAM-like memories); row-wise again for PACK over DRAM, whose column
  // strides thrash row buffers (see the header).
  const bool dram = builder.memory_kind() == mem::MemoryKind::dram;
  cfg.dataflow = mode == vproc::VlsuMode::base ||
                         (mode == vproc::VlsuMode::pack && dram)
                     ? wl::Dataflow::rowwise
                     : wl::Dataflow::colwise;
  // In-memory indirection exists only with an AXI-Pack VLSU.
  cfg.in_memory_indices = mode == vproc::VlsuMode::pack;
  if (wl::kernel_is_indirect(kernel)) {
    cfg.n = 512;
    cfg.nnz_per_row = 390;  // heart1-like density (paper §III-B)
  } else {
    cfg.n = 256;
  }
  return cfg;
}

wl::WorkloadConfig plan_workload(wl::KernelKind kernel,
                                 const std::string& scenario) {
  return plan_workload(kernel,
                       ScenarioRegistry::instance().builder(scenario));
}

RunResult run_workload(const SystemBuilder& builder,
                       const wl::WorkloadConfig& wl_cfg) {
  std::unique_ptr<System> system = builder.build();
  const wl::WorkloadInstance instance =
      wl::build_workload(system->store(), wl_cfg);
  return system->run(instance);
}

RunResult run_workload(const std::string& scenario,
                       const wl::WorkloadConfig& wl_cfg) {
  return run_workload(ScenarioRegistry::instance().builder(scenario),
                      wl_cfg);
}

RunResult run_default(wl::KernelKind kernel, SystemKind kind,
                      unsigned bus_bits, unsigned banks) {
  const SystemBuilder builder = ScenarioRegistry::instance().builder(
      scenario_name(kind, bus_bits, banks));
  return run_workload(builder, plan_workload(kernel, builder));
}

}  // namespace axipack::sys
