// Internal: per-kernel builders shared between the two kernel TUs.
#pragma once

#include "workloads/workloads.hpp"

namespace axipack::wl::detail {

/// Scalar-core cycles per inner loop iteration of every kernel.
inline constexpr std::uint32_t kLoopOverhead = 4;

WorkloadInstance build_ismt(mem::BackingStore& store,
                            const WorkloadConfig& cfg);
WorkloadInstance build_gemv(mem::BackingStore& store,
                            const WorkloadConfig& cfg);
WorkloadInstance build_trmv(mem::BackingStore& store,
                            const WorkloadConfig& cfg);
WorkloadInstance build_spmv(mem::BackingStore& store,
                            const WorkloadConfig& cfg);
WorkloadInstance build_prank(mem::BackingStore& store,
                             const WorkloadConfig& cfg);
WorkloadInstance build_sssp(mem::BackingStore& store,
                            const WorkloadConfig& cfg);

}  // namespace axipack::wl::detail
