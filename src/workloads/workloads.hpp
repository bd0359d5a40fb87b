// Workload construction: each paper benchmark is built as (data in simulated
// memory, vector program, golden check). The same workload builds for all
// three systems; only the dataflow (row/col-wise) and indexing style
// (in-memory vs core-side) differ, mirroring the paper's methodology of
// running the fastest variant per system.
#pragma once

#include <functional>
#include <string>

#include "mem/backing_store.hpp"
#include "vproc/program.hpp"

namespace axipack::wl {

enum class KernelKind : std::uint8_t { ismt, gemv, trmv, spmv, prank, sssp };

enum class Dataflow : std::uint8_t { rowwise, colwise };

const char* kernel_name(KernelKind k);
bool kernel_is_indirect(KernelKind k);

struct WorkloadConfig {
  KernelKind kernel = KernelKind::gemv;
  std::uint32_t n = 256;             ///< matrix dimension / node count
  std::uint32_t nnz_per_row = 390;   ///< sparse workloads (heart1-like)
  Dataflow dataflow = Dataflow::colwise;  ///< gemv/trmv only
  bool in_memory_indices = true;     ///< vlimxei (PACK) vs vle+vluxei
  std::uint32_t iterations = 2;      ///< prank/sssp sweeps
  std::uint64_t seed = 42;
  std::uint32_t vlmax = 1024;
};

struct WorkloadInstance {
  vproc::VecProgram program;
  /// Verifies outputs in the memory image against a golden scalar
  /// reference; fills `msg` on mismatch.
  std::function<bool(const mem::BackingStore&, std::string&)> check;
  /// Useful data bytes the kernel must read (for reporting).
  std::uint64_t payload_read_bytes = 0;
};

/// Generates inputs into `store` and builds the program + golden check.
WorkloadInstance build_workload(mem::BackingStore& store,
                                const WorkloadConfig& cfg);

}  // namespace axipack::wl
