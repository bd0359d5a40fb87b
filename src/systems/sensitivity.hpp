// Stream-measurement recipes: builder setups whose attach_stream() masters
// (the paper's "ideal requestor") keep issuing read bursts and are measured
// by System::run_streams through the same stats path as every other run.
//
// Parameter sensitivity (paper §III-E): one stream master issues continuous
// pack read bursts of length 256 at the adapter over a 256-bit bus and
// the steady-state read-bus utilization is recorded, sweeping element size,
// index size and bank count (Figs. 5a/5b). Decoupling queues are deepened
// to 32 "to avoid bottlenecks unrelated to the analysis", as in the paper.
//
// Channel scaling (the fig10 extension): M stream masters read disjoint
// contiguous regions through the channel-interleaved DRAM fabric. With
// granule-sized bursts each master's stream round-robins the channels, so
// aggregate utilization (Σ per-channel r_util) scales with
// min(masters, channels) until the DRAM backends saturate.
//
// Every recipe aborts with a diagnostic naming the point when its run does
// not complete (timeout or fabric error) instead of reporting a partial run.
#pragma once

#include <cstdint>

#include "mem/dram_timing.hpp"
#include "systems/system.hpp"

namespace axipack::sys {

struct SensitivityConfig {
  unsigned banks = 17;        ///< 0 = ideal (conflict-free) memory
  unsigned elem_bits = 32;    ///< 32..256
  unsigned index_bits = 32;   ///< 8/16/32 (indirect only)
  bool indirect = false;
  std::int64_t stride_elems = 1;  ///< element stride (strided only)
  unsigned queue_depth = 32;
  unsigned idx_window_lines = 8;  ///< indirect index prefetch window
  /// >0 enables the index coalescing unit with this pending-table size
  /// (indirect only; 0 keeps the plain shared-lane indirect path).
  std::size_t coalesce_entries = 0;
  unsigned burst_beats = 256;
  unsigned num_bursts = 8;
  bool naive_kernel = false;  ///< equivalence testing: disable gating
};

/// Runs the configured read stream to completion on a bare (unmonitored)
/// fabric; r_util is the drained payload against the bus capacity.
RunResult measure_read_utilization(const SensitivityConfig& cfg);

/// Fig. 5b datapoint: utilization averaged across element strides
/// 0..max_stride, run serially.
double strided_util_avg(unsigned elem_bits, unsigned banks,
                        unsigned max_stride = 63);

/// Channel-scaling point: `masters` stream masters each read
/// `bytes_per_master` contiguous bytes through `channels` interleaved DRAM
/// channels (4 KiB granule) under `mapping`.
RunResult measure_channel_streams(unsigned channels, unsigned masters,
                                  mem::DramMapping mapping,
                                  std::uint64_t bytes_per_master,
                                  bool naive_kernel = false);

}  // namespace axipack::sys
