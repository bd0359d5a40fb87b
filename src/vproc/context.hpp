// Shared execution state for the vector processor's units (VLSU load/store
// units, VFU) and the sequencer: configuration, in-flight op tracking for
// chaining and hazards, and activity counters for the energy model.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>

#include "mem/backing_store.hpp"
#include "sim/fault.hpp"
#include "sim/probe.hpp"
#include "util/histogram.hpp"
#include "vproc/program.hpp"
#include "vproc/vrf.hpp"

namespace axipack::vproc {

/// How the VLSU reaches memory. This is the only difference between the
/// paper's three systems on the processor side.
enum class VlsuMode : std::uint8_t {
  base,   ///< plain AXI4: per-element narrow bursts for strided/indexed
  pack,   ///< AXI-Pack bursts for strided/indexed accesses
  ideal,  ///< exclusive ideal memory, one word port per lane
};

/// Max vector length in 32-bit elements (Ara's VRF at the paper's size).
inline constexpr unsigned kVlmax = 1024;

struct VProcConfig {
  VlsuMode mode = VlsuMode::pack;
  unsigned lanes = 8;         ///< elements/cycle compute and ideal-port width
  unsigned bus_bytes = 32;    ///< AXI data width (D); lanes == bus_bytes/4

  /// Master-side fault handling: per-op bounded retry with exponential
  /// backoff, a progress watchdog, and the pack-path circuit breaker.
  /// Disabled (max_attempts == 0) the VLSU behaves exactly as before —
  /// an errored response simply fails the op.
  sim::RetryConfig retry;
};

/// An issued, not-yet-retired vector instruction. `prod_elems` is the
/// element-granular progress consumers chain on.
struct InflightOp {
  VecOp op;
  std::uint64_t seq = 0;
  std::uint64_t prod_elems = 0;  ///< elements of vd produced so far
  bool done = false;
  /// Producer of vd at issue time. Accumulating ops (vfmacc) read vd, so
  /// they chain on this op's progress. Captured at issue — a later op may
  /// take over producer_of[vd], which must not affect earlier consumers.
  std::shared_ptr<InflightOp> vd_dep;
};

using OpRef = std::shared_ptr<InflightOp>;

/// State shared by sequencer and units.
struct ProcContext {
  VProcConfig cfg;
  Vrf vrf;
  mem::BackingStore* store = nullptr;  ///< functional memory image
  sim::Counters counters;

  /// Cached counter slots for per-beat/per-element increments (hot paths).
  struct Hot {
    std::uint64_t* vlsu_ar;
    std::uint64_t* vlsu_aw;
    std::uint64_t* vlsu_beats_rx;
    std::uint64_t* vlsu_bytes_rx;
    std::uint64_t* vlsu_beats_tx;
    std::uint64_t* vlsu_bytes_tx;
    std::uint64_t* vfu_elems;
    std::uint64_t* ideal_read_bytes;
    std::uint64_t* ideal_index_bytes;
    std::uint64_t* ideal_write_bytes;
  } hot{};

  // Hazard tracking.
  std::array<OpRef, 32> producer_of{};  ///< last writer of each vreg
  std::array<int, 32> readers{};        ///< in-flight ops reading each vreg
  unsigned loads_in_flight = 0;
  /// Seqs of issued, unretired stores, oldest first (the store unit
  /// retires in order).
  std::deque<std::uint64_t> stores_in_flight;
  // Stores that have not yet pushed all their W data. Loads stall on this
  // (not on outstanding B responses): once write data has left the core it
  // is ordered ahead of later reads at the memory ports, so Ara-style
  // read-write ordering only serializes up to the last W beat.
  unsigned stores_pending_w = 0;
  // W beats prior stores still have to send (pack/base modes). Loads wait
  // until this drops to kStoreLoadRunahead so their ARs overlap the store
  // tail (see processor.cpp).
  std::uint64_t store_w_beats_left = 0;

  // Ideal-memory port budget, reset each cycle (words/cycle across both
  // load and store units — "one port per lane").
  unsigned ideal_budget = 0;
  std::uint64_t ideal_busy_words = 0;  ///< total words moved (utilization)

  // Per-request latency of retired memory ops (accept -> retire, in
  // cycles). Stamped once at first issue — fault replays keep the original
  // stamp — and aggregated into RunResult by System::run.
  util::Histogram mem_latency;

  // Fault handling (all zero in fault-free runs).
  sim::RetryStats retry_stats;
  std::uint64_t pack_fault_attempts = 0;  ///< failed pack-path op attempts
  bool degraded = false;  ///< breaker tripped: plan new ops base-style

  /// Records one failed pack-path op attempt; past the configured breaker
  /// threshold the VLSU stops planning AXI-Pack bursts for new ops and
  /// degrades to the base per-element path (correct, just slow).
  void note_pack_fault() {
    ++pack_fault_attempts;
    if (!degraded && cfg.retry.breaker_trips(pack_fault_attempts)) {
      degraded = true;
      retry_stats.degraded = true;
    }
  }

  explicit ProcContext(const VProcConfig& c) : cfg(c), vrf(kVlmax) {
    hot.vlsu_ar = counters.handle("vlsu.ar");
    hot.vlsu_aw = counters.handle("vlsu.aw");
    hot.vlsu_beats_rx = counters.handle("vlsu.beats_rx");
    hot.vlsu_bytes_rx = counters.handle("vlsu.bytes_rx");
    hot.vlsu_beats_tx = counters.handle("vlsu.beats_tx");
    hot.vlsu_bytes_tx = counters.handle("vlsu.bytes_tx");
    hot.vfu_elems = counters.handle("vfu.elems");
    hot.ideal_read_bytes = counters.handle("ideal.read_bytes");
    hot.ideal_index_bytes = counters.handle("ideal.index_bytes");
    hot.ideal_write_bytes = counters.handle("ideal.write_bytes");
  }

  /// Elements of `reg` safe to read this cycle (vlmax if no live producer).
  std::uint64_t avail_elems(int reg) const {
    if (reg < 0) return kVlmax;
    const OpRef& p = producer_of[static_cast<unsigned>(reg)];
    if (!p || p->done) return kVlmax;
    return p->prod_elems;
  }

  /// True once every store issued before op `seq` has retired: its B
  /// response arrived, so its data is in memory.
  bool stores_retired_before(std::uint64_t seq) const {
    return stores_in_flight.empty() || stores_in_flight.front() > seq;
  }

  bool has_reader(int reg) const {
    return reg >= 0 && readers[static_cast<unsigned>(reg)] > 0;
  }

  /// Called by a unit when an op fully completes: releases hazard state.
  void retire(const OpRef& op) {
    op->done = true;
    op->vd_dep.reset();  // break chains of retired producers
    auto release_reader = [&](int reg) {
      if (reg >= 0) {
        --readers[static_cast<unsigned>(reg)];
      }
    };
    release_reader(op->op.vs1);
    release_reader(op->op.vs2);
    release_reader(op->op.vidx);
    if (op->op.vd >= 0 &&
        producer_of[static_cast<unsigned>(op->op.vd)] == op) {
      producer_of[static_cast<unsigned>(op->op.vd)].reset();
    }
    if (is_load_op(op->op.kind)) {
      --loads_in_flight;
    } else if (is_store_op(op->op.kind)) {
      assert(!stores_in_flight.empty() &&
             stores_in_flight.front() == op->seq);
      stores_in_flight.pop_front();
    }
  }
};

}  // namespace axipack::vproc
