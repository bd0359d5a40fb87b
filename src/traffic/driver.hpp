// Open-loop load driver: turns a seeded arrival process into a sustained
// request stream against a scatter-gather ring DMA engine, and measures
// each request's sojourn latency (arrival -> completion event).
//
// Each request is one ring descriptor: an indirect gather of 64 words
// from a shared data region (indices drawn from a
// pre-generated pool) into a per-slot contiguous destination — the
// irregular access shape the paper's packed path accelerates, issued at a
// configured rate instead of as-fast-as-possible. Requests that find the
// ring full wait in a software backlog whose high-water mark is the
// saturation signal.
//
// Determinism: arrival cycles are pure functions of (seed, ordinal)
// (see arrival.hpp) and all stamps use the kernel's wall clock, so gated
// and naive kernels measure identical latencies. The driver sleeps
// between arrivals via wake_hint and is woken by completion events.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "dma/engine.hpp"
#include "mem/backing_store.hpp"
#include "sim/kernel.hpp"
#include "traffic/arrival.hpp"
#include "util/histogram.hpp"

namespace axipack::traffic {

/// Requests arriving before this cycle (relative to arm()) are issued but
/// excluded from the latency histogram and the offered/achieved rates —
/// the measurement window starts after warmup.
inline constexpr sim::Cycle kWarmupCycles = 20000;

struct TrafficConfig {
  ArrivalConfig arrival;
  /// Config of the scatter-gather master the builder attaches for this
  /// stream (pack vs narrow is what separates the open-loop systems).
  dma::DmaConfig dma;
};

/// Bytes of backing store the driver needs for ring + pools + data.
std::uint64_t footprint_bytes();

class OpenLoopDriver final : public sim::Component {
 public:
  /// Writes the data region, index pool and ring links into `store`
  /// starting at `region_base` (64-byte aligned, footprint_bytes() long)
  /// and registers with the kernel. Generation starts at arm().
  OpenLoopDriver(sim::Kernel& k, dma::DmaEngine& engine,
                 mem::BackingStore& store, const TrafficConfig& cfg,
                 std::uint64_t region_base);

  /// Starts open-loop generation now; arrivals stop at `stop_at`
  /// (exclusive). The measurement window is
  /// [now + kWarmupCycles, stop_at).
  void arm(sim::Cycle stop_at);

  /// True when every generated request has completed (or before arm()).
  bool drained() const;

  /// Diffs every destination group at least one generated request covered
  /// against a recomputed reference gather (requests are idempotent per
  /// group, so any completed repetition leaves the same bytes). Call
  /// after draining; meaningful only when no request failed.
  bool verify(std::string& error) const;

  struct Stats {
    std::uint64_t arrivals = 0;     ///< requests generated
    std::uint64_t completed = 0;    ///< completion events, any outcome
    std::uint64_t failed = 0;       ///< error completions
    std::uint64_t window_arrivals = 0;     ///< arrivals in the window
    std::uint64_t window_completions = 0;  ///< completions in the window
    std::uint64_t queue_peak = 0;   ///< max in-system (backlog + ring)
    sim::Cycle window_cycles = 0;   ///< measurement-window length
  };
  const Stats& stats() const { return stats_; }

  /// Sojourn latency (arrival -> completion) of requests that arrived
  /// inside the measurement window and completed successfully.
  const util::Histogram& latency() const { return latency_; }

  /// Requests per 100k cycles offered / achieved inside the window.
  double offered_rate() const;
  double achieved_rate() const;

  void clear_measurements();

  void tick() override;
  bool quiescent() const override;
  sim::Cycle wake_hint() const override;

 private:
  void on_complete(std::uint64_t ordinal, bool ok);
  /// Moves backlog entries into free ring slots (writes + publishes).
  void publish_ready();
  /// Writes the descriptor for request `ordinal` into its ring slot.
  void write_slot(std::uint64_t ordinal);
  bool generating(sim::Cycle now) const;
  sim::Cycle arrival_at(std::uint64_t ordinal) const;

  dma::DmaEngine& engine_;
  mem::BackingStore& store_;
  TrafficConfig cfg_;
  ArrivalProcess arrivals_;

  // Region layout (filled in the constructor).
  std::uint64_t ring_base_ = 0;
  std::uint64_t idx_base_ = 0;
  std::uint64_t dst_base_ = 0;
  std::uint64_t data_base_ = 0;

  bool armed_ = false;
  sim::Cycle start_ = 0;
  sim::Cycle warmup_end_ = 0;
  sim::Cycle stop_ = 0;

  std::uint64_t next_ordinal_ = 0;  ///< next arrival to generate
  std::uint64_t published_ = 0;     ///< descriptors handed to the ring
  std::uint64_t completed_ = 0;     ///< completion events seen
  /// Arrivals awaiting a free ring slot, in order: front() == published_.
  std::deque<sim::Cycle> backlog_arrival_;
  /// Arrival stamp of each in-flight ring ordinal, indexed ordinal %
  /// the ring size (slot reuse is safe: at most that many in flight).
  std::vector<sim::Cycle> slot_arrival_;

  Stats stats_;
  util::Histogram latency_;
};

}  // namespace axipack::traffic
