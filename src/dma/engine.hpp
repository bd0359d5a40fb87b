// AXI-Pack DMA engine: a non-core requestor performing descriptor-driven
// layout transforms over an AXI(-Pack) master port.
//
// This realizes the paper's Related Work claim that bus packing "can be done
// ... ahead of time by an AXI-Pack-capable direct memory access (DMA)
// controller" (PLANAR-style rearrangement): the engine moves an element
// stream between two access patterns (contiguous / strided / indirect on
// either side). In pack mode the irregular side is carried by AXI-Pack
// bursts; otherwise it degrades to the per-element narrow bursts of a
// conventional DMA — the inefficiency the paper quantifies. Read and write
// sides stream through an internal word buffer and overlap.
//
// Descriptors come from either of two sources, as on real engines:
//  * register programming — the host pushes Descriptor structs directly;
//  * memory chains — start_chain(addr) makes the engine fetch descriptors
//    over its own AXI port (plain INCR bursts) and follow `next` links.
//    A register-programmed descriptor with a nonzero `next` likewise
//    continues into an in-memory chain.
//
// Constraints (asserted): addresses and strides are word-aligned; in narrow
// (non-pack) mode irregular elements must also be element-size-aligned, as
// a single narrow AXI beat cannot cross its size container. Source and
// destination ranges of one descriptor must not overlap.
// A third descriptor source is the ring mode used by the open-loop traffic
// subsystem (and by real streaming engines): start_ring() points the engine
// at a circular chain of in-memory descriptors whose `next` links close the
// loop. The producer publishes slots with publish() (a doorbell: "n more
// descriptors are valid") and the engine follows the links continuously,
// raising a completion event per descriptor. The ring is double-buffered:
// the next published descriptor is prefetched while the current transfer's
// write side drains, hiding the fetch latency.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "axi/types.hpp"
#include "dma/descriptor.hpp"
#include "sim/fault.hpp"
#include "sim/kernel.hpp"
#include "util/histogram.hpp"

namespace axipack::dma {

struct DmaConfig {
  unsigned bus_bytes = 32;
  bool use_pack = true;  ///< false: irregular patterns via narrow bursts
  std::size_t buffer_words = 4096;      ///< staging buffer capacity (words)
  /// Fault handling: bounded per-descriptor retry with backoff, a progress
  /// watchdog, and pack->narrow degradation past the breaker threshold.
  /// Disabled (max_attempts == 0) an errored response fails the descriptor.
  sim::RetryConfig retry;
};

/// Aggregate activity counters (for tests, benches and the energy model).
struct DmaStats {
  std::uint64_t descriptors_done = 0;
  std::uint64_t bytes_moved = 0;  ///< payload bytes (each counted once)
  std::uint64_t ar_bursts = 0;
  std::uint64_t aw_bursts = 0;
  std::uint64_t r_beats = 0;
  std::uint64_t w_beats = 0;
  std::uint64_t index_fetch_bytes = 0;  ///< narrow-mode index staging traffic
  std::uint64_t desc_fetch_bytes = 0;
  sim::Cycle busy_cycles = 0;  ///< cycles with any work in flight
  /// Descriptors completed with an error (retries exhausted, fatal
  /// response, or a malformed in-memory descriptor). An error completion
  /// terminates its chain.
  std::uint64_t error_descriptors = 0;
  std::uint64_t malformed_descriptors = 0;
  /// High-water mark of descriptors pending execution (register queue
  /// depth, or published-but-incomplete ring slots) — saturation signal.
  std::uint64_t queue_peak = 0;
};

class DmaEngine final : public sim::Component {
 public:
  /// The engine masters `port` (pushes AR/AW/W, pops R/B). It never touches
  /// the backing store directly — all data moves through the port.
  DmaEngine(sim::Kernel& k, axi::AxiPort& port, const DmaConfig& cfg);

  /// Queues a register-programmed descriptor.
  void push(const Descriptor& d);

  /// Appends an in-memory descriptor chain starting at `head`.
  void start_chain(std::uint64_t head);

  /// Enters ring mode: the engine follows the circular descriptor chain
  /// whose first slot is `head_addr` (the links must close the loop),
  /// executing one descriptor per publish() credit and raising a
  /// completion event per descriptor. Exclusive with push() /
  /// start_chain() until stop_ring(). Requires idle().
  void start_ring(std::uint64_t head_addr);
  /// Doorbell: `n` more ring slots hold valid descriptors. Completions are
  /// per-ordinal (0-based, in publish order). A broken ring (malformed
  /// slot, zero link, or a fetch whose retries exhaust) fail-completes
  /// everything still published so producers never hang.
  void publish(std::uint64_t n = 1);
  /// Leaves ring mode. All published descriptors must have completed.
  void stop_ring();
  /// Completion event for ring descriptors: (ordinal, ok). Invoked from
  /// the engine's tick when the descriptor finishes or errors out.
  void set_completion(std::function<void(std::uint64_t, bool)> fn);
  bool ring_active() const { return ring_active_; }
  std::uint64_t ring_completed() const { return ring_completed_; }

  /// True when no descriptor is pending or in flight.
  bool idle() const;

  const DmaStats& stats() const { return stats_; }
  const sim::RetryStats& retry_stats() const { return retry_stats_; }
  const DmaConfig& config() const { return cfg_; }

  /// Per-descriptor latency (queue entry -> completion) of register- and
  /// chain-programmed descriptors. Ring descriptors are measured by their
  /// producer instead (sojourn time including the slot wait).
  util::Histogram& latency_hist() { return latency_; }
  const util::Histogram& latency_hist() const { return latency_; }

  void tick() override;
  /// idle() implies nothing is in flight (no descriptors, reads, writes or
  /// fetches); only push()/start_chain() — which wake us — create work.
  bool quiescent() const override { return idle(); }

 private:
  /// Source of the next descriptor to execute.
  struct PendingDesc {
    Descriptor desc;         ///< valid when !from_memory
    std::uint64_t addr = 0;  ///< valid when from_memory
    bool from_memory = false;
    std::uint64_t arrival = 0;  ///< engine clock when queued (latency stamp)
  };

  /// What an R beat's payload is for.
  enum class ReadKind : std::uint8_t { data, index, descriptor };

  /// One planned (not yet issued) read burst.
  struct PlannedRead {
    axi::AxiAr ar;
    std::uint64_t payload_bytes = 0;  ///< bytes this engine will consume
    ReadKind kind = ReadKind::data;
  };

  /// One issued read burst whose R beats are still arriving. Responses on
  /// our single ID arrive in issue order, so a deque suffices.
  struct ActiveRead {
    ReadKind kind = ReadKind::data;
    bool packed = false;       ///< payload packed from lane 0 (pack burst)
    std::uint64_t cursor = 0;  ///< next payload byte address (regular burst)
    std::uint64_t bytes_left = 0;
  };

  /// One planned write burst.
  struct PlannedWrite {
    axi::AxiAw aw;
    std::uint64_t payload_bytes = 0;
  };

  // Phase helpers, called from tick() in order.
  void tick_start();    ///< begin next descriptor / descriptor fetch
  void tick_read();     ///< AR issue + R receive
  void tick_write();    ///< AW/W issue + B receive
  void tick_timeout();  ///< progress watchdog
  void tick_ring();     ///< next-descriptor prefetch start/parse
  void finish_transfer();

  // Ring-mode helpers.
  void ring_complete(std::uint64_t ordinal, bool ok);
  /// Fail-completes every published-but-unconsumed slot of a broken ring.
  void ring_reject_pending();
  /// True once the active transfer's entire read side (indices, planned
  /// and lazy data reads) has drained — the only window in which
  /// plan_desc_fetch() may safely repurpose the read plan for a prefetch.
  bool read_side_drained() const;

  void begin_transfer(const Descriptor& d);
  void plan_index_fetch(const Pattern& p);
  void plan_desc_fetch(std::uint64_t addr);
  void consume_read_payload(const axi::AxiR& r, ActiveRead& act);

  // Fault handling. A detected fault (error response, truncated burst,
  // watchdog expiry) freezes new request issue; in-flight responses drain
  // (owed W beats go out with null strobes), then the descriptor is either
  // replayed from scratch after backoff or completed with an error that
  // terminates its chain. Clean runs never enter any of these paths.
  void note_fault(std::uint8_t resp);
  bool fault_drained() const;  ///< nothing of the failed attempt in flight
  void resolve_fault();        ///< decide retry vs. error completion
  void reset_transfer();       ///< clear all per-transfer progress state

  /// Issues the next planned read if outstanding/buffer limits allow.
  void issue_next_read();

  /// Per-element address for narrow irregular access (idx caches must be
  /// ready for indirect patterns).
  std::uint64_t elem_addr(const Pattern& p, std::uint64_t i,
                          bool is_src) const;

  bool transfer_active_ = false;
  Descriptor cur_;
  bool needs_src_idx_ = false;  ///< narrow-mode src index staging pending
  bool needs_dst_idx_ = false;

  std::vector<PlannedRead> planned_reads_;
  std::size_t next_read_ = 0;
  std::deque<ActiveRead> active_reads_;
  unsigned outstanding_reads_ = 0;
  std::uint64_t rd_narrow_next_ = 0;  ///< narrow-mode per-element AR cursor

  std::vector<PlannedWrite> planned_writes_;
  std::size_t next_aw_ = 0;
  std::size_t w_burst_ = 0;        ///< burst whose W beats are being sent
  std::uint64_t w_sent_bytes_ = 0; ///< payload bytes sent of w_burst_
  std::uint64_t w_cursor_ = 0;     ///< byte address cursor within w_burst_
  unsigned outstanding_writes_ = 0;
  std::uint64_t wr_narrow_next_ = 0;  ///< narrow-mode per-element AW cursor

  std::deque<std::uint32_t> buffer_;  ///< staged words, element order
  std::uint64_t reserved_words_ = 0;  ///< buffered + in-flight read words

  // Narrow-mode index staging.
  std::vector<std::uint64_t> idx_src_;
  std::vector<std::uint64_t> idx_dst_;
  std::vector<std::uint8_t> idx_raw_;  ///< bytes of the array being fetched
  bool idx_fetch_src_ = false;         ///< current fetch fills idx_src_

  // Descriptor fetch state.
  bool fetching_desc_ = false;
  std::vector<std::uint8_t> desc_raw_;
  std::uint64_t desc_addr_ = 0;  ///< chain address being fetched (for retry)

  // Ring mode (all inert unless start_ring() was called).
  static constexpr std::uint64_t kNoOrdinal = ~0ull;
  bool ring_active_ = false;
  std::uint64_t ring_next_addr_ = 0;  ///< next slot to fetch; 0: ring broken
  std::uint64_t ring_published_ = 0;  ///< doorbell credits (cumulative)
  std::uint64_t ring_consumed_ = 0;   ///< descriptors fetched+parsed
  std::uint64_t ring_completed_ = 0;  ///< completion events raised
  bool has_prefetched_ = false;       ///< prefetched_ holds a parsed slot
  Descriptor prefetched_;
  std::uint64_t prefetched_ordinal_ = 0;
  std::uint64_t cur_ring_ordinal_ = kNoOrdinal;  ///< of the active transfer
  std::function<void(std::uint64_t, bool)> completion_;

  // Latency stamps (engine clock; deltas equal wall-cycle deltas because
  // the engine never sleeps while a descriptor is in flight).
  std::uint64_t cur_arrival_ = 0;    ///< queue-entry stamp of cur_
  std::uint64_t fetch_arrival_ = 0;  ///< stamp carried through a fetch
  util::Histogram latency_;

  // Fault-handling state (all inert in fault-free runs).
  bool fault_ = false;          ///< current attempt is poisoned
  bool fatal_ = false;          ///< DECERR seen: never retried
  bool retry_pending_ = false;  ///< drained; replay after backoff_until_
  unsigned attempts_ = 0;       ///< failed attempts of the current activity
  std::uint64_t backoff_until_ = 0;
  std::uint64_t pack_fault_attempts_ = 0;  ///< breaker input
  std::uint64_t now_ = 0;            ///< ticks while busy (relative time)
  std::uint64_t last_progress_ = 0;  ///< watchdog reference point
  sim::RetryStats retry_stats_;

  std::deque<PendingDesc> queue_;
  axi::AxiPort& port_;
  DmaConfig cfg_;
  DmaStats stats_;
};

}  // namespace axipack::dma
