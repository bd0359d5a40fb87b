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
// Descriptors come from three sources, as on real engines:
//  * register programming — the host pushes Descriptor structs directly;
//  * memory chains — start_chain(addr) makes the engine fetch descriptors
//    over its own AXI port (plain INCR bursts) and follow `next` links.
//    A register-programmed descriptor with a nonzero `next` likewise
//    continues into an in-memory chain;
//  * a ring, used by the open-loop traffic subsystem (and by real streaming
//    engines): start_ring() points the engine at a circular chain of
//    in-memory descriptors whose `next` links close the loop. The producer
//    publishes slots with publish() (a doorbell: "n more descriptors are
//    valid") and the engine follows the links continuously, raising a
//    completion event per descriptor. The ring is double-buffered: the next
//    published descriptor is prefetched while the current transfer's write
//    side drains, hiding the fetch latency.
//
// Each job has one path. Index, data and descriptor reads all issue and
// retire through one read loop; every fetched descriptor is parsed where
// it is taken, whether it starts a transfer or waits as the ring's
// prefetched slot; reads and writes plan their bursts with the same two
// planners, one for contiguous ranges and one for AXI-Pack patterns.
//
// Time is the kernel's cycle (sim::Component::now()), so latency stamps,
// the watchdog, the retry backoff and the busy-cycle count stay exact
// whether or not the engine is ticked in a given cycle. The engine sleeps
// mid-transfer while every remaining step waits on an R or B response;
// its wake hint carries the backoff and watchdog deadlines.
//
// Constraints (asserted): addresses and strides are word-aligned; in narrow
// (non-pack) mode irregular elements must also be element-size-aligned, as
// a single narrow AXI beat cannot cross its size container. Source and
// destination ranges of one descriptor must not overlap.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <utility>
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
  /// Cycles with any work pending or in flight, summed from kernel-time
  /// stamps at the engine's busy/idle transitions.
  sim::Cycle busy_cycles = 0;
  /// Descriptors completed with an error (retries exhausted, fatal
  /// response, or a malformed in-memory descriptor). An error completion
  /// terminates its chain.
  std::uint64_t error_descriptors = 0;
  std::uint64_t malformed_descriptors = 0;
  /// High-water mark of descriptors pending execution (register queue
  /// depth, or published-but-incomplete ring slots) — saturation signal.
  std::uint64_t queue_peak = 0;

  bool operator==(const DmaStats&) const = default;
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

  /// The counters so far; busy_cycles includes a busy stretch still open.
  DmaStats stats() const;
  const sim::RetryStats& retry_stats() const { return retry_stats_; }
  const DmaConfig& config() const { return cfg_; }

  /// Per-descriptor latency of register- and chain-programmed descriptors,
  /// in cycles from the one it was queued in through the one it completed
  /// in: push() and start_chain() queue in the kernel's current cycle, a
  /// chained successor in the cycle after its predecessor completes. Ring descriptors are
  /// measured by their producer instead (sojourn time including the slot
  /// wait).
  util::Histogram& latency_hist() { return latency_; }
  const util::Histogram& latency_hist() const { return latency_; }

  void tick() override;
  /// True when idle (only push()/start_chain()/publish(), which wake the
  /// engine, create work), waiting out a retry backoff, or when no read,
  /// AW or W may issue before a response lifts a limit: outstanding
  /// bursts, index staging or the staging buffer. A read or write held
  /// only by a full AXI FIFO keeps it awake, since that pop wakes no one.
  bool quiescent() const override;
  /// The backoff deadline, else the earliest of the watchdog deadline and
  /// the arrival of a stored R or B beat.
  sim::Cycle wake_hint() const override;

 private:
  /// Source of the next descriptor to execute.
  struct PendingDesc {
    Descriptor desc;         ///< valid when !from_memory
    std::uint64_t addr = 0;  ///< valid when from_memory
    bool from_memory = false;
    sim::Cycle arrival = 0;  ///< cycle it was queued (latency stamp)
  };

  /// What an R beat's payload is for.
  enum class ReadKind : std::uint8_t { data, index, descriptor };

  /// One planned (not yet issued) burst, read or write.
  struct PlannedBurst {
    axi::AxiAx ax;
    std::uint64_t payload_bytes = 0;  ///< bytes this engine moves through it
    ReadKind kind = ReadKind::data;   ///< reads only
  };

  /// One issued read burst whose R beats are still arriving. Responses on
  /// our single ID arrive in issue order, so a deque suffices.
  struct ActiveRead {
    ReadKind kind = ReadKind::data;
    bool packed = false;       ///< payload packed from lane 0 (pack burst)
    std::uint64_t cursor = 0;  ///< next payload byte address (regular burst)
    std::uint64_t bytes_left = 0;
  };

  /// One cycle of work; tick() stamps the busy/idle transitions around it.
  void run_phases();
  // Phases of run_phases(), in order.
  void tick_start();    ///< next descriptor or descriptor fetch
  void tick_read();     ///< AR issue + R receive
  void tick_write();    ///< AW/W issue + B receive
  void tick_timeout();  ///< progress watchdog

  void enqueue(const PendingDesc& p);
  /// Starts `d` from scratch (a replay passes cur_).
  void begin_transfer(const Descriptor& d);
  void reset_transfer();  ///< clear all per-transfer progress state
  void finish_transfer();
  /// Plans the fetch of the descriptor at `addr` into the read plan.
  void fetch_descriptor(std::uint64_t addr);
  /// Parses the fetched descriptor and starts it — or, for a ring slot
  /// fetched during a transfer, holds it as the prefetched slot.
  void take_descriptor();

  // Planning. Both sides use the same two planners.
  /// Appends the INCR bursts tiling [addr, addr + bytes).
  void plan_contiguous(std::vector<PlannedBurst>& plan, std::uint64_t addr,
                       std::uint64_t bytes, ReadKind kind) const;
  /// Appends the bursts of one side of cur_ (AXI-Pack when irregular).
  void plan_pattern(std::vector<PlannedBurst>& plan, const Pattern& p) const;
  /// Plans the fetch of the next index array to stage: the source's while
  /// it is pending, then the destination's.
  void stage_indices();
  /// True if `p` moves per element: an irregular side in narrow mode.
  bool narrow(const Pattern& p) const;
  /// The single-beat AR/AW of element `i` of a narrow side (its indices
  /// must be staged).
  axi::AxiAx narrow_beat(bool src, std::uint64_t i) const;

  /// The next planned (or narrow) read, if the outstanding, staging and
  /// buffer limits let it issue now (a full AR FIFO is the caller's).
  std::optional<PlannedBurst> next_read() const;
  void issue_next_read();
  void consume_read_payload(const axi::AxiR& r, ActiveRead& act);
  /// True once the active transfer's entire read side (indices, planned
  /// and narrow data reads) has drained: then a ring prefetch may take
  /// over the read plan, and the transfer may complete.
  bool read_side_drained() const;
  /// A W beat of the next `n` staged bytes at byte lane `lane`.
  axi::AxiW staged_beat(unsigned lane, unsigned n);
  /// Byte lane and payload bytes of the next W beat of burst w_burst_.
  std::pair<unsigned, unsigned> next_w_beat() const;
  /// True if a narrow per-element AW+W pair may go now, full FIFOs aside.
  bool narrow_write_due() const;
  /// True if the next planned AW may go now, a full AW FIFO aside.
  bool aw_due() const;
  /// True if the next planned W beat may go now, a full W FIFO aside.
  bool w_due() const;

  // Fault handling. A detected fault (error response, truncated burst,
  // watchdog expiry) freezes new request issue; in-flight responses drain
  // (owed W beats go out with null strobes), then the descriptor is either
  // replayed from scratch after backoff or completed with an error that
  // terminates its chain. Clean runs never enter any of these paths.
  void note_fault(std::uint8_t resp);
  bool drained() const;  ///< nothing issued is still in flight
  void resolve_fault();  ///< decide retry vs. error completion

  // Ring-mode helpers.
  void ring_complete(std::uint64_t ordinal, bool ok);
  /// Fail-completes every published-but-unconsumed slot of a broken ring.
  void ring_reject_pending();
  /// Fail-completes the slot being taken and breaks the ring: its link is
  /// lost.
  void fail_ring_slot();

  bool transfer_active_ = false;
  Descriptor cur_;
  bool needs_src_idx_ = false;  ///< narrow-mode src index staging pending
  bool needs_dst_idx_ = false;

  std::vector<PlannedBurst> planned_reads_;
  std::size_t next_read_ = 0;
  std::deque<ActiveRead> active_reads_;
  std::uint64_t rd_narrow_next_ = 0;  ///< narrow-mode per-element AR cursor

  std::vector<PlannedBurst> planned_writes_;
  std::size_t next_aw_ = 0;
  std::size_t w_burst_ = 0;        ///< burst whose W beats are being sent
  std::uint64_t w_sent_bytes_ = 0; ///< payload bytes sent of w_burst_
  unsigned outstanding_writes_ = 0;
  std::uint64_t wr_narrow_next_ = 0;  ///< narrow-mode per-element AW cursor

  std::deque<std::uint32_t> buffer_;  ///< staged words, element order
  std::uint64_t reserved_words_ = 0;  ///< buffered + in-flight read words

  // Narrow-mode index staging.
  std::vector<std::uint64_t> idx_src_;
  std::vector<std::uint64_t> idx_dst_;
  std::vector<std::uint8_t> idx_raw_;  ///< bytes of the array being fetched

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

  /// Queue-entry cycle of the active (or being fetched) chain descriptor.
  sim::Cycle cur_arrival_ = 0;
  util::Histogram latency_;

  // Fault-handling state (all inert in fault-free runs). Every stamp is a
  // kernel cycle, so it stays exact across cycles the engine sleeps.
  bool fault_ = false;          ///< current attempt is poisoned
  bool fatal_ = false;          ///< DECERR seen: never retried
  bool retry_pending_ = false;  ///< drained; replay after backoff_until_
  unsigned attempts_ = 0;       ///< failed attempts of the current activity
  sim::Cycle backoff_until_ = 0;
  std::uint64_t pack_fault_attempts_ = 0;  ///< breaker input
  sim::Cycle last_progress_ = 0;  ///< watchdog reference point
  sim::RetryStats retry_stats_;

  std::deque<PendingDesc> queue_;
  axi::AxiPort& port_;
  DmaConfig cfg_;
  DmaStats stats_;
  /// First cycle of the open busy stretch (kNeverCycle while idle).
  sim::Cycle busy_since_ = sim::kNeverCycle;
};

}  // namespace axipack::dma
