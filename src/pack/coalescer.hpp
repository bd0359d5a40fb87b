// Near-memory index coalescing unit for the pack indirect read path.
//
// The indirect element stream is the pack adapter's last bandwidth sink
// with no spatial structure: gather addresses arrive in index order, so
// duplicate indices fetch the same word repeatedly and neighbouring-row
// accesses reach the DRAM scheduler interleaved with unrelated rows and
// spread across all port-mux lanes (every lane fights every bank). The
// coalescer sits between the indirect read converter's element lanes and
// the port mux and attacks all three:
//
//  * MSHR-style pending table — element word requests are looked up by
//    address in a bounded table (`entries`). A hit appends the requester
//    to the entry's waiter list (one memory fetch fans out to every
//    waiter); a miss allocates an entry and queues one downstream fetch.
//    When the response returns the data is fanned out to the waiter
//    records immediately (so table occupancy never includes the
//    deliberately long, row-batched release reorder window), but the
//    filled entry is *retained* in the table and keeps serving later
//    requests for the same word until its slot is reclaimed — each gather
//    word is genuinely fetched once while it stays resident. Only
//    unfilled entries count against the in-flight bound; retained slots
//    are evicted on demand (oldest first). Coherence: the port mux snoops
//    every write any of the adapter's converters issues and invalidates
//    the matching retained word (and stops retention of a matching
//    in-flight fetch), so a store through the adapter can never leave
//    stale data behind — the read-write ordering that remains is exactly
//    the uncoalesced path's, which the workloads already fence. Host
//    writes to the backing store (reduction post-ops, the open-loop
//    driver's ring slots) reach the same invalidation through
//    BackingStore's host-write hook.
//  * Bank-partitioned issue with a row-grouping window — each allocated
//    entry is routed to the downstream lane selected by its locality
//    key's partition field modulo the lane count (the DRAM bank when the
//    backend provides it, a coarse address granule otherwise), so all of
//    a bank's traffic takes one lane and lanes stop losing grant cycles to
//    cross-lane bank conflicts. A lane may carry several banks (16 DRAM
//    banks fold onto 8 lanes). While the queue head is in the partition
//    of the lane's previous issue, issue prefers — among the first
//    `window` queued entries — one whose full key (bank+row) matches that
//    issue; otherwise, or with no match, it takes the head (FIFO order
//    bounds reordering and guarantees liveness). Same-row fetches of a
//    bank therefore reach the DRAM scheduler adjacent even when the index
//    stream interleaves rows, and no fetch waits behind another bank's
//    row.
//
// Responses are released back to each upstream lane strictly in that
// lane's request order (the per-lane in-order contract the beat packer
// relies on), with the original request tag restored — so merging and
// reordering are invisible to the converter: bit-identical data, fewer
// memory words.
//
// Writes pass through the unit un-merged so that a stage can front a
// converter with a mixed read/write lane contract (the base channel):
// a write allocates a pending-table entry like a read — it rides the
// same bank-partitioned issue queues and releases its ack in lane
// order — but is never retained. Same-word ordering is preserved
// exactly: a full-word write forwards its data to later reads of the
// word (store-to-load forwarding; partial-strobe writes stall them
// instead), a write behind a pending read or write of the same word
// stalls in its lane until the older access resolves, and accesses to
// *different* words carry no ordering contract (word-granular, the
// same contract the DRAM scheduler's hazard scan enforces), so the
// grouping window may reorder them freely. The workloads additionally
// fence writes between gather phases (ping-ponged arrays), so serving
// one fetch to multiple waiters cannot observe a torn update; the
// differential tests prove coalescer-on/off bit-identity across every
// backend.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mem/word.hpp"
#include "pack/converter.hpp"
#include "sim/kernel.hpp"

namespace axipack::pack {

struct CoalescerConfig {
  /// Pending-table capacity (MSHRs). Each live entry owns one in-flight
  /// memory word, so this is also the unit's downstream word-level
  /// parallelism — it must cover the memory round-trip (DRAM: tens of
  /// cycles of bank queueing plus row activity) to sustain line rate.
  std::size_t entries = 64;
  std::size_t window = 16;  ///< row-grouping lookahead per lane (1 = FIFO)
  std::size_t lane_fifo_depth = 2;    ///< upstream request FIFO depth
  std::size_t resp_fifo_depth = 128;  ///< upstream response FIFO depth
};

/// Activity counters, plumbed PackAdapter -> RunResult -> to_json.
struct CoalescerStats {
  std::uint64_t merged = 0;   ///< requests folded into a live entry
  std::uint64_t unique = 0;   ///< entries allocated = words fetched
  std::uint64_t peak_pending = 0;  ///< max live pending-table entries
  /// Issued downstream requests that *opened* a locality group (key differs
  /// from the lane's previous issue); unique - row_groups = requests the
  /// window managed to keep adjacent to a same-row predecessor. A lane
  /// carrying two banks counts every switch between them, though neither
  /// bank's row closes, so this is not a measure of DRAM row locality.
  std::uint64_t row_groups = 0;
};

class Coalescer final : public sim::Component {
 public:
  /// Maps a byte address to a locality key. Convention: the top 16 bits
  /// are the *partition* id (selects the downstream lane, modulo lane
  /// count — the DRAM bank on the DRAM model), the low 48 bits
  /// the *group* id (the row); two addresses are grouped adjacent by the
  /// issue window iff their full keys are equal. The default key is a
  /// 2 KiB address granule (the default DRAM row size) used as both
  /// fields; System wires the real bank/row decomposition for DRAM.
  using LocalityKeyFn = std::function<std::uint64_t(std::uint64_t)>;

  /// `downstream` is the port-mux lane bundle the unit issues fetches on.
  Coalescer(sim::Kernel& k, std::vector<LaneIO> downstream,
            const CoalescerConfig& cfg);

  /// Upstream lane bundle handed to the indirect read converter's element
  /// stage (FIFOs owned by the coalescer; stable for its lifetime).
  std::vector<LaneIO> upstream_lanes();

  void set_locality_key(LocalityKeyFn fn);

  /// Write-snoop hook (wired to PortMux::set_write_snoop): drops the
  /// retained copy of `addr` if one exists, and de-registers a matching
  /// in-flight fetch so it serves its accepted waiters but is neither
  /// merged into nor retained afterwards.
  void invalidate(std::uint64_t addr);
  /// invalidate() for every word of [addr, addr + bytes); O(1) while the
  /// table holds nothing (host writes during setup).
  void invalidate_range(std::uint64_t addr, std::uint64_t bytes);

  void tick() override;
  /// True while no fetch waits to issue and no lane's oldest waiter is
  /// ready to release: the tick then has nothing to do until a subscribed
  /// FIFO shows an upstream request or a downstream response, so the unit
  /// sleeps while its fetches are in flight.
  bool quiescent() const override;
  /// No fetch in flight and no waiter unreleased.
  bool idle() const { return live_ == 0 && total_waiters_ == 0; }

  const CoalescerStats& stats() const { return stats_; }
  std::size_t live_entries() const { return live_; }

 private:
  /// Locates one upstream waiter record: `seq` is the lane-local
  /// acceptance number, so the record's deque index is seq minus the
  /// lane's current head sequence (O(1), stable under pops).
  struct WaiterRef {
    std::uint32_t lane = 0;
    std::uint64_t seq = 0;
  };
  /// One pending-table slot: in flight from allocation until its fetch
  /// returns (counted in `live_`), then retained with the data until
  /// evicted or flushed. The slot index doubles as the downstream request
  /// tag, so responses route back without any allocation-order
  /// assumptions.
  struct Entry {
    std::uint64_t addr = 0;
    std::uint64_t key = 0;  ///< locality key of addr (cached)
    std::vector<WaiterRef> waiters;
    std::uint32_t rdata = 0;
    std::uint32_t wdata = 0;   ///< write entries: data to store
    std::uint8_t wstrb = 0;    ///< write entries: byte strobes
    bool write = false;        ///< pass-through write (never retained)
    bool valid = false;
    bool filled = false;  ///< retained: rdata serves merges instantly
  };
  /// Per-upstream-lane release record, kept in acceptance order. Filled
  /// in place when the fetch returns; self-contained thereafter (the
  /// table entry is already freed).
  struct Waiter {
    std::uint32_t tag = 0;  ///< original upstream tag, restored on release
    std::uint32_t rdata = 0;
    bool was_write = false;  ///< release as a write ack
    bool ready = false;
    bool error = false;  ///< errored fill: propagated to every waiter
  };

  void drain_downstream();
  void release_upstream();
  void accept_upstream();
  void issue_downstream();
  /// Free slot, or evict the oldest retained word; kNoSlot if all slots
  /// hold in-flight fetches.
  std::uint32_t take_slot();
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  unsigned route_of(std::uint64_t key) const {
    return static_cast<unsigned>((key >> 48) % lanes_n_);
  }

  std::vector<LaneIO> down_;
  unsigned lanes_n_;
  CoalescerConfig cfg_;
  LocalityKeyFn key_fn_;
  // Upstream FIFO pairs (owned): the converter pushes into up_req_ and
  // pops from up_resp_, exactly as if they were port-mux lanes.
  std::vector<std::unique_ptr<sim::Fifo<mem::WordReq>>> up_req_;
  std::vector<std::unique_ptr<sim::Fifo<mem::WordResp>>> up_resp_;
  std::vector<Entry> table_;
  /// Live-entry index by address (models the hardware CAM lookup).
  std::unordered_map<std::uint64_t, std::uint32_t> lookup_;
  std::vector<std::uint32_t> free_slots_;
  /// Filled slots in eviction order. Invalidation and eviction leave
  /// stale records behind (a slot may be freed, reallocated, even
  /// re-retained); take_slot() validates each record against the table
  /// before acting on it, so staleness is skipped, never acted on.
  struct Retained {
    std::uint32_t slot;
    std::uint64_t addr;
  };
  std::deque<Retained> retained_q_;
  /// Allocated-but-unissued slots, per downstream lane.
  std::vector<std::deque<std::uint32_t>> issue_q_;
  std::vector<std::deque<Waiter>> waiters_;  ///< per upstream lane
  std::vector<std::uint64_t> next_seq_;      ///< per upstream lane
  std::vector<std::uint64_t> last_key_;      ///< per downstream lane
  std::vector<bool> has_last_key_;
  std::size_t live_ = 0;           ///< fetches in flight (live entries)
  std::size_t total_waiters_ = 0;  ///< accepted, not yet released
  CoalescerStats stats_;
};

}  // namespace axipack::pack
