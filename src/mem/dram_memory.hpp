// Cycle-level DRAM timing model behind the word-port interface.
//
// DramMemory is the third memory endpoint (after banked SRAM and the ideal
// conflict-free memory): n word ports in front of bank_groups x banks, each
// bank with an open-row buffer, scheduled by a per-bank FR-FCFS policy
// (grantable row hits beat row misses; ties break round-robin by port, like
// the SRAM crossbar). Accesses obey tRCD/tCAS/tRP/tRAS/tCCD and an all-bank
// periodic refresh (tREFI/tRFC).
//
// Row-aware request batching (the sched_window scheduler)
// -------------------------------------------------------
// The fine-grained index/gather interleaving of the pack converters puts
// requests to *different* rows back to back in one port's queue; a head-only
// scheduler then ping-pongs every bank between two rows (~50% hit ratio).
// The scheduler therefore looks past the heads, into the first
// `sched_window` visible requests of every port:
//
//  * Reads may be granted out of order within a port's window when that
//    cannot disturb an actively streamed row (they hit the open row, or
//    their bank is closed or has gone cold); writes reorder only as
//    open-row hits. Per-port program order for *data* is enforced at word
//    granularity: a read never passes a still-pending write to the same
//    word, and a write never passes any still-pending access to the same
//    word (nor another pending write, reordered or not, to it — the
//    hazard scan covers every older ungranted entry).
//  * Before a timing-legal row miss closes an open row, it is vetoed while
//    any port still has an ungranted same-row request in its window
//    (pending hits first). Two bounds keep this live and fair: a
//    *starvation cap* — every window entry accrues a deferral budget of
//    `starve_cap` cycles (counted only on cycles it was otherwise
//    grantable); once spent, the miss wins regardless — and a *row
//    keep-alive window* — the veto only holds while the bank was granted
//    within the last tRP + tRCD cycles, so if the pending same-row work is
//    itself stuck (behind a same-word hazard, or beyond another port's
//    grantable window) the row goes cold and the miss proceeds.
//  * Responses are re-serialized: a granted request's response waits in a
//    per-port in-order release stage until every older request of that
//    port has been granted and released, then enters the response Fifo
//    with its remaining data latency via Fifo::push_in (per-item
//    visibility, FIFO delivery) — per-port response order still equals
//    request order, the property the adapter's beat packers rely on.
//
// sched_window == 1 restores strict head-only in-order scheduling (the
// plain FR-FCFS-lite policy of PR 3, though not cycle-identically: grants
// are no longer gated on response-FIFO occupancy — the release stage
// parks responses instead, the blocked-vs-empty backpressure fix);
// starve_cap == 0 keeps the out-of-order window but never defers a miss.
// The effective lookahead is bounded by what the request FIFOs hold, so
// pair a deep window with a matching DramMemoryConfig::req_depth.
//
// Like the banked SRAM, the memory is a *pure request server*: every grant
// decision is a deterministic function of the visible request FIFOs, the
// current cycle, and per-bank/per-entry state that only changes on ticks
// with visible requests.
//
// Event-driven scheduling (the tick() hot path)
// ---------------------------------------------
// tick() does not rebuild the scheduler's view of the world every cycle.
// Instead:
//
//  * One candidate rule, per (port, bank). rescan_bank rebuilds what port
//    p offers bank b: its candidate slot (the first eligible entry, or the
//    first eligible open-row hit — prefer-hit), its interest and same-row
//    (veto anchor) bits, and whether a deep read of p waits for b to cool.
//    It walks only p's entries on b, threaded in window order on a
//    per-(port, bank) chain. The rule is bank-local — row state and warmth
//    are the bank's own, and a same-word hazard involves one word, hence
//    one bank — so a change confined to bank b never perturbs the port's
//    cached view of another bank. Every repair below applies this rule;
//    no other code checks it over a bank's entries.
//  * Events rebuild what they touched. A grant on bank b rebuilds b for
//    the granting port and for every other port whose view of b the new
//    row or the renewed warmth can change. A refresh sweep closes every
//    row, so it rebuilds each port holding entries bank by bank
//    (rescan_port). Arrivals and releases fold into the caches in O(1)
//    where their effect is fully determined: an appended entry can only
//    claim an empty slot or upgrade a non-hit candidate to a hit, and a
//    release removes only granted entries (which contribute nothing) and
//    exposes a new head (always eligible). An append whose effect is not
//    determined rebuilds its own bank.
//  * Warmth is the one input that changes with time alone. A deep read
//    held back by a warm row puts its port in the bank's cold-wait mask.
//    The bank is cold from last_grant_at + tRP + tRCD + 1, so each full
//    tick rebuilds the waiting ports of every bank that has cooled and
//    bounds its horizon by the cold cycles of the rest. The cycle is read
//    from the bank's own state: a re-grant moves it with no bookkeeping.
//  * Arbitration visits only banks with live candidates, via a bank
//    bitmask OR-ed from the per-port masks (num_banks <= 64, validated).
//  * All bank timers are folded into one horizon: when a tick ends with no
//    grant, no release and no deferral accounting, the earliest future
//    cycle at which *any* scheduling predicate can change — column/
//    activate/precharge legality, refresh-window expiry, the refresh
//    deferral flip-on points before a tREFI boundary, the boundary itself,
//    the cold cycles of banks a deep read waits on, and the visibility
//    time of every in-flight request — is computed (`next_sched_at_`),
//    and ticks before it reduce to a release poll plus constant-rate stall
//    accounting. Refresh is swept into bank state only at ticks that
//    crossed a tREFI boundary (multi-epoch catch-up is exact), not
//    re-checked per bank per cycle.
//  * The same horizon backs a real sleep protocol: quiescent() is true,
//    and wake_hint() publishes `next_sched_at_` so the kernel can sleep
//    the component *through* tRCD/tRP/tRFC waits even while requests sit
//    visible in its FIFOs (see Component::wake_hint). The hint is withheld
//    (0) whenever per-cycle work remains: a granted head response blocked
//    by a full response FIFO, or batching-veto cycles whose per-entry
//    deferral budgets accrue each cycle. Refresh-stall statistics over a
//    skipped span are settled in bulk (`stall_rate_` x cycles, flushed
//    lazily), and are exactly what per-cycle ticking would have counted —
//    the horizon is bounded by every cycle at which the stall predicate
//    could flip.
//
// The result is bit- and cycle-identical to the per-cycle rescan (the
// equivalence suite diff-tests gated vs naive, and naive mode itself
// early-outs through the same horizon), but grants cost work proportional
// to the ports/banks actually contending, and blocked stretches cost
// nothing at all.
#pragma once

#include <cstdint>
#include <vector>

#include "mem/backing_store.hpp"
#include "mem/dram_timing.hpp"
#include "mem/word.hpp"
#include "sim/fault.hpp"
#include "sim/kernel.hpp"

namespace axipack::mem {

struct DramMemoryConfig {
  unsigned num_ports = 8;
  std::size_t req_depth = 2;   ///< per-port request FIFO depth
  std::size_t resp_depth = 64; ///< per-port response FIFO depth
  /// Row-aware batching lookahead: visible requests per port the scheduler
  /// may inspect (and reorder reads within), including the head. 1 =
  /// head-only in-order scheduling (no batching). The effective window is
  /// bounded by req_depth.
  std::size_t sched_window = 32;
  /// Max cycles a timing-legal row miss may be deferred in favour of
  /// pending same-row requests before it wins anyway. 0 never defers.
  sim::Cycle starve_cap = 48;
  DramTimingConfig timing;
  /// Channel-interleave geometry of the surrounding system. This channel
  /// still receives absolute addresses; the address map compacts the
  /// channel-select bits out before decomposition (see DramAddressMap) so
  /// per-channel row locality is not diluted. 1 = single-channel identity.
  unsigned channels = 1;
  std::uint64_t channel_granule_words = 1;  ///< interleave granule in words
};

/// Activity counters of the DRAM model.
struct DramStats {
  std::uint64_t grants = 0;
  std::uint64_t conflict_losses = 0;  ///< same-cycle same-bank contenders not granted
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;  ///< activates (open-row conflict or closed bank)
  std::uint64_t refresh_stall_cycles = 0;  ///< bank-cycles requests waited on refresh
  /// Bank-cycles a timing-legal row miss was deferred to batch pending
  /// same-row requests on the open row (row-aware scheduling at work).
  std::uint64_t batch_defer_cycles = 0;
  /// Misses granted by the starvation cap while same-row work was still
  /// pending (the batching veto was overridden for fairness).
  std::uint64_t starved_grants = 0;
  /// Whole-port rebuilds (rescan_port calls): simulator work, not modelled
  /// behaviour. Only a refresh sweep rebuilds a whole port, once per tREFI
  /// for each port holding entries; a scheduler that rebuilt every port
  /// every cycle would count one per busy port per cycle.
  std::uint64_t port_rescans = 0;
  /// Window entries rescan_bank walked along its bank chains: simulator
  /// work. Arrivals and releases fold into the caches in O(1); rebuilding
  /// their bank instead raises the walk per granted word by up to 2.3x.
  std::uint64_t rescan_entries = 0;

  double row_hit_ratio() const {
    const std::uint64_t total = row_hits + row_misses;
    return total == 0 ? 0.0 : static_cast<double>(row_hits) / total;
  }
};

/// One granted access, recorded when a trace sink is attached (tests).
/// `cycle`/`data_at` describe the *command* timing (grant and data-ready
/// cycles); delivery into the response FIFO can be later when the in-order
/// release stage holds a response for an older one.
struct DramGrant {
  sim::Cycle cycle = 0;    ///< command-issue (grant) cycle
  sim::Cycle data_at = 0;  ///< cycle the data is ready (col + tCAS)
  unsigned port = 0;
  unsigned bank = 0;
  std::uint64_t row = 0;
  bool write = false;
  enum class Kind : std::uint8_t { hit, closed, miss } kind = Kind::hit;
};

class DramMemory final : public WordMemory {
 public:
  DramMemory(sim::Kernel& k, BackingStore& store,
             const DramMemoryConfig& cfg);

  void tick() override;
  /// Pure request server (see file header): all pending work — including
  /// granted responses awaiting in-order release — is anchored by visible
  /// entries in subscribed request Fifos, and all timing state is
  /// evaluated lazily.
  bool quiescent() const override { return true; }
  /// Event-driven sleep: the earliest future cycle any scheduling
  /// predicate can change (see the file header). 0 while per-cycle work
  /// remains (blocked release, veto accounting); sim::kNeverCycle when
  /// only a new request can create work.
  sim::Cycle wake_hint() const override { return wake_hint_; }

  const DramAddressMap& map() const { return map_; }
  const DramTimingConfig& timing() const { return cfg_.timing; }
  /// The configuration the memory was built with.
  const DramMemoryConfig& config() const { return cfg_; }
  /// Counters are exact at any cycle: a query mid-span settles the bulk
  /// refresh-stall accrual for the cycles ticked past (or slept through)
  /// so far, so observers never see a partially-accounted window.
  const DramStats& stats() const {
    const sim::Cycle now = Component::now();
    if (now > 0) settle_stalls(now - 1);
    return stats_;
  }
  bool batching_enabled() const {
    return cfg_.sched_window > 1 && cfg_.starve_cap > 0;
  }
  /// stats() in the form every memory reports.
  MemoryBackendStats activity() const override;

  /// Attaches (or detaches, with nullptr) a per-grant trace sink. Test-only
  /// observability; no recording when unset.
  void set_trace(std::vector<DramGrant>* sink) { trace_ = sink; }

  /// Attaches the system fault plan (nullptr = fault-free). Consulted once
  /// per granted access: reads may come back ECC-corrected or poisoned,
  /// writes may be dropped with an error response.
  void set_fault_plan(sim::FaultPlan* plan) { faults_ = plan; }

 private:
  struct BankState {
    bool row_open = false;
    std::uint64_t open_row = 0;
    std::uint64_t refresh_epoch = 0;   ///< last tREFI epoch applied
    sim::Cycle act_at = 0;             ///< cycle of the last activate
    sim::Cycle next_act = 0;           ///< earliest next activate
    sim::Cycle next_col = 0;           ///< earliest next column command
    sim::Cycle refresh_block_until = 0;  ///< end of the last refresh window
    sim::Cycle last_grant_at = 0;        ///< row keep-alive anchor
    bool granted_ever = false;           ///< last_grant_at is meaningful
  };

  /// Scheduler-hot state of one window entry; win_hot(p, i) parallels the
  /// i-th item (from the head) of port p's request Fifo. The address
  /// decomposition is cached at entry (requests are immutable once
  /// enqueued). Kept to 24 bytes on purpose: rescans stream these, and the
  /// rescan is the scheduler's hot loop.
  struct HotEntry {
    std::uint64_t word = 0;  ///< cached word index
    std::uint64_t row = 0;   ///< cached map_.row_of
    /// Starvation budget spent while vetoed. 32 bits bound the budget an
    /// entry can accrue during its (bounded) window residence.
    std::uint32_t defer_cycles = 0;
    std::uint16_t bank = 0;   ///< cached map_.bank_of
    std::uint8_t write = 0;   ///< cached from the request
    std::uint8_t granted = 0; ///< served, awaiting in-order release
  };

  /// Release-stage state of a granted entry (written once per grant, read
  /// once per release — kept out of the rescan stream).
  struct ColdEntry {
    WordResp resp;
    sim::Cycle ready_at = 0;  ///< data-ready cycle of the granted access
  };

  std::uint64_t word_index(std::uint64_t addr) const {
    return (addr - store_.base()) / kWordBytes;
  }

  /// Lazily applies any refresh windows that started since the bank was
  /// last considered: the row is closed and activates are pushed past the
  /// window's end. Multi-epoch catch-up (a sleep spanning several tREFI
  /// boundaries) collapses to the latest window exactly.
  void refresh_update(BankState& b, sim::Cycle now);

  /// Pops granted heads off each port, pushing their responses (with the
  /// remaining data latency) into the response FIFO in request order.
  /// Returns true when anything was released (the windows slid); leaves
  /// blocked_release_ = a granted head is parked behind a full response
  /// FIFO, which forces per-cycle release polling (no sleep).
  bool release_responses(sim::Cycle now);

  /// Decodes newly visible requests into the window rings (decode-once)
  /// and folds each into its bank's cached view, visiting only the ports
  /// in undecoded_ports_. Returns true if any window grew.
  bool absorb_arrivals(sim::Cycle now);

  /// Rebuilds port `p`'s whole cached view, bank by bank (rescan_bank on
  /// every bank). Only a refresh sweep needs it.
  void rescan_port(unsigned p, sim::Cycle now);

  /// Settles the constant-rate refresh-stall accrual for all fully
  /// elapsed cycles up to and including `through`.
  void settle_stalls(sim::Cycle through) const {
    if (through > stalls_settled_to_) {
      if (stall_rate_ != 0) {
        stats_.refresh_stall_cycles +=
            stall_rate_ * (through - stalls_settled_to_);
      }
      stalls_settled_to_ = through;
    }
  }

  /// First cycle bank `b` is cold: its row keep-alive window (tRP + tRCD
  /// after the last grant) has run out.
  sim::Cycle cold_at(const BankState& b) const {
    return b.last_grant_at + cfg_.timing.tRP + cfg_.timing.tRCD + 1;
  }
  /// Bank `b` was granted within its keep-alive window.
  bool warm(const BankState& b, sim::Cycle now) const {
    return b.granted_ever && now < cold_at(b);
  }

  /// Adds/removes port `p` to bank `b`'s contender mask, keeping the
  /// global live-bank mask in sync (a bank is live while any port offers
  /// it a candidate).
  void bank_ports_add(unsigned b, unsigned p) {
    bank_ports_[b] |= std::uint64_t{1} << p;
    live_banks_ |= std::uint64_t{1} << b;
  }
  void bank_ports_remove(unsigned b, unsigned p) {
    bank_ports_[b] &= ~(std::uint64_t{1} << p);
    if (bank_ports_[b] == 0) live_banks_ &= ~(std::uint64_t{1} << b);
  }

  /// Sets or clears port `p` in bank `b`'s cold-wait mask, keeping the
  /// mask of banks with waiters in sync.
  void set_cold_wait(unsigned p, unsigned b, bool waits) {
    const std::uint64_t pbit = std::uint64_t{1} << p;
    if (waits) {
      cold_wait_[b] |= pbit;
      cold_wait_banks_ |= std::uint64_t{1} << b;
    } else if ((cold_wait_[b] & pbit) != 0) {
      cold_wait_[b] &= ~pbit;
      if (cold_wait_[b] == 0) cold_wait_banks_ &= ~(std::uint64_t{1} << b);
    }
  }

  /// Serves entry `entry` of port `port_idx` on bank `bank_idx` at cycle
  /// `now` (timing already validated): performs the store access, stores
  /// the response in the entry for in-order release and updates bank
  /// timing state.
  void grant(unsigned port_idx, std::size_t entry, unsigned bank_idx,
             DramGrant::Kind kind, sim::Cycle now);

  /// The candidate rule: rebuilds port `p`'s view of bank `b` — candidate
  /// slot, interest, same-row and cold-wait bits — from b's entry chain
  /// alone. The head entry is always eligible; a deep read only if it
  /// hits the open row or the bank is closed or cold, and no pending
  /// same-word write precedes it; a deep write only if it hits and no
  /// pending same-word access precedes it. Exact at any instant.
  void rescan_bank(unsigned p, unsigned b, sim::Cycle now);

  BackingStore& store_;
  DramMemoryConfig cfg_;
  DramAddressMap map_;
  std::vector<BankState> banks_;
  std::vector<unsigned> rr_;  ///< per-bank round-robin pointer
  mutable DramStats stats_;  ///< mutable: stats() settles bulk stall accrual
  std::vector<DramGrant>* trace_ = nullptr;
  sim::FaultPlan* faults_ = nullptr;
  // Per-port scheduling window: a power-of-two ring (capacity >= the
  // effective window, min(sched_window, req_depth)) of decode-once
  // entries. Entries are addressed by *absolute* id — win_base_[p] is the
  // id of the current head — so a release (pop) shifts no cached indices.
  std::vector<HotEntry> win_hot_;        ///< [port][slot] flattened
  std::vector<ColdEntry> win_cold_;      ///< [port][slot] flattened
  std::vector<std::uint32_t> win_head_;  ///< ring slot of the head entry
  std::vector<std::uint32_t> win_size_;  ///< entries currently in the window
  std::vector<std::uint64_t> win_base_;  ///< absolute id of the head entry
  std::uint32_t win_cap_ = 1;            ///< ring capacity (power of two)

  HotEntry& win_hot(unsigned p, std::size_t i) {
    return win_hot_[static_cast<std::size_t>(p) * win_cap_ +
                    ((win_head_[p] + i) & (win_cap_ - 1))];
  }
  const HotEntry& win_hot(unsigned p, std::size_t i) const {
    return win_hot_[static_cast<std::size_t>(p) * win_cap_ +
                    ((win_head_[p] + i) & (win_cap_ - 1))];
  }
  ColdEntry& win_cold(unsigned p, std::size_t i) {
    return win_cold_[static_cast<std::size_t>(p) * win_cap_ +
                     ((win_head_[p] + i) & (win_cap_ - 1))];
  }

  /// Flat ring slot of the live entry with absolute id `id`. Invariant
  /// over the entry's window residence: pops advance win_head_ and
  /// win_base_ together, so the difference below never moves.
  std::size_t slot_of(unsigned p, std::uint64_t id) const {
    return static_cast<std::size_t>(p) * win_cap_ +
           ((win_head_[p] +
             static_cast<std::uint32_t>(id - win_base_[p])) &
            (win_cap_ - 1));
  }

  // Persistent candidate caches (repaired per event, NOT refilled per tick).
  // cand_* are [port][bank] flattened: the window entry each port offers
  // each bank; valid only for banks set in port_bank_mask_.
  std::vector<std::uint64_t> cand_entry_;  ///< absolute entry id + 1 (0 = none)
  std::vector<std::uint8_t> cand_hit_;     ///< candidate targets the open row
  std::vector<std::uint64_t> bank_ports_;  ///< per-bank contender port mask
  /// Ungranted writes currently in the window. While 0, reads have no
  /// word hazards by construction (hazard sources are pending writes), so
  /// an appended read hit may upgrade its bank slot without a rescan.
  std::vector<std::uint32_t> port_ungranted_writes_;
  std::vector<std::uint64_t> words_scratch_;        ///< hazard-scan helpers
  std::vector<std::uint64_t> write_words_scratch_;
  // ---- event-driven scheduler state (see file header) ------------------
  std::uint64_t live_banks_ = 0;   ///< banks with a nonzero contender mask
  std::uint64_t release_ports_ = 0;  ///< ports whose head entry is granted
  std::vector<std::uint64_t> port_bank_mask_;      ///< banks with a candidate
  std::vector<std::uint64_t> port_interest_mask_;  ///< banks with ungranted entries
  std::vector<std::uint64_t> port_samerow_mask_;   ///< banks with an ungranted open-row hit (veto anchors)
  // Per-(port,bank) chains threading each window's entries by bank, in
  // window order (ids ascend along a chain). Purely structural — valid
  // regardless of eligibility: absorb_arrivals appends, release_responses
  // unlinks popped heads, and rescan_bank additionally slides chain heads
  // past granted entries (permanent: granted never reverts). They let the
  // candidate rule touch same-bank entries only.
  std::vector<std::uint64_t> chain_next_;  ///< [port][slot]: next id+1 on bank
  std::vector<std::uint64_t> chain_head_;  ///< [port][bank]: first id+1 (0=none)
  std::vector<std::uint64_t> chain_tail_;  ///< [port][bank]: last id+1 (0=none)
  /// Per bank: ports holding a deep read that the bank's warmth blocks
  /// (rebuilt at cold_at; see the file header).
  std::vector<std::uint64_t> cold_wait_;
  std::uint64_t cold_wait_banks_ = 0;  ///< banks with a nonzero cold_wait_
  /// Visibility time of the earliest in-flight request that would grow a
  /// non-full window; recomputed by absorb_arrivals each tick and advanced
  /// by release_responses when pops free window slots.
  sim::Cycle next_arrival_ = sim::kNeverCycle;
  /// Ports whose request Fifo holds items not yet decoded into the
  /// window: set by the Fifos' push taps (FifoBase::set_push_flag), cleared
  /// by the decode that takes a port's last stored item. absorb_arrivals
  /// visits only these.
  std::uint64_t undecoded_ports_ = 0;
  sim::Cycle next_refresh_sweep_ = 0;  ///< first tREFI boundary not yet applied
  sim::Cycle next_sched_at_ = 0;  ///< horizon: earliest scheduling-predicate flip
  sim::Cycle wake_hint_ = 0;      ///< published to the kernel (0 = must poll)
  bool blocked_release_ = false;  ///< granted head parked on a full resp FIFO
  std::uint64_t stall_rate_ = 0;  ///< refresh-stalled banks per span cycle
  mutable sim::Cycle stalls_settled_to_ = 0;  ///< stall accrual complete through here
};

}  // namespace axipack::mem
