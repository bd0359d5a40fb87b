// Vector load-store unit: separate load and store units sharing the
// processor's AXI master port (loads own AR/R, stores own AW/W/B), as in
// Ara. Mode selects how strided/indexed accesses are realized:
//
//  * base  — one narrow single-beat burst per element (the inefficiency the
//            paper quantifies; indexed ops read their indices from a vreg)
//  * pack  — AXI-Pack strided/indirect bursts carrying the whole stream
//  * ideal — per-lane ideal ports, any pattern at `lanes` elements/cycle
//
// Both units move real data between the VRF and memory and advance
// element-granular progress so dependent ops chain.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "axi/types.hpp"
#include "vproc/context.hpp"

namespace axipack::vproc {

/// Op queue depth of each memory unit.
inline constexpr std::size_t kMemUnitQueue = 4;

class LoadUnit {
 public:
  LoadUnit(ProcContext& ctx, axi::AxiPort* port) : ctx_(ctx), port_(port) {}

  bool can_accept() const { return q_.size() < kMemUnitQueue; }
  /// Takes `op` from the sequencer in cycle `now`, after this unit ticked.
  void accept(const OpRef& op, sim::Cycle now);
  bool idle() const { return q_.empty(); }

  /// Advances one cycle; `now` is the kernel's cycle.
  void tick(sim::Cycle now);

 private:
  struct Active {
    OpRef op;
    std::vector<axi::AxiAr> bursts;  ///< precomputed (empty for on-the-fly)
    std::size_t next_burst = 0;
    std::uint64_t elems_requested = 0;  ///< base strided/indexed progress
    std::uint64_t elems_rx = 0;
    std::uint64_t beats_rx = 0;
    std::uint64_t bursts_done = 0;  ///< issued bursts fully received
    std::uint64_t start_cycle = 0;  ///< ideal mode: when op became active
    bool started = false;
    std::uint64_t accept_cycle = 0;  ///< first-issue latency stamp

    // Fault handling: an errored beat freezes element progress (its payload
    // and everything after it is discarded); once the attempt drains the op
    // is either replayed from scratch or force-failed.
    bool fault = false;
    bool fatal = false;  ///< DECERR seen: permanent, never retried
    unsigned attempts = 0;  ///< failed attempts so far
    std::uint64_t backoff_until = 0;
  };

  void tick_issue(sim::Cycle now);
  void tick_receive(sim::Cycle now);
  void tick_retry(sim::Cycle now);
  void tick_timeout(sim::Cycle now);
  void tick_ideal(sim::Cycle now);
  /// Bursts issued for the current attempt (per-element ops: elements).
  static std::uint64_t issued_bursts(const Active& a) {
    return a.bursts.empty() ? a.elems_requested : a.next_burst;
  }
  /// Element address for base-mode strided/indexed ops.
  std::uint64_t elem_addr(const Active& a, std::uint64_t i) const;
  void write_elem(const Active& a, std::uint64_t i, std::uint32_t value);

  ProcContext& ctx_;
  axi::AxiPort* port_;
  std::deque<Active> q_;
  unsigned outstanding_bursts_ = 0;
  bool conflict_stall_ = false;
  std::uint64_t stale_bursts_ = 0;  ///< abandoned-attempt bursts to drain
  sim::Cycle last_progress_ = 0;  ///< watchdog: last issue/receive cycle
};

class StoreUnit {
 public:
  StoreUnit(ProcContext& ctx, axi::AxiPort* port) : ctx_(ctx), port_(port) {}

  bool can_accept() const { return q_.size() < kMemUnitQueue; }
  /// As LoadUnit::accept.
  void accept(const OpRef& op, sim::Cycle now);
  bool idle() const { return q_.empty(); }

  void tick(sim::Cycle now);

 private:
  struct Active {
    OpRef op;
    std::vector<axi::AxiAw> bursts;
    std::size_t next_burst = 0;       ///< AW issue progress
    std::size_t w_burst = 0;          ///< burst whose W data is being sent
    std::uint64_t w_beat_in_burst = 0;
    std::uint64_t elems_tx = 0;
    unsigned b_received = 0;
    std::uint64_t start_cycle = 0;
    bool started = false;
    std::uint64_t accept_cycle = 0;  ///< first-issue latency stamp
    bool all_w_sent = false;
    // Fault handling (see LoadUnit::Active): stores are idempotent, so a
    // replay simply re-sends every AW/W of the op.
    bool fault = false;
    bool fatal = false;
    unsigned attempts = 0;
    std::uint64_t backoff_until = 0;
  };

  void tick_issue_aw(sim::Cycle now);
  void tick_issue_w();
  void tick_receive_b(sim::Cycle now);
  void tick_retry(sim::Cycle now);
  void tick_timeout(sim::Cycle now);
  void tick_ideal(sim::Cycle now);
  std::uint64_t elem_addr(const Active& a, std::uint64_t i) const;
  std::uint32_t read_elem(const Active& a, std::uint64_t i) const;
  /// Total W beats the op's current plan owes / has already sent.
  static std::uint64_t w_total(const Active& a);
  static std::uint64_t w_sent(const Active& a);

  ProcContext& ctx_;
  axi::AxiPort* port_;
  std::deque<Active> q_;
  unsigned outstanding_b_ = 0;
  /// Base-mode per-element store pacing: the next element may issue from
  /// cycle elem_issue_at_. The wait advances only on cycles an element is
  /// due (elem_due_at_ stamps the last one), so a stretch with no narrow
  /// store due defers it by its length.
  sim::Cycle elem_issue_at_ = 0;
  sim::Cycle elem_due_at_ = 0;
  std::uint64_t stale_b_ = 0;  ///< abandoned-attempt B responses to drain
  sim::Cycle last_progress_ = 0;
};

}  // namespace axipack::vproc
