#include "mem/dram_memory.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace axipack::mem {

namespace {
constexpr unsigned kNone = ~0u;

/// Index of the lowest set bit; `m` must be nonzero. Drives the ascending-
/// bank and ascending-port iteration over the candidate bitmasks.
inline unsigned ctz64(std::uint64_t m) {
  return static_cast<unsigned>(__builtin_ctzll(m));
}

inline unsigned popcount64(std::uint64_t m) {
  return static_cast<unsigned>(__builtin_popcountll(m));
}

/// Round-robin tie-break over a port bitmask: lowest set bit at or after
/// `start`, else the lowest overall. `m` must be nonzero, `start` < 64.
inline unsigned pick_rr(std::uint64_t m, unsigned start) {
  const std::uint64_t ge = m & (~std::uint64_t{0} << start);
  return ctz64(ge != 0 ? ge : m);
}
}  // namespace

const char* dram_mapping_name(DramMapping m) {
  switch (m) {
    case DramMapping::row_interleaved:
      return "row-interleaved";
    case DramMapping::bank_interleaved:
      return "bank-interleaved";
    case DramMapping::permuted:
      return "permuted";
  }
  return "?";
}

DramMemory::DramMemory(sim::Kernel& k, BackingStore& store,
                       const DramMemoryConfig& cfg)
    // Response latency is per item (Fifo::push_in), so the ports' own
    // latency parameter is the 1-cycle floor.
    : WordMemory(k, "DramMemory", cfg.num_ports, cfg.req_depth,
                 cfg.resp_depth, 1),
      store_(store),
      cfg_(cfg),
      map_(cfg.timing.num_banks(), cfg.timing.row_words, cfg.timing.mapping,
           cfg.channels, cfg.channel_granule_words),
      banks_(cfg.timing.num_banks()),
      rr_(cfg.timing.num_banks(), 0),
      win_head_(cfg.num_ports, 0),
      win_size_(cfg.num_ports, 0),
      win_base_(cfg.num_ports, 0),
      cand_entry_(cfg.num_ports * cfg.timing.num_banks(), 0),
      cand_hit_(cfg.num_ports * cfg.timing.num_banks(), 0),
      bank_ports_(cfg.timing.num_banks(), 0),
      port_ungranted_writes_(cfg.num_ports, 0),
      port_bank_mask_(cfg.num_ports, 0),
      port_interest_mask_(cfg.num_ports, 0),
      port_samerow_mask_(cfg.num_ports, 0),
      cold_wait_(cfg.timing.num_banks(), 0) {
  assert(cfg.timing.num_banks() > 0 && cfg.timing.row_words > 0);
  // The event-driven scheduler tracks pending banks and contending ports
  // in 64-bit masks.
  if (cfg.timing.num_banks() > 64) {
    std::fprintf(stderr,
                 "DramMemory: %u banks exceed the scheduler's 64-bank "
                 "bitmask limit\n",
                 cfg.timing.num_banks());
    std::abort();
  }
  if (cfg.num_ports > 64) {
    std::fprintf(stderr,
                 "DramMemory: %u ports exceed the scheduler's 64-port "
                 "bitmask limit\n",
                 cfg.num_ports);
    std::abort();
  }
  // The response channel needs at least one register stage.
  assert(cfg.timing.tCAS >= 1 && cfg.timing.tCCD >= 1);
  // Config validation happens unconditionally (not just via assert): a
  // zero-wide scheduler window is a configuration error that must fail
  // loudly instead of being silently clamped in assert-free builds.
  if (cfg.sched_window == 0) {
    std::fprintf(stderr,
                 "DramMemory: sched_window must be >= 1 (use 1 for head-only "
                 "scheduling, not 0)\n");
    std::abort();
  }
  // Refresh liveness (tREFI == 0 disables refresh): between the end of one
  // window and the start of the next there must be room for a full
  // precharge-activate-column sequence, or every row cycle is deferred
  // forever and the simulation hangs. A silent hang in assert-free builds
  // is worse than an abort, so validate unconditionally.
  const DramTimingConfig& t = cfg.timing;
  if (t.tREFI != 0 && t.tRFC + t.tRP + t.tRCD >= t.tREFI) {
    std::fprintf(stderr,
                 "DramMemory: refresh interval tREFI=%llu leaves no room for "
                 "a row cycle (tRFC=%llu + tRP=%llu + tRCD=%llu must be < "
                 "tREFI)\n",
                 static_cast<unsigned long long>(t.tREFI),
                 static_cast<unsigned long long>(t.tRFC),
                 static_cast<unsigned long long>(t.tRP),
                 static_cast<unsigned long long>(t.tRCD));
    std::abort();
  }
  // Effective per-port window: the scan depth the config asks for, bounded
  // by what the request FIFO can ever hold. Ring capacity is the next
  // power of two so entry addressing is a mask, not a division.
  const std::size_t eff_window = std::min(cfg.sched_window, cfg.req_depth);
  win_cap_ = std::bit_ceil(static_cast<std::uint32_t>(eff_window));
  win_hot_.resize(static_cast<std::size_t>(cfg.num_ports) * win_cap_);
  win_cold_.resize(static_cast<std::size_t>(cfg.num_ports) * win_cap_);
  chain_next_.resize(static_cast<std::size_t>(cfg.num_ports) * win_cap_, 0);
  chain_head_.resize(
      static_cast<std::size_t>(cfg.num_ports) * cfg.timing.num_banks(), 0);
  chain_tail_.resize(
      static_cast<std::size_t>(cfg.num_ports) * cfg.timing.num_banks(), 0);
}

MemoryBackendStats DramMemory::activity() const {
  const DramStats& d = stats();
  MemoryBackendStats s;
  s.grants = d.grants;
  s.conflict_losses = d.conflict_losses;
  s.row_hits = d.row_hits;
  s.row_misses = d.row_misses;
  s.refresh_stall_cycles = d.refresh_stall_cycles;
  s.row_batch_defer_cycles = d.batch_defer_cycles;
  s.row_starved_grants = d.starved_grants;
  return s;
}

void DramMemory::refresh_update(BankState& b, sim::Cycle now) {
  const sim::Cycle trefi = cfg_.timing.tREFI;
  if (trefi == 0) return;  // refresh disabled
  const std::uint64_t epoch = now / trefi;
  if (epoch == b.refresh_epoch) return;
  // One or more all-bank refreshes started since this bank was last
  // considered: the row buffer is precharged, and no activate may issue
  // before the end of the latest window.
  b.refresh_epoch = epoch;
  b.row_open = false;
  const sim::Cycle window_end = epoch * trefi + cfg_.timing.tRFC;
  b.next_act = std::max(b.next_act, window_end);
  b.refresh_block_until = window_end;
}

bool DramMemory::release_responses(sim::Cycle now) {
  bool released = false;
  blocked_release_ = false;
  const unsigned num_banks = static_cast<unsigned>(banks_.size());
  // Only ports whose head entry is granted can release anything; the mask
  // is maintained here and by grant() (a head can only become granted via
  // a grant at index 0 or a pop exposing a deep grant — both covered).
  for (std::uint64_t m = release_ports_; m != 0; m &= m - 1) {
    const unsigned p = ctz64(m);
    WordPort& port = *ports_[p];
    bool popped = false;
    while (win_size_[p] != 0 && win_hot(p, 0).granted &&
           port.resp.can_push()) {
      const ColdEntry& e = win_cold(p, 0);
      // Unlink the popped entry from its bank chain unless the chain head
      // already slid past it (rescan_bank skips granted prefixes
      // permanently); the link is read before the slot can be reused by a
      // later decode.
      {
        const std::size_t hs =
            static_cast<std::size_t>(p) * win_cap_ + win_head_[p];
        const std::size_t cs = static_cast<std::size_t>(p) * num_banks +
                               win_hot_[hs].bank;
        if (chain_head_[cs] == win_base_[p] + 1) {
          chain_head_[cs] = chain_next_[hs];
          if (chain_head_[cs] == 0) chain_tail_[cs] = 0;
        }
      }
      // Remaining data latency; already-ready responses held back by
      // in-order release still need the 1-cycle register floor.
      const sim::Cycle delay = e.ready_at > now ? e.ready_at - now : 1;
      port.resp.push_in(e.resp, delay);
      port.req.pop();
      win_head_[p] = (win_head_[p] + 1) & (win_cap_ - 1);
      --win_size_[p];
      ++win_base_[p];
      released = true;
      popped = true;
    }
    if (win_size_[p] != 0 && win_hot(p, 0).granted) {
      // A granted head parked behind a full response FIFO must retry the
      // release every cycle — the consumer can free space at any time and
      // the component cannot predict when, so it may not sleep.
      blocked_release_ = true;
    } else {
      release_ports_ &= ~(std::uint64_t{1} << p);
    }
    if (!popped) continue;
    // Freed window slots may uncover the next in-flight request (the pop
    // shifted FIFO indices with the window, so the first undecoded item
    // is still at index win_size_).
    if (win_size_[p] < cfg_.sched_window && win_size_[p] < port.req.size()) {
      const sim::Cycle v = port.req.item_visible_at(win_size_[p]);
      if (v < next_arrival_) next_arrival_ = v;
    }
    if (win_size_[p] != 0) {
      // The window slid. Only *granted* entries were removed, and granted
      // entries contribute nothing to the cached candidate view (no
      // hazard words, no interest/same-row anchors), so the surviving
      // entries' eligibility is unchanged — except that the new head, if
      // ungranted, now falls under the head-is-always-eligible rule.
      // Candidates are keyed by absolute id (win_base_), so no cached
      // index shifted; fold the head's forced eligibility into its bank's
      // slot instead of rescanning the whole window: the head displaces
      // any non-hit candidate (it is earlier), a hit head displaces any
      // candidate, and a deeper hit candidate survives a non-hit head
      // (prefer-hit). Same-row and interest anchors only ever gain here.
      const HotEntry& h = win_hot(p, 0);
      if (!h.granted) {
        const unsigned b = h.bank;
        const std::uint64_t bbit = std::uint64_t{1} << b;
        const std::size_t slot = static_cast<std::size_t>(p) * num_banks + b;
        const bool hits = banks_[b].row_open && banks_[b].open_row == h.row;
        const std::uint64_t head_id1 = win_base_[p] + 1;
        if (cand_entry_[slot] == 0) {
          cand_entry_[slot] = head_id1;
          cand_hit_[slot] = hits;
          port_bank_mask_[p] |= bbit;
          bank_ports_add(b, p);
        } else if (cand_entry_[slot] != head_id1 &&
                   (hits || !cand_hit_[slot])) {
          cand_entry_[slot] = head_id1;
          cand_hit_[slot] = hits;
        }
        if (hits) port_samerow_mask_[p] |= bbit;
      }
    }
  }
  return released;
}

bool DramMemory::absorb_arrivals(sim::Cycle now) {
  bool grew = false;
  const unsigned n = static_cast<unsigned>(ports_.size());
  const unsigned num_banks = static_cast<unsigned>(banks_.size());
  next_arrival_ = sim::kNeverCycle;
  for (unsigned p = 0; p < n; ++p) {
    WordPort& port = *ports_[p];
    // Decode once on entry: requests are immutable once enqueued, so every
    // later rescan touches only cached fields. Visibility is FIFO (the
    // scan stops at the first in-flight item), so the window always holds
    // exactly the first min(sched_window, visible_count) requests.
    while (win_size_[p] < cfg_.sched_window &&
           win_size_[p] < port.req.size() &&
           port.req.item_visible_at(win_size_[p]) <= now) {
      const WordReq& rq = port.req.peek(win_size_[p]);
      const std::uint32_t i = win_size_[p];
      HotEntry& e = win_hot(p, i);
      e.word = word_index(rq.addr);
      e.row = map_.row_of(e.word);
      e.defer_cycles = 0;
      e.bank = static_cast<std::uint16_t>(map_.bank_of(e.word));
      e.write = rq.write ? 1 : 0;
      e.granted = 0;
      // Thread the entry onto its bank chain (structural; rescans never
      // rebuild chains).
      {
        const std::uint64_t id1 = win_base_[p] + i + 1;
        const std::size_t ns = static_cast<std::size_t>(p) * win_cap_ +
                               ((win_head_[p] + i) & (win_cap_ - 1));
        const std::size_t cs =
            static_cast<std::size_t>(p) * num_banks + e.bank;
        chain_next_[ns] = 0;
        if (chain_tail_[cs] != 0) {
          chain_next_[slot_of(p, chain_tail_[cs] - 1)] = id1;
        } else {
          chain_head_[cs] = id1;
        }
        chain_tail_[cs] = id1;
      }
      ++win_size_[p];
      if (e.write) ++port_ungranted_writes_[p];
      grew = true;
      // Fold the append into the candidate caches without a rescan where
      // its effect is fully determined: an appended entry can only claim
      // an *empty* bank slot or upgrade a non-hit candidate to a hit
      // (prefer-hit); it can never displace an earlier hit. Same-row and
      // interest anchors only gain. (A refresh boundary crossed this tick
      // rebuilds every port with entries before arbitration, so the
      // pre-sweep row state read here cannot leak into a decision.)
      const unsigned b = e.bank;
      const std::uint64_t bbit = std::uint64_t{1} << b;
      const std::size_t slot = static_cast<std::size_t>(p) * num_banks + b;
      const bool hits = banks_[b].row_open && banks_[b].open_row == e.row;
      if (i == 0) {
        // New head of an empty window: always eligible, claims its slot
        // (all of this port's caches are empty at this point).
        cand_entry_[slot] = win_base_[p] + 1;
        cand_hit_[slot] = hits;
        port_bank_mask_[p] = bbit;
        bank_ports_add(b, p);
        port_interest_mask_[p] = bbit;
        port_samerow_mask_[p] = hits ? bbit : 0;
      } else if (!e.write && port_ungranted_writes_[p] == 0) {
        // Appended read into an all-read window: hazards are vacuous, so
        // its eligibility is the bank predicate alone — a hit, a closed
        // bank, or a bank gone cold. An eligible read claims an empty
        // slot; behind an existing candidate only a hit upgrades
        // (prefer-hit). A warm-blocked read facing an empty slot becomes
        // the candidate when the bank cools: it joins the bank's cold
        // wait.
        const BankState& bank = banks_[b];
        if (cand_entry_[slot] == 0) {
          if (hits || !bank.row_open || !warm(bank, now)) {
            cand_entry_[slot] = win_base_[p] + i + 1;
            cand_hit_[slot] = hits;
            port_bank_mask_[p] |= bbit;
            bank_ports_add(b, p);
          } else {
            set_cold_wait(p, b, true);
          }
        } else if (hits && !cand_hit_[slot]) {
          cand_entry_[slot] = win_base_[p] + i + 1;
          cand_hit_[slot] = 1;
        }
        port_interest_mask_[p] |= bbit;
        if (hits) port_samerow_mask_[p] |= bbit;
      } else if (cand_entry_[slot] != 0 && (cand_hit_[slot] || !hits)) {
        // Deep append that cannot become the candidate: anchors only.
        port_interest_mask_[p] |= bbit;
        if (hits) port_samerow_mask_[p] |= bbit;
      } else {
        // Could claim an empty slot or upgrade to a hit — eligibility
        // (bank state, hazards, window position) needs a real scan, but an
        // append perturbs only its own bank's view: rebuild that alone.
        rescan_bank(p, b, now);
      }
    }
    // The first still-in-flight request that would grow this window (the
    // decode loop above stopped right at it) bounds the horizon.
    if (win_size_[p] < cfg_.sched_window && win_size_[p] < port.req.size()) {
      const sim::Cycle v = port.req.item_visible_at(win_size_[p]);
      if (v < next_arrival_) next_arrival_ = v;
    }
  }
  return grew;
}

void DramMemory::rescan_port(unsigned p, sim::Cycle now) {
  ++stats_.port_rescans;
  // A no-op on every bank where p has neither entries nor cached state.
  const unsigned num_banks = static_cast<unsigned>(banks_.size());
  for (unsigned b = 0; b < num_banks; ++b) rescan_bank(p, b, now);
}

void DramMemory::grant(unsigned port_idx, std::size_t entry,
                       unsigned bank_idx, DramGrant::Kind kind,
                       sim::Cycle now) {
  const DramTimingConfig& t = cfg_.timing;
  BankState& bank = banks_[bank_idx];
  const WordReq& req = ports_[port_idx]->req.peek(entry);
  const std::uint64_t row = win_hot(port_idx, entry).row;

  sim::Cycle col_time = now;   // cycle the column command issues
  sim::Cycle data_delay = 0;   // grant -> data ready
  switch (kind) {
    case DramGrant::Kind::hit:
      data_delay = t.row_hit_latency();
      ++stats_.row_hits;
      break;
    case DramGrant::Kind::closed:
      // Activate now, column command after tRCD.
      col_time = now + t.tRCD;
      data_delay = t.closed_latency();
      bank.act_at = now;
      ++stats_.row_misses;
      break;
    case DramGrant::Kind::miss:
      // Precharge now, activate after tRP, column after tRCD more.
      col_time = now + t.tRP + t.tRCD;
      data_delay = t.row_miss_latency();
      bank.act_at = now + t.tRP;
      ++stats_.row_misses;
      break;
  }
  bank.row_open = true;
  bank.open_row = row;
  bank.next_col = col_time + t.tCCD;
  bank.last_grant_at = now;
  bank.granted_ever = true;

  win_hot(port_idx, entry).granted = 1;
  if (entry == 0) release_ports_ |= std::uint64_t{1} << port_idx;
  if (req.write) --port_ungranted_writes_[port_idx];
  ColdEntry& ce = win_cold(port_idx, entry);
  ce.ready_at = now + data_delay;
  ce.resp = WordResp{};  // ring slots are reused: clear stale error/rdata
  ce.resp.tag = req.tag;
  ce.resp.was_write = req.write;
  if (req.write) {
    // A faulted write is dropped before reaching the array (the retry
    // rewrites it); memory is never silently corrupted.
    if (faults_ != nullptr && faults_->next_dram_write()) {
      ce.resp.error = true;
    } else {
      store_.write_word(req.addr, req.wdata, req.wstrb);
    }
  } else {
    ce.resp.rdata = store_.read_u32(req.addr);
    if (faults_ != nullptr) {
      bool correctable = false;
      unsigned bit = 0;
      if (faults_->next_dram_read(&correctable, &bit) && !correctable) {
        // Uncorrectable: poison the returned data and flag the response.
        // Correctable faults are fixed by ECC in place — counted by the
        // plan, invisible on the port.
        ce.resp.rdata ^= 1u << bit;
        ce.resp.error = true;
      }
    }
  }
  ++stats_.grants;
  if (trace_ != nullptr) {
    trace_->push_back({now, now + data_delay, port_idx, bank_idx, row,
                       req.write, kind});
  }
  // Repair the candidate caches the grant made stale. Only bank
  // `bank_idx`'s state changed, and the candidate rule is bank-local (see
  // rescan_bank), so every repair is a rebuild of that one bank — also for
  // the hazards the granted entry itself releases (a write leaving the
  // pending set, or a read leaving a write's path): the entries they may
  // have blocked share its word, hence its bank.
  //
  // Affected ports: the granting port always (its entry left the
  // candidate set). After a miss or closed grant the open row changed, so
  // every port with ungranted work on the bank is affected. A row hit
  // leaves the open row unchanged and only refreshes the keep-alive
  // anchor: another port's candidate survives if it is itself a hit (hit
  // eligibility ignores warmth) or the port's head entry (always
  // eligible); only a candidate that was eligible because the bank had
  // gone *cold* — impossible for a hit or a head — is invalidated by the
  // renewed warmth. Ports with ungranted work but no candidate on the
  // bank lose nothing then: warmth only extends, so no blocked entry
  // becomes eligible, and the bank's cold cycle moves with its
  // last_grant_at.
  rescan_bank(port_idx, bank_idx, now);
  const std::uint64_t bbit = std::uint64_t{1} << bank_idx;
  const unsigned num_banks = static_cast<unsigned>(banks_.size());
  const unsigned n = static_cast<unsigned>(ports_.size());
  for (unsigned p = 0; p < n; ++p) {
    if (p == port_idx) continue;
    if (kind != DramGrant::Kind::hit) {
      if ((port_interest_mask_[p] & bbit) != 0) rescan_bank(p, bank_idx, now);
    } else if ((port_bank_mask_[p] & bbit) != 0) {
      const std::size_t slot =
          static_cast<std::size_t>(p) * num_banks + bank_idx;
      if (!cand_hit_[slot] && cand_entry_[slot] != win_base_[p] + 1) {
        rescan_bank(p, bank_idx, now);
      }
    }
  }
}

void DramMemory::rescan_bank(unsigned p, unsigned b, sim::Cycle now) {
  // The candidate rule is bank-local: row state and warmth are the bank's
  // own, and the word-level hazards (a read may not pass a pending
  // same-word write, a write may not pass any pending same-word access)
  // can only involve entries whose words collide, which map to the same
  // bank. Walking b's chain alone therefore rebuilds p's view of b
  // exactly, and the views cached for other banks stay exact across any
  // bank-b-only change.
  const unsigned num_banks = static_cast<unsigned>(banks_.size());
  const std::size_t slot = static_cast<std::size_t>(p) * num_banks + b;
  const std::uint64_t bbit = std::uint64_t{1} << b;
  const BankState& bank = banks_[b];
  std::uint64_t walked = 0;
  // Slide the chain head past its granted prefix (permanent: granted
  // entries never revert, and release unlinks only un-slid heads).
  std::uint64_t cid = chain_head_[slot];
  while (cid != 0) {
    const std::size_t s = slot_of(p, cid - 1);
    if (!win_hot_[s].granted) break;
    ++walked;
    cid = chain_next_[s];
  }
  chain_head_[slot] = cid;
  if (cid == 0) chain_tail_[slot] = 0;
  const bool bank_warm = warm(bank, now);
  const bool hazards = port_ungranted_writes_[p] != 0;
  std::vector<std::uint64_t>& words = words_scratch_;
  std::vector<std::uint64_t>& write_words = write_words_scratch_;
  if (hazards) {
    words.clear();
    write_words.clear();
  }
  const std::uint64_t head_id1 = win_base_[p] + 1;
  std::uint64_t first_el = 0;  // first eligible entry (claims the slot)
  std::uint8_t first_el_hit = 0;
  bool samerow = false;
  bool waits_cold = false;
  for (std::uint64_t c = cid; c != 0;) {
    ++walked;
    const std::size_t s = slot_of(p, c - 1);
    const HotEntry& e = win_hot_[s];
    const std::uint64_t cn = chain_next_[s];
    if (e.granted) {
      c = cn;
      continue;
    }
    const bool hit = bank.row_open && bank.open_row == e.row;
    // Ungranted same-row entries — eligible or not — anchor the veto.
    if (hit) samerow = true;
    bool eligible;
    if (c == head_id1) {
      eligible = true;  // window head: always eligible, nothing before it
    } else if (!e.write) {
      // Deep reads only where they cannot disturb a streamed row: a hit,
      // a closed bank, or a bank gone cold.
      const bool undisturbed = hit || !bank.row_open || !bank_warm;
      if (!undisturbed) waits_cold = true;
      eligible = undisturbed;
      if (eligible && hazards) {
        for (const std::uint64_t w : write_words) {
          if (w == e.word) {
            eligible = false;
            break;
          }
        }
      }
    } else {
      // Deep writes are held to open-row hits (opening a row for a write
      // the stream has moved past is never worth it).
      eligible = hit;
      if (eligible && hazards) {
        for (const std::uint64_t w : words) {
          if (w == e.word) {
            eligible = false;
            break;
          }
        }
      }
    }
    if (hazards) {
      words.push_back(e.word);
      if (e.write) write_words.push_back(e.word);
    }
    if (eligible) {
      if (first_el == 0) {
        first_el = c;
        first_el_hit = hit;
      }
      if (hit) {
        // Prefer-hit: the first eligible hit is final. Stopping here may
        // leave a deeper warm-blocked read out of the cold wait, but while
        // a hit candidate stands that read could never displace it; the
        // wait is re-derived when the hit is granted (this same path) or
        // the bank's row changes.
        first_el = c;
        first_el_hit = 1;
        break;
      }
    }
    c = cn;
  }
  stats_.rescan_entries += walked;
  if (cid != 0) {
    port_interest_mask_[p] |= bbit;
  } else {
    port_interest_mask_[p] &= ~bbit;
  }
  if (samerow) {
    port_samerow_mask_[p] |= bbit;
  } else {
    port_samerow_mask_[p] &= ~bbit;
  }
  set_cold_wait(p, b, waits_cold);
  if (first_el != 0) {
    cand_entry_[slot] = first_el;
    cand_hit_[slot] = first_el_hit;
    port_bank_mask_[p] |= bbit;
    bank_ports_add(b, p);
  } else {
    cand_entry_[slot] = 0;
    if ((port_bank_mask_[p] & bbit) != 0) {
      port_bank_mask_[p] &= ~bbit;
      bank_ports_remove(b, p);
    }
  }
}

void DramMemory::tick() {
  const unsigned n = static_cast<unsigned>(ports_.size());
  const unsigned num_banks = static_cast<unsigned>(banks_.size());
  const sim::Cycle now = Component::now();
  const DramTimingConfig& t = cfg_.timing;

  // In-order release first: frees window slots whose grants completed.
  // (Releases and arrivals fold into the candidate caches as they happen,
  // but they change what is grantable, so either forces the full
  // arbitration path below.)
  // Response-path backpressure never blocks granting: a granted entry
  // waits in the release stage (bounded by the window) until the response
  // FIFO has room, so a backpressured port keeps scheduling — and its
  // pending entries keep anchoring the veto — instead of wedging behind
  // its own out-of-order grants. (Gating grants on response occupancy
  // deadlocks when a deep grant fills the budget the older head needs to
  // release first.)
  const bool released = release_responses(now);
  // Decode newly visible requests into the windows.
  const bool grew = absorb_arrivals(now);

  if (!released && !grew && now < next_sched_at_) {
    // Nothing changed and no scheduling predicate can flip before
    // next_sched_at_: this tick reduces to the release poll above plus
    // the constant-rate refresh-stall attribution of the span.
    settle_stalls(now);
    wake_hint_ = blocked_release_ ? 0 : next_sched_at_;
    return;
  }

  // Settle the span accrual before this reschedule adds its own stalls.
  if (now > 0) settle_stalls(now - 1);

  // Refresh sweeps only on ticks that crossed a tREFI boundary (the lazy
  // per-bank catch-up collapses any number of skipped epochs exactly);
  // bank row state must be current before any candidate classification or
  // veto reads it, and a closed row invalidates the holders' candidates,
  // so every port holding entries is rebuilt on the spot.
  if (t.tREFI != 0 && now >= next_refresh_sweep_) {
    for (BankState& bank : banks_) refresh_update(bank, now);
    next_refresh_sweep_ = (now / t.tREFI + 1) * t.tREFI;
    for (unsigned p = 0; p < n; ++p) {
      if (win_size_[p] != 0) rescan_port(p, now);
    }
  }

  // Warmth is the one eligibility input that changes with time alone: a
  // deep read held back by a warm row becomes eligible the first cycle its
  // bank is cold, so rebuild the waiting ports' view of every bank that
  // has cooled.
  for (std::uint64_t m = cold_wait_banks_; m != 0; m &= m - 1) {
    const unsigned b = ctz64(m);
    if (warm(banks_[b], now)) continue;
    for (std::uint64_t w = cold_wait_[b]; w != 0; w &= w - 1) {
      rescan_bank(ctz64(w), b, now);
    }
  }

  const std::uint64_t all_mask = live_banks_;

  // ---- per-bank FR-FCFS ------------------------------------------------
  // Among each bank's contenders, grant a *timing-legal* row hit first,
  // else a timing-legal miss/closed access (subject to the row-batching
  // veto); ties break round-robin by port index. A port is granted at most
  // once per cycle. Only banks with live candidates are visited, in
  // ascending order (the grant order — and with it fault ordinals, traces
  // and stats — matches the full scan exactly). While arbitrating, every
  // cycle at which a currently-illegal move could become legal — or the
  // stall attribution could flip — is folded into `horizon`.
  std::uint64_t grants_this_tick = 0;
  std::uint64_t stall_count = 0;
  bool defer_accounting = false;
  sim::Cycle horizon = sim::kNeverCycle;
  const auto bound = [&horizon](sim::Cycle c) {
    if (c < horizon) horizon = c;
  };

  if (all_mask != 0) {
    std::uint64_t granted_ports = 0;  // per-port once-per-cycle grant latch
    // An activate/column sequence must complete before the next refresh
    // window opens — a controller never starts a row cycle it would have
    // to interrupt for refresh.
    const sim::Cycle no_col_from =
        t.tREFI == 0 ? sim::kNeverCycle : (now / t.tREFI + 1) * t.tREFI;
    for (std::uint64_t bmask = all_mask; bmask != 0; bmask &= bmask - 1) {
      const unsigned b = ctz64(bmask);
      const std::uint64_t contenders = bank_ports_[b] & ~granted_ports;
      if (contenders == 0) continue;
      BankState& bank = banks_[b];

      bool refresh_deferred = false;
      std::uint64_t hit_mask = 0;     // timing-legal row-hit contenders
      std::uint64_t legal_other = 0;  // timing-legal closed/miss contenders
      for (std::uint64_t cm = contenders; cm != 0; cm &= cm - 1) {
        const unsigned q = ctz64(cm);
        const std::size_t slot = static_cast<std::size_t>(q) * num_banks + b;
        if (cand_hit_[slot]) {
          // Row hit: the column command issues immediately.
          if (now < bank.next_col) {
            bound(bank.next_col);
            continue;
          }
          hit_mask |= std::uint64_t{1} << q;
        } else if (!bank.row_open) {
          // Closed bank: activate must be legal, and the column command it
          // leads to must respect the bank's column spacing and finish
          // before the next refresh window.
          if (now + t.tRCD >= no_col_from) {
            // Schedulable again only past the boundary (bounded globally).
            refresh_deferred = true;
            continue;
          }
          if (no_col_from != sim::kNeverCycle) {
            bound(no_col_from - t.tRCD);  // deferral flips on here
          }
          const sim::Cycle legal_at = std::max(
              bank.next_act,
              bank.next_col > t.tRCD ? bank.next_col - t.tRCD : 0);
          if (legal_at > now) {
            bound(legal_at);
            continue;
          }
          legal_other |= std::uint64_t{1} << q;
        } else {
          // Row conflict: precharge is legal only tRAS after the activate
          // that opened the current row, and the full precharge-activate-
          // column sequence must clear the next refresh window.
          const sim::Cycle row_cycle = t.tRP + t.tRCD;
          if (now + row_cycle >= no_col_from) {
            refresh_deferred = true;
            continue;
          }
          if (no_col_from != sim::kNeverCycle) {
            bound(no_col_from - row_cycle);  // deferral flips on here
          }
          const sim::Cycle legal_at = std::max(
              std::max(bank.act_at + t.tRAS, bank.next_act),
              bank.next_col > row_cycle ? bank.next_col - row_cycle : 0);
          if (legal_at > now) {
            bound(legal_at);
            continue;
          }
          legal_other |= std::uint64_t{1} << q;
        }
      }

      // All legal non-hit contenders share one kind: the bank is either
      // closed (activate only) or holds a conflicting row (full row cycle).
      const DramGrant::Kind other_kind =
          bank.row_open ? DramGrant::Kind::miss : DramGrant::Kind::closed;
      // Entry of port q's candidate on this bank, as a window index.
      const auto cand_index = [&](unsigned q) -> std::size_t {
        return static_cast<std::size_t>(
            cand_entry_[static_cast<std::size_t>(q) * num_banks + b] - 1 -
            win_base_[q]);
      };
      // Starvation cap: a timing-legal row miss spends one cycle of its
      // deferral budget every cycle it is passed over — whether by the
      // batching veto or by hit-priority — and wins unconditionally once
      // the budget is gone. Misses eventually beat any hit stream.
      std::uint64_t starved = 0;
      if (batching_enabled() && other_kind == DramGrant::Kind::miss) {
        for (std::uint64_t m = legal_other; m != 0; m &= m - 1) {
          const unsigned q = ctz64(m);
          if (win_hot(q, cand_index(q)).defer_cycles >= cfg_.starve_cap) {
            starved |= std::uint64_t{1} << q;
          }
        }
      }

      unsigned chosen = kNone;
      DramGrant::Kind kind = DramGrant::Kind::hit;
      if (starved != 0) {
        chosen = pick_rr(starved, rr_[b]);
        kind = other_kind;
        ++stats_.starved_grants;
      } else if (hit_mask != 0) {
        chosen = pick_rr(hit_mask, rr_[b]);
        if (batching_enabled()) {
          // Legal misses passed over by this hit pay from their budget.
          for (std::uint64_t m = legal_other; m != 0; m &= m - 1) {
            const unsigned q = ctz64(m);
            ++win_hot(q, cand_index(q)).defer_cycles;
          }
        }
      } else if (legal_other != 0) {
        kind = other_kind;
        bool veto = kind == DramGrant::Kind::miss && batching_enabled() &&
                    warm(bank, now);
        if (veto) {
          // Veto anchors (any port's ungranted open-row hit on this bank)
          // are checked on demand: far fewer miss considerations than
          // ticks, so this beats re-aggregating a global mask per tick.
          veto = false;
          const std::uint64_t bb = std::uint64_t{1} << b;
          for (unsigned q = 0; q < n; ++q) {
            if ((port_samerow_mask_[q] & bb) != 0) {
              veto = true;
              break;
            }
          }
        }
        std::uint64_t exempt_writes = 0;
        if (veto) {
          // Write misses are exempt from the veto: a write is near the
          // head of its port by construction, so deferring one stalls the
          // whole port (everything behind it is blocked by program order),
          // which costs far more than the row it would close. Only the
          // writes themselves are granted through the veto — read misses
          // at the same bank stay deferred.
          for (std::uint64_t m = legal_other; m != 0; m &= m - 1) {
            const unsigned q = ctz64(m);
            if (win_hot(q, cand_index(q)).write) {
              exempt_writes |= std::uint64_t{1} << q;
            }
          }
        }
        if (!veto) {
          chosen = pick_rr(legal_other, rr_[b]);
        } else if (exempt_writes != 0) {
          chosen = pick_rr(exempt_writes, rr_[b]);
        } else {
          // Every legal miss spends one cycle of its budget and the open
          // row survives for the pending same-row work. Budgets accrue
          // per cycle, so veto cycles must be ticked one by one.
          for (std::uint64_t m = legal_other; m != 0; m &= m - 1) {
            const unsigned q = ctz64(m);
            ++win_hot(q, cand_index(q)).defer_cycles;
          }
          ++stats_.batch_defer_cycles;
          defer_accounting = true;
          continue;
        }
      }
      if (chosen == kNone) {
        // Contenders exist but none is timing-legal this cycle; attribute
        // the stall to refresh when the bank sits inside (or right behind)
        // a refresh window, or deferred a row cycle to clear the next one.
        // The count per span cycle is constant (the horizon is bounded by
        // every flip point), so skipped cycles settle at stall_rate_ each.
        if (now < bank.refresh_block_until || refresh_deferred) {
          ++stats_.refresh_stall_cycles;
          ++stall_count;
          if (now < bank.refresh_block_until) {
            bound(bank.refresh_block_until);
          }
        }
        continue;
      }
      const unsigned ncontend = popcount64(contenders);
      if (ncontend > 1) {
        stats_.conflict_losses += ncontend - 1;
      }
      rr_[b] = (chosen + 1) % n;
      ++grants_this_tick;
      granted_ports |= std::uint64_t{1} << chosen;
      grant(chosen, cand_index(chosen), b, kind, now);
    }
  }

  if (grants_this_tick != 0) {
    // Grants made this cycle whose entry sits at a port's head release
    // now, matching the head-only scheduler's response timing exactly.
    release_responses(now);
  }

  // ---- horizon ---------------------------------------------------------
  // Fold in the maintained event times: the cold cycle of every bank a
  // deep read waits on, and the visibility of the next in-flight request
  // that would grow a window (kept current by absorb_arrivals and the
  // post-grant release above).
  for (std::uint64_t m = cold_wait_banks_; m != 0; m &= m - 1) {
    bound(cold_at(banks_[ctz64(m)]));
  }
  bound(next_arrival_);
  // Pending work must observe every refresh boundary (state flips there).
  if (all_mask != 0 && t.tREFI != 0) bound(next_refresh_sweep_);

  // A tick that granted, released or paid deferral budgets invalidates the
  // horizon computed above — reschedule next cycle. Otherwise nothing can
  // change before `horizon`, and the skipped cycles each stall exactly
  // `stall_count` banks.
  const bool acted = released || grants_this_tick != 0 || defer_accounting;
  next_sched_at_ =
      acted ? now + 1
            : (horizon == sim::kNeverCycle ? horizon
                                           : std::max(horizon, now + 1));
  stall_rate_ = stall_count;
  stalls_settled_to_ = now;
  wake_hint_ = blocked_release_ ? 0 : next_sched_at_;
}

}  // namespace axipack::mem
