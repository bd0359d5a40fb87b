#include "pack/coalescer.hpp"

#include <algorithm>
#include <cassert>

#include "pack/port_mux.hpp"

namespace axipack::pack {

Coalescer::Coalescer(sim::Kernel& k, std::vector<LaneIO> downstream,
                     const CoalescerConfig& cfg)
    : down_(std::move(downstream)),
      lanes_n_(static_cast<unsigned>(down_.size())),
      cfg_(cfg),
      // 2 KiB granule as both partition and group: the default DRAM row
      // span and a sane spatial-locality proxy for the SRAM backends.
      key_fn_([](std::uint64_t addr) {
        const std::uint64_t g = addr >> 11;
        return (g << 48) | (g & 0xFFFFFFFFFFFFull);
      }),
      table_(cfg.entries),
      issue_q_(lanes_n_),
      waiters_(lanes_n_),
      next_seq_(lanes_n_, 0),
      last_key_(lanes_n_, 0),
      has_last_key_(lanes_n_, false) {
  assert(cfg_.entries >= 1 && cfg_.window >= 1);
  // The slot index travels as the downstream tag and must not collide with
  // the port mux's converter-id field.
  assert((cfg_.entries - 1) >> PortMux::kConvShift == 0);
  up_req_.reserve(lanes_n_);
  up_resp_.reserve(lanes_n_);
  for (unsigned l = 0; l < lanes_n_; ++l) {
    up_req_.push_back(std::make_unique<sim::Fifo<mem::WordReq>>(
        k, cfg_.lane_fifo_depth, 1));
    up_resp_.push_back(std::make_unique<sim::Fifo<mem::WordResp>>(
        k, cfg_.resp_fifo_depth, 1));
  }
  free_slots_.reserve(cfg_.entries);
  for (std::size_t s = cfg_.entries; s > 0; --s) {
    free_slots_.push_back(static_cast<std::uint32_t>(s - 1));
  }
  k.add(*this);
  for (auto& f : up_req_) k.subscribe(*this, *f);
  for (const LaneIO& lane : down_) k.subscribe(*this, *lane.resp);
}

std::vector<LaneIO> Coalescer::upstream_lanes() {
  std::vector<LaneIO> out(lanes_n_);
  for (unsigned l = 0; l < lanes_n_; ++l) {
    out[l].req = up_req_[l].get();
    out[l].resp = up_resp_[l].get();
  }
  return out;
}

void Coalescer::set_locality_key(LocalityKeyFn fn) {
  assert(fn);
  assert(live_ == 0 && "locality key must be set before traffic flows");
  key_fn_ = std::move(fn);
  // Cached keys in the (empty) table need no rewrite; last-issue keys from
  // a previous key space must not seed bogus group matches.
  std::fill(has_last_key_.begin(), has_last_key_.end(), false);
}

void Coalescer::drain_downstream() {
  for (unsigned l = 0; l < lanes_n_; ++l) {
    if (!down_[l].resp->can_pop()) continue;
    const mem::WordResp resp = down_[l].resp->pop();
    assert(resp.tag < table_.size());
    Entry& e = table_[resp.tag];
    assert(e.valid && !e.filled);
    // Fan the word out to every waiter accepted while the fetch was in
    // flight — the waiter records are self-contained from here on, so the
    // in-flight count never includes the (deliberately long, row-batched)
    // release reorder window.
    for (const WaiterRef& ref : e.waiters) {
      auto& lane_q = waiters_[ref.lane];
      const std::uint64_t head = next_seq_[ref.lane] - lane_q.size();
      assert(ref.seq >= head && ref.seq - head < lane_q.size());
      Waiter& w = lane_q[static_cast<std::size_t>(ref.seq - head)];
      w.rdata = resp.rdata;
      w.ready = true;
      w.error = resp.error;
    }
    e.waiters.clear();
    --live_;
    // Retain the word to serve later duplicates — unless it was a write
    // (pass-through, nothing to serve), a snooped write de-registered
    // the entry while the fetch was in flight (the data may predate the
    // store, so it must not outlive this fan-out), or the fill errored
    // (a corrupt word must error every merged waiter now and never be
    // served silently to a later request).
    const auto reg = lookup_.find(e.addr);
    if (!e.write && !resp.error && reg != lookup_.end() &&
        reg->second == resp.tag) {
      e.rdata = resp.rdata;
      e.filled = true;
      retained_q_.push_back({resp.tag, e.addr});
    } else {
      if (reg != lookup_.end() && reg->second == resp.tag) {
        lookup_.erase(reg);
      }
      e.valid = false;
      free_slots_.push_back(resp.tag);
    }
  }
}

void Coalescer::release_upstream() {
  for (unsigned l = 0; l < lanes_n_; ++l) {
    if (waiters_[l].empty() || !up_resp_[l]->can_push()) continue;
    const Waiter& w = waiters_[l].front();
    if (!w.ready) continue;  // fetch still in flight (in-order release)
    mem::WordResp resp;
    resp.rdata = w.rdata;
    resp.tag = w.tag;
    resp.was_write = w.was_write;
    resp.error = w.error;
    up_resp_[l]->push(resp);
    waiters_[l].pop_front();
    --total_waiters_;
  }
}

void Coalescer::invalidate(std::uint64_t addr) {
  const auto it = lookup_.find(addr);
  if (it == lookup_.end()) return;
  Entry& e = table_[it->second];
  if (e.filled) {
    // Retained copy: drop it (its retained_q_ record goes stale and is
    // skipped by take_slot's validation).
    e.valid = false;
    e.filled = false;
    free_slots_.push_back(it->second);
  }
  // In flight: the fetch still serves its already-accepted waiters — the
  // same read-write ordering the uncoalesced path has — but new requests
  // no longer merge into it and drain_downstream will not retain it.
  lookup_.erase(it);
}

void Coalescer::invalidate_range(std::uint64_t addr, std::uint64_t bytes) {
  if (lookup_.empty()) return;
  for (std::uint64_t w = addr & ~std::uint64_t{3}; w < addr + bytes; w += 4) {
    invalidate(w);
  }
}

std::uint32_t Coalescer::take_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  // Reclaim the oldest retained word; only unfilled entries are
  // irreplaceable (their fetch response still routes back by slot).
  // Records whose slot moved on (invalidated, evicted, reallocated) are
  // stale — skip them.
  while (!retained_q_.empty()) {
    const Retained r = retained_q_.front();
    retained_q_.pop_front();
    Entry& e = table_[r.slot];
    if (!e.valid || !e.filled || e.addr != r.addr) continue;
    e.valid = false;
    e.filled = false;
    lookup_.erase(r.addr);
    return r.slot;
  }
  return kNoSlot;
}

void Coalescer::accept_upstream() {
  for (unsigned l = 0; l < lanes_n_; ++l) {
    if (!up_req_[l]->can_pop()) continue;
    const mem::WordReq& req = up_req_[l]->front();
    std::uint32_t slot = kNoSlot;
    bool instant = false;
    std::uint32_t instant_data = 0;
    const auto hit = lookup_.find(req.addr);
    if (req.write) {
      if (hit != lookup_.end()) {
        Entry& e = table_[hit->second];
        if (!e.filled) {
          // Same-word write behind a pending read or write: stall in the
          // lane until the older access resolves (preserves WAR/WAW; the
          // older entry completes independently, so no deadlock).
          continue;
        }
        // Retained copy: the store supersedes it; reclaim the slot for the
        // write entry itself (its retained_q_ record goes stale).
        slot = hit->second;
        e.filled = false;
        lookup_.erase(hit);
      }
    } else if (hit != lookup_.end()) {
      const Entry& e = table_[hit->second];
      if (e.write) {
        // Read of a word with a queued/in-flight write: forward the store
        // data when the full word is being written, else stall behind it.
        if (e.wstrb != 0xF) continue;
        instant = true;
        instant_data = e.wdata;
        ++stats_.merged;
      } else {
        slot = hit->second;
        instant = e.filled;
        instant_data = e.rdata;
        ++stats_.merged;
      }
    }
    if (slot == kNoSlot && !instant) {
      if ((slot = take_slot()) == kNoSlot) {
        continue;  // table full: the request backpressures in its lane FIFO
      }
    }
    if (slot != kNoSlot && !instant &&
        (req.write || lookup_.find(req.addr) == lookup_.end())) {
      Entry& e = table_[slot];
      e.addr = req.addr;
      e.key = key_fn_(req.addr);
      e.write = req.write;
      e.wdata = req.wdata;
      e.wstrb = req.wstrb;
      e.valid = true;
      e.filled = false;
      if (!req.write) {
        lookup_.emplace(req.addr, slot);
        ++stats_.unique;
      } else {
        lookup_[req.addr] = slot;
      }
      issue_q_[route_of(e.key)].push_back(slot);
      ++live_;
      stats_.peak_pending = std::max<std::uint64_t>(stats_.peak_pending,
                                                    live_);
    }
    Waiter w;
    w.tag = req.tag;
    w.was_write = req.write;
    if (instant) {
      w.rdata = instant_data;
      w.ready = true;
    } else {
      table_[slot].waiters.push_back({l, next_seq_[l]});
    }
    ++next_seq_[l];
    waiters_[l].push_back(w);
    ++total_waiters_;
    up_req_[l]->pop();
  }
}

void Coalescer::issue_downstream() {
  for (unsigned l = 0; l < lanes_n_; ++l) {
    std::deque<std::uint32_t>& q = issue_q_[l];
    if (q.empty() || !down_[l].req->can_push()) continue;
    // Prefer, within the window, the first entry continuing this lane's
    // current row group; fall back to the queue head (bounded reordering,
    // guaranteed progress). A lane may carry several partitions (16 DRAM
    // banks fold onto 8 lanes), so continue the last row only while the
    // head is in its partition: otherwise the window would pass older
    // fetches to another bank's row, and the lane's last key would flip
    // between the banks.
    const std::size_t look = std::min(cfg_.window, q.size());
    std::size_t pick = 0;
    if (has_last_key_[l] &&
        (table_[q.front()].key >> 48) == (last_key_[l] >> 48)) {
      for (std::size_t i = 0; i < look; ++i) {
        if (table_[q[i]].key == last_key_[l]) {
          pick = i;
          break;
        }
      }
    }
    const std::uint32_t slot = q[pick];
    q.erase(q.begin() + static_cast<std::ptrdiff_t>(pick));
    const Entry& e = table_[slot];
    if (!has_last_key_[l] || e.key != last_key_[l]) ++stats_.row_groups;
    last_key_[l] = e.key;
    has_last_key_[l] = true;
    mem::WordReq req;
    req.addr = e.addr;
    req.write = e.write;
    req.wdata = e.wdata;
    req.wstrb = e.wstrb;
    req.tag = slot;
    down_[l].req->push(req);
  }
}

bool Coalescer::quiescent() const {
  for (unsigned l = 0; l < lanes_n_; ++l) {
    if (!issue_q_[l].empty()) return false;
    if (!waiters_[l].empty() && waiters_[l].front().ready) return false;
  }
  return true;
}

void Coalescer::tick() {
  drain_downstream();
  release_upstream();
  accept_upstream();
  issue_downstream();
}

}  // namespace axipack::pack
