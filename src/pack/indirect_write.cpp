#include "pack/indirect_write.hpp"

#include <cassert>

#include "util/bits.hpp"

namespace axipack::pack {

IndirectWriteConverter::IndirectWriteConverter(sim::Kernel& k,
                                               std::vector<LaneIO> lanes,
                                               unsigned bus_bytes,
                                               unsigned queue_depth,
                                               std::size_t b_out_depth,
                                               std::size_t idx_window_lines,
                                               std::size_t max_bursts)
    : lanes_(std::move(lanes)),
      bus_bytes_(bus_bytes),
      lanes_n_(static_cast<unsigned>(lanes_.size())),
      idx_regulator_(lanes_n_, queue_depth),
      elem_regulator_(lanes_n_, queue_depth),
      b_out_(k, b_out_depth, 1),
      max_bursts_(max_bursts),
      idx_window_lines_(idx_window_lines),
      prefer_idx_(lanes_n_, true),
      idx_q_(lanes_n_) {
  k.add(*this);
}

bool IndirectWriteConverter::can_accept_aw() const {
  return bursts_.size() < max_bursts_;
}

void IndirectWriteConverter::accept_aw(const axi::AxiAw& aw) {
  assert(aw.pack.has_value() && aw.pack->indir);
  wake_self();
  Burst bu;
  bu.geom = PackGeom::make(bus_bytes_, aw.beat_bytes(), aw.pack->num_elems);
  bu.elem_base = aw.addr;
  bu.idx_base = aw.pack->index_base;
  bu.idx_bytes = aw.pack->index_bits / 8;
  assert(bu.idx_base % 4 == 0 && "index array must be word-aligned");
  bu.id = aw.id;
  bu.idx_words_total =
      util::ceil_div<std::uint64_t>(bu.geom.num_elems * bu.idx_bytes, 4);
  bu.idx_issue.assign(lanes_n_, 0);
  bursts_.push_back(std::move(bu));
}

IndirectWriteConverter::Burst* IndirectWriteConverter::unpack_target() {
  for (Burst& bu : bursts_) {
    if (bu.unpack_beat < bu.geom.beats) return &bu;
  }
  return nullptr;
}

const IndirectWriteConverter::Burst* IndirectWriteConverter::unpack_target()
    const {
  for (const Burst& bu : bursts_) {
    if (bu.unpack_beat < bu.geom.beats) return &bu;
  }
  return nullptr;
}

bool IndirectWriteConverter::can_accept_w() const {
  const Burst* bu = unpack_target();
  if (bu == nullptr) return false;
  const unsigned valid = bu->geom.valid_lanes(bu->unpack_beat);
  for (unsigned l = 0; l < valid; ++l) {
    if (!elem_regulator_.can_issue(l)) return false;
    if (!lanes_[l].req->can_push()) return false;
    // The index for this lane's slot must be in the window.
    const std::uint64_t slot = bu->geom.slot(bu->unpack_beat, l);
    const std::uint64_t elem = bu->geom.elem_of_slot(slot);
    if (elem - bu->idx_window_base >= bu->idx_window.size()) return false;
  }
  return true;
}

void IndirectWriteConverter::accept_w(const axi::AxiW& w) {
  wake_self();
  Burst* bu = unpack_target();
  assert(bu != nullptr);
  const unsigned valid = bu->geom.valid_lanes(bu->unpack_beat);
  for (unsigned l = 0; l < valid; ++l) {
    const std::uint64_t slot = bu->geom.slot(bu->unpack_beat, l);
    const std::uint64_t elem = bu->geom.elem_of_slot(slot);
    const std::uint64_t index = bu->idx_window[elem - bu->idx_window_base];
    mem::WordReq req;
    req.addr = bu->elem_base +
               (index << util::log2_exact(bu->geom.elem_bytes)) +
               4ull * bu->geom.word_in_elem(slot);
    req.write = true;
    req.wstrb = bu->err ? 0x0 : 0xF;
    axi::extract_bytes(w.data, 4 * l,
                       reinterpret_cast<std::uint8_t*>(&req.wdata), 4);
    req.tag = kElemTag;
    lanes_[l].req->push(req);
    elem_regulator_.on_issue(l);
    ++word_stats_.elem_words;
  }
  ++bu->unpack_beat;
  retire_indices(*bu);
  assert(w.last == (bu->unpack_beat == bu->geom.beats));
}

void IndirectWriteConverter::drain_responses() {
  for (unsigned l = 0; l < lanes_n_; ++l) {
    if (!lanes_[l].resp->can_pop()) continue;
    const mem::WordResp& head = lanes_[l].resp->front();
    if ((head.tag & 1u) == kIdxTag) {
      idx_q_[l].push_back(lanes_[l].resp->pop());
    } else {
      // Write acknowledgement: count it toward the oldest incomplete burst.
      const bool err = lanes_[l].resp->pop().error;
      elem_regulator_.on_retire(l);
      for (Burst& bu : bursts_) {
        if (bu.acks < bu.geom.total_words) {
          ++bu.acks;
          bu.err |= err;
          break;
        }
      }
    }
  }
}

void IndirectWriteConverter::tick_index_issue() {
  for (unsigned l = 0; l < lanes_n_; ++l) {
    if (!lanes_[l].req->can_push()) continue;
    if (!idx_regulator_.can_issue(l)) continue;
    // Element-stage writes are issued by accept_w (driven by the adapter),
    // so the request port is shared: skip index issue on lanes where an
    // element write will likely go this cycle only via round-robin; the
    // Fifo capacity (>= 2) absorbs same-cycle contention.
    for (Burst& bu : bursts_) {
      const std::uint64_t word = bu.idx_issue[l] * lanes_n_ + l;
      if (word >= bu.idx_words_total) continue;
      const std::uint64_t ipw = 4 / bu.idx_bytes;
      const std::uint64_t cap = idx_window_lines_ * (bus_bytes_ / bu.idx_bytes);
      // Run-ahead credit relative to the extraction frontier — same
      // deadlock-free window accounting as the indirect read converter.
      const std::uint64_t ahead = word + 1 - bu.idx_words_extracted;
      if (bu.idx_window.size() + ahead * ipw > cap) break;
      mem::WordReq req;
      req.addr = bu.idx_base + 4ull * word;
      req.write = false;
      req.tag = kIdxTag;
      lanes_[l].req->push(req);
      idx_regulator_.on_issue(l);
      ++bu.idx_issue[l];
      ++word_stats_.idx_words;
      break;
    }
  }
}

void IndirectWriteConverter::tick_index_extract() {
  for (unsigned consumed = 0; consumed < lanes_n_; ++consumed) {
    Burst* target = nullptr;
    for (Burst& bu : bursts_) {
      if (bu.idx_words_extracted < bu.idx_words_total) {
        target = &bu;
        break;
      }
    }
    if (target == nullptr) return;
    Burst& bu = *target;
    const std::uint64_t w = bu.idx_words_extracted;
    const unsigned lane = static_cast<unsigned>(w % lanes_n_);
    if (idx_q_[lane].empty()) return;
    mem::WordResp resp = idx_q_[lane].front();
    idx_q_[lane].pop_front();
    idx_regulator_.on_retire(lane);
    ++bu.idx_words_extracted;
    if (resp.error) {
      // Substitute index 0 (in-region) and poison the burst; accept_w
      // masks the strobes of every write issued from here on.
      resp.rdata = 0;
      bu.err = true;
    }
    const std::uint64_t first_idx = w * 4 / bu.idx_bytes;
    const std::uint64_t ipw = 4 / bu.idx_bytes;
    for (std::uint64_t i = 0; i < ipw; ++i) {
      const std::uint64_t elem = first_idx + i;
      if (elem >= bu.geom.num_elems) break;
      std::uint64_t value = 0;
      switch (bu.idx_bytes) {
        case 4: value = resp.rdata; break;
        case 2: value = (resp.rdata >> (16 * i)) & 0xFFFFu; break;
        case 1: value = (resp.rdata >> (8 * i)) & 0xFFu; break;
        default: assert(false);
      }
      bu.idx_window.push_back(value);
    }
  }
}

void IndirectWriteConverter::retire_indices(Burst& bu) {
  // Beats unpack atomically, so elements below the unpacked-beat frontier
  // are fully written.
  const std::uint64_t frontier = bu.unpack_beat * lanes_n_;
  const std::uint64_t done_elems = frontier / bu.geom.wpe;
  while (bu.idx_window_base < done_elems && !bu.idx_window.empty()) {
    bu.idx_window.pop_front();
    ++bu.idx_window_base;
  }
}

void IndirectWriteConverter::tick() {
  drain_responses();
  tick_index_extract();
  tick_index_issue();
  if (!bursts_.empty()) {
    Burst& bu = bursts_.front();
    if (bu.unpack_beat == bu.geom.beats && bu.acks == bu.geom.total_words &&
        b_out_.can_push()) {
      axi::AxiB b;
      b.id = bu.id;
      if (bu.err) b.resp = axi::kRespSlvErr;
      b_out_.push(b);
      bursts_.pop_front();
    }
  }
}

}  // namespace axipack::pack
