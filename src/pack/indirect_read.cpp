#include "pack/indirect_read.hpp"

#include <algorithm>
#include <cassert>

#include "util/bits.hpp"

namespace axipack::pack {

IndirectReadConverter::IndirectReadConverter(sim::Kernel& k,
                                             std::vector<LaneIO> lanes,
                                             unsigned bus_bytes,
                                             unsigned queue_depth,
                                             std::size_t r_out_depth,
                                             std::size_t idx_window_lines,
                                             std::size_t max_bursts,
                                             std::vector<LaneIO> idx_lanes)
    : lanes_(std::move(lanes)),
      idx_lanes_(std::move(idx_lanes)),
      bus_bytes_(bus_bytes),
      lanes_n_(static_cast<unsigned>(lanes_.size())),
      idx_regulator_(lanes_n_, queue_depth),
      elem_regulator_(lanes_n_, queue_depth),
      r_out_(k, r_out_depth, 1),
      max_bursts_(max_bursts),
      idx_window_lines_(idx_window_lines),
      prefer_idx_(lanes_n_, true),
      idx_q_(lanes_n_),
      elem_q_(lanes_n_) {
  assert(idx_lanes_.empty() || idx_lanes_.size() == lanes_.size());
  k.add(*this);
  for (const LaneIO& lane : lanes_) k.subscribe(*this, *lane.resp);
  for (const LaneIO& lane : idx_lanes_) k.subscribe(*this, *lane.resp);
}

bool IndirectReadConverter::can_accept_ar() const {
  return bursts_.size() < max_bursts_;
}

void IndirectReadConverter::accept_ar(const axi::AxiAr& ar) {
  assert(ar.pack.has_value() && ar.pack->indir);
  wake_self();
  Burst bu;
  bu.geom = PackGeom::make(bus_bytes_, ar.beat_bytes(), ar.pack->num_elems);
  bu.elem_base = ar.addr;
  bu.idx_base = ar.pack->index_base;
  bu.idx_bytes = ar.pack->index_bits / 8;
  bu.elem_shift = util::log2_exact(bu.geom.elem_bytes);
  assert(bu.idx_base % 4 == 0 && "index array must be word-aligned");
  bu.id = ar.id;
  bu.traffic = ar.traffic;
  bu.idx_words_total =
      util::ceil_div<std::uint64_t>(bu.geom.num_elems * bu.idx_bytes, 4);
  bu.idx_issue.assign(lanes_n_, 0);
  bu.elem_issue.assign(lanes_n_, 0);
  bursts_.push_back(std::move(bu));
}

std::uint64_t IndirectReadConverter::issue_frontier(const Burst& bu) {
  std::uint64_t f = ~std::uint64_t{0};
  for (unsigned l = 0; l < bu.elem_issue.size(); ++l) {
    f = std::min(f, bu.elem_issue[l] * bu.elem_issue.size() + l);
  }
  return f;
}

void IndirectReadConverter::drain_responses() {
  // Split lanes: each stage drains its own bundle (no routing needed).
  if (!idx_lanes_.empty()) {
    for (unsigned l = 0; l < lanes_n_; ++l) {
      if (idx_lanes_[l].resp->can_pop()) {
        idx_q_[l].push_back(idx_lanes_[l].resp->pop());
      }
      if (lanes_[l].resp->can_pop()) {
        elem_q_[l].push_back(lanes_[l].resp->pop());
      }
    }
    return;
  }
  // Route shared-lane responses into per-stage queues (the RTL's separate
  // decoupling queues); this removes head-of-line blocking between stages.
  for (unsigned l = 0; l < lanes_n_; ++l) {
    if (!lanes_[l].resp->can_pop()) continue;
    const mem::WordResp& head = lanes_[l].resp->front();
    if ((head.tag & 1u) == kIdxTag) {
      idx_q_[l].push_back(lanes_[l].resp->pop());
    } else {
      elem_q_[l].push_back(lanes_[l].resp->pop());
    }
  }
}

const IndirectReadConverter::Burst* IndirectReadConverter::idx_candidate(
    unsigned l) const {
  for (const Burst& bu : bursts_) {
    const std::uint64_t word = bu.idx_issue[l] * lanes_n_ + l;
    if (word >= bu.idx_words_total) continue;
    const std::uint64_t ipw = 4 / bu.idx_bytes;
    const std::uint64_t cap = idx_window_lines_ * (bus_bytes_ / bu.idx_bytes);
    // Run-ahead credit relative to the extraction frontier: once every
    // word up to `word` is extracted, the window holds its current entries
    // plus the indices of words [extracted, word]. Bounding that sum
    // (instead of globally counting in-flight words) keeps the frontier
    // word always issuable, so skewed lanes cannot starve in-order
    // extraction — the deadlock deep per-lane queues would otherwise allow.
    const std::uint64_t ahead = word + 1 - bu.idx_words_extracted;
    if (bu.idx_window.size() + ahead * ipw > cap) return nullptr;
    return &bu;
  }
  return nullptr;
}

const IndirectReadConverter::Burst* IndirectReadConverter::elem_candidate(
    unsigned l) const {
  for (const Burst& bu : bursts_) {
    const std::uint64_t slot = bu.elem_issue[l] * lanes_n_ + l;
    if (!bu.geom.slot_valid(slot)) continue;
    const std::uint64_t elem = bu.geom.elem_of_slot(slot);
    assert(elem >= bu.idx_window_base);
    if (elem - bu.idx_window_base >= bu.idx_window.size()) {
      return nullptr;  // index not fetched yet
    }
    return &bu;
  }
  return nullptr;
}

void IndirectReadConverter::tick_issue() {
  const bool split = !idx_lanes_.empty();
  for (unsigned l = 0; l < lanes_n_; ++l) {
    sim::Fifo<mem::WordReq>& idx_req =
        split ? *idx_lanes_[l].req : *lanes_[l].req;
    const bool idx_space = idx_req.can_push();
    const bool elem_space = lanes_[l].req->can_push();
    if (!idx_space && !elem_space) continue;

    // Candidates are bursts of bursts_, found through const lookups.
    Burst* idx_burst = idx_space && idx_regulator_.can_issue(l)
                           ? const_cast<Burst*>(idx_candidate(l))
                           : nullptr;
    Burst* elem_burst = elem_space && elem_regulator_.can_issue(l)
                            ? const_cast<Burst*>(elem_candidate(l))
                            : nullptr;

    if (idx_burst == nullptr && elem_burst == nullptr) continue;
    // Split lanes: the stages do not share a request FIFO, so both
    // candidates issue this cycle. Shared lanes: round-robin for the one
    // request slot.
    const bool pick_idx =
        split || elem_burst == nullptr ||
        (idx_burst != nullptr && prefer_idx_[l]);
    const bool pick_elem = split ? elem_burst != nullptr : !pick_idx;
    if (!split && idx_burst != nullptr && elem_burst != nullptr) {
      prefer_idx_[l] = !prefer_idx_[l];  // round-robin between the stages
    }
    if (pick_idx && idx_burst != nullptr) {
      Burst& bu = *idx_burst;
      mem::WordReq req;
      req.write = false;
      req.addr = bu.idx_base + 4ull * (bu.idx_issue[l] * lanes_n_ + l);
      req.tag = kIdxTag;
      idx_req.push(req);
      idx_regulator_.on_issue(l);
      ++bu.idx_issue[l];
      ++word_stats_.idx_words;
    }
    if (pick_elem && elem_burst != nullptr) {
      Burst& bu = *elem_burst;
      const std::uint64_t slot = bu.elem_issue[l] * lanes_n_ + l;
      const std::uint64_t index =
          bu.idx_window[bu.geom.elem_of_slot(slot) - bu.idx_window_base];
      mem::WordReq req;
      req.write = false;
      req.addr = bu.elem_base + (index << bu.elem_shift) +
                 4ull * bu.geom.word_in_elem(slot);
      req.tag = kElemTag;
      lanes_[l].req->push(req);
      elem_regulator_.on_issue(l);
      ++bu.elem_issue[l];
      ++word_stats_.elem_words;
    }
  }
}

void IndirectReadConverter::tick_index_extract() {
  // Offsets extraction: consume index words in global stream order, up to
  // one full line per cycle.
  for (unsigned consumed = 0; consumed < lanes_n_; ++consumed) {
    // Strict burst order: finish extracting one burst's index stream before
    // starting the next (matches per-lane response ordering).
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
      // A corrupt index would fan out to an arbitrary (possibly unmapped)
      // element address. Substitute index 0 — always in-region and aligned —
      // and poison the burst so every remaining beat reports the error.
      resp.rdata = 0;
      bu.err = true;
    }
    // Unpack the indices contained in this word.
    const std::uint64_t first_idx = w * 4 / bu.idx_bytes;
    const std::uint64_t ipw = 4 / bu.idx_bytes;
    for (std::uint64_t i = 0; i < ipw; ++i) {
      const std::uint64_t elem = first_idx + i;
      if (elem >= bu.geom.num_elems) break;
      std::uint64_t value = 0;
      switch (bu.idx_bytes) {
        case 4:
          value = resp.rdata;
          break;
        case 2:
          value = (resp.rdata >> (16 * i)) & 0xFFFFu;
          break;
        case 1:
          value = (resp.rdata >> (8 * i)) & 0xFFu;
          break;
        default:
          assert(false);
      }
      bu.idx_window.push_back(value);
    }
  }
}

void IndirectReadConverter::retire_indices(Burst& bu) {
  const std::uint64_t frontier = issue_frontier(bu);
  const std::uint64_t done_elems = frontier / bu.geom.wpe;
  while (bu.idx_window_base < done_elems && !bu.idx_window.empty()) {
    bu.idx_window.pop_front();
    ++bu.idx_window_base;
  }
}

void IndirectReadConverter::tick_pack() {
  if (bursts_.empty()) return;
  Burst& bu = bursts_.front();
  if (bu.pack_beat >= bu.geom.beats) return;
  if (!r_out_.can_push()) return;
  const unsigned valid = bu.geom.valid_lanes(bu.pack_beat);
  for (unsigned l = 0; l < valid; ++l) {
    if (elem_q_[l].empty()) return;
  }
  axi::AxiR beat;
  beat.id = bu.id;
  beat.traffic = bu.traffic;
  beat.useful_bytes =
      static_cast<std::uint16_t>(bu.geom.beat_useful_bytes(bu.pack_beat));
  if (bu.err) beat.resp = axi::worst_resp(beat.resp, axi::kRespSlvErr);
  for (unsigned l = 0; l < valid; ++l) {
    const mem::WordResp resp = elem_q_[l].front();
    elem_q_[l].pop_front();
    elem_regulator_.on_retire(l);
    if (resp.error) beat.resp = axi::worst_resp(beat.resp, axi::kRespSlvErr);
    axi::place_bytes(beat.data, 4 * l,
                     reinterpret_cast<const std::uint8_t*>(&resp.rdata), 4);
  }
  if (faults_ != nullptr) {
    unsigned bit = 0;
    if (faults_->next_pack_beat(sim::FaultSite::pack_indirect, &bit)) {
      const unsigned bits = beat.useful_bytes > 0 ? beat.useful_bytes * 8u : 8u;
      const unsigned b = bit % bits;
      beat.data[b / 8] ^= static_cast<std::uint8_t>(1u << (b % 8));
      beat.resp = axi::worst_resp(beat.resp, axi::kRespSlvErr);
    }
  }
  ++bu.pack_beat;
  beat.last = bu.pack_beat == bu.geom.beats;
  r_out_.push(beat);
  if (beat.last) {
    bursts_.pop_front();
  }
}

void IndirectReadConverter::tick() {
  drain_responses();
  tick_index_extract();
  tick_issue();
  for (Burst& bu : bursts_) retire_indices(bu);
  tick_pack();
}

bool IndirectReadConverter::quiescent() const {
  for (const Burst& bu : bursts_) {
    if (bu.idx_words_extracted == bu.idx_words_total) continue;
    if (!idx_q_[bu.idx_words_extracted % lanes_n_].empty()) return false;
    break;  // extraction is strictly in burst order
  }
  if (!bursts_.empty()) {
    const Burst& bu = bursts_.front();
    const unsigned valid = bu.geom.valid_lanes(bu.pack_beat);
    unsigned held = 0;
    while (held < valid && !elem_q_[held].empty()) ++held;
    // The front beat packs, or waits on a full r_out.
    if (valid > 0 && held == valid) return false;
  }
  for (unsigned l = 0; l < lanes_n_; ++l) {
    if (idx_regulator_.can_issue(l) && idx_candidate(l) != nullptr) {
      return false;
    }
    if (elem_regulator_.can_issue(l) && elem_candidate(l) != nullptr) {
      return false;
    }
  }
  return true;
}

}  // namespace axipack::pack
