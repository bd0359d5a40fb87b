#include "pack/base_converter.hpp"

#include <algorithm>
#include <cassert>

#include "axi/burst.hpp"
#include "util/bits.hpp"

namespace axipack::pack {

BaseConverter::BaseConverter(sim::Kernel& k, std::vector<LaneIO> lanes,
                             unsigned bus_bytes, unsigned queue_depth,
                             std::size_t max_bursts, std::size_t r_out_depth,
                             std::size_t b_out_depth)
    : lanes_(std::move(lanes)),
      bus_bytes_(bus_bytes),
      bus_mask_(bus_bytes - 1),
      regulator_(static_cast<unsigned>(lanes_.size()), queue_depth),
      r_out_(k, r_out_depth, 1),
      b_out_(k, b_out_depth, 1),
      max_bursts_(max_bursts) {
  k.add(*this);
  for (const LaneIO& lane : lanes_) k.subscribe(*this, *lane.resp);
}

bool BaseConverter::can_accept_ar() const {
  return reads_.size() < max_bursts_;
}

void BaseConverter::accept_ar(const axi::AxiAr& ar) {
  assert(!ar.pack.has_value());
  wake_self();
  reads_.push_back(ReadBurst{ar, 0, 0});
}

bool BaseConverter::can_accept_aw() const {
  return writes_.size() < max_bursts_;
}

void BaseConverter::accept_aw(const axi::AxiAw& aw) {
  assert(!aw.pack.has_value());
  wake_self();
  writes_.push_back(WriteBurst{aw, 0, 0, 0});
}

BaseConverter::BeatPlan BaseConverter::plan_beat(const axi::AxiAx& ax,
                                                 unsigned beat) const {
  BeatPlan plan;
  const std::uint64_t addr = axi::beat_addr(ax, beat);
  const unsigned size_bytes = ax.beat_bytes();
  plan.data_lane = static_cast<unsigned>(addr & bus_mask_);
  plan.useful_bytes = size_bytes;
  if (size_bytes >= bus_bytes_) {
    // Full-width beat: fetch the whole aligned line. The first beat of an
    // unaligned INCR burst still reads the full line; the master uses the
    // lanes from the address onward (standard AXI behaviour).
    plan.word_addr = util::round_down<std::uint64_t>(addr, bus_bytes_);
    plan.first_lane = 0;
    plan.words = bus_bytes_ / 4;
    // Unaligned first beat carries fewer useful bytes.
    plan.useful_bytes = bus_bytes_ - plan.data_lane;
  } else {
    // Narrow beat: touch only the words covering [addr, addr+size).
    const std::uint64_t lo = util::round_down<std::uint64_t>(addr, 4);
    const std::uint64_t hi =
        util::round_up<std::uint64_t>(addr + size_bytes, 4);
    plan.word_addr = lo;
    plan.first_lane = static_cast<unsigned>((lo & bus_mask_) / 4);
    plan.words = static_cast<unsigned>((hi - lo) / 4);
  }
  return plan;
}

std::size_t BaseConverter::next_issue() const {
  std::size_t i = issue_cursor_;
  while (i < reads_.size() && reads_[i].issue_beat >= reads_[i].ar.beats()) {
    ++i;
  }
  return i;
}

void BaseConverter::tick_issue() {
  // One beat's worth of word requests per cycle for the oldest burst with
  // an unissued beat (issue is strictly in burst order).
  issue_cursor_ = next_issue();
  if (issue_cursor_ >= reads_.size()) return;
  ReadBurst& burst = reads_[issue_cursor_];
  const BeatPlan plan = plan_beat(burst.ar, burst.issue_beat);
  for (unsigned wi = 0; wi < plan.words; ++wi) {
    const unsigned lane = plan.first_lane + wi;
    if (!regulator_.can_issue(lane) || !lanes_[lane].req->can_push()) {
      return;  // preserve per-lane order: do not skip ahead
    }
  }
  for (unsigned wi = 0; wi < plan.words; ++wi) {
    const unsigned lane = plan.first_lane + wi;
    mem::WordReq req;
    req.addr = plan.word_addr + 4ull * wi;
    req.write = false;
    req.tag = lane;
    lanes_[lane].req->push(req);
    regulator_.on_issue(lane);
  }
  ++burst.issue_beat;  // at most one beat per cycle
}

void BaseConverter::tick_pack() {
  if (reads_.empty()) return;
  ReadBurst& burst = reads_.front();
  if (burst.pack_beat >= burst.ar.beats()) return;
  if (burst.pack_beat >= burst.issue_beat) return;  // not yet requested
  if (!r_out_.can_push()) return;
  const BeatPlan plan = plan_beat(burst.ar, burst.pack_beat);
  for (unsigned wi = 0; wi < plan.words; ++wi) {
    const auto& resp = *lanes_[plan.first_lane + wi].resp;
    // A write ack at the head belongs to collect_acks — wait for it to
    // drain rather than consuming it as read data (reads and writes of
    // concurrent bursts interleave on the shared lanes).
    if (!resp.can_pop() || resp.front().was_write) return;
  }
  axi::AxiR beat;
  beat.id = burst.ar.id;
  beat.traffic = burst.ar.traffic;
  beat.useful_bytes = static_cast<std::uint16_t>(plan.useful_bytes);
  for (unsigned wi = 0; wi < plan.words; ++wi) {
    const unsigned lane = plan.first_lane + wi;
    const mem::WordResp resp = lanes_[lane].resp->pop();
    assert(!resp.was_write);
    regulator_.on_retire(lane);
    if (resp.error) beat.resp = axi::worst_resp(beat.resp, axi::kRespSlvErr);
    axi::place_bytes(beat.data, 4 * lane,
                     reinterpret_cast<const std::uint8_t*>(&resp.rdata), 4);
  }
  ++burst.pack_beat;
  beat.last = burst.pack_beat == burst.ar.beats();
  r_out_.push(beat);
  if (beat.last) {
    reads_.pop_front();
    if (issue_cursor_ > 0) --issue_cursor_;
  }
}

bool BaseConverter::can_accept_w() const {
  for (const WriteBurst& burst : writes_) {
    if (burst.unpack_beat >= burst.aw.beats()) continue;
    const BeatPlan plan = plan_beat(burst.aw, burst.unpack_beat);
    for (unsigned wi = 0; wi < plan.words; ++wi) {
      const unsigned lane = plan.first_lane + wi;
      if (!regulator_.can_issue(lane)) return false;
      if (!lanes_[lane].req->can_push()) return false;
    }
    return true;
  }
  return false;
}

void BaseConverter::accept_w(const axi::AxiW& w) {
  wake_self();
  for (WriteBurst& burst : writes_) {
    if (burst.unpack_beat >= burst.aw.beats()) continue;
    const BeatPlan plan = plan_beat(burst.aw, burst.unpack_beat);
    for (unsigned wi = 0; wi < plan.words; ++wi) {
      const unsigned lane = plan.first_lane + wi;
      mem::WordReq req;
      req.addr = plan.word_addr + 4ull * wi;
      req.write = true;
      axi::extract_bytes(w.data, 4 * lane,
                         reinterpret_cast<std::uint8_t*>(&req.wdata), 4);
      req.wstrb = static_cast<std::uint8_t>((w.strb >> (4 * lane)) & 0xFu);
      req.tag = lane;
      lanes_[lane].req->push(req);
      regulator_.on_issue(lane);
      ++burst.words_issued;
    }
    ++burst.unpack_beat;
    assert(w.last == (burst.unpack_beat == burst.aw.beats()));
    return;
  }
  assert(false && "accept_w without pending write burst");
}

void BaseConverter::collect_acks() {
  for (unsigned l = 0; l < lanes_.size(); ++l) {
    if (!lanes_[l].resp->can_pop()) continue;
    // Reads and writes share the lane response queues; only consume write
    // acks here (read data is consumed by the packer in order).
    if (!lanes_[l].resp->front().was_write) continue;
    const bool err = lanes_[l].resp->pop().error;
    regulator_.on_retire(l);
    for (WriteBurst& burst : writes_) {
      if (burst.acks < burst.words_issued ||
          burst.unpack_beat < burst.aw.beats()) {
        ++burst.acks;
        burst.err |= err;
        break;
      }
    }
  }
  if (!writes_.empty()) {
    WriteBurst& burst = writes_.front();
    if (burst.unpack_beat == burst.aw.beats() &&
        burst.acks == burst.words_issued && b_out_.can_push()) {
      axi::AxiB b;
      b.id = burst.aw.id;
      if (burst.err) b.resp = axi::kRespSlvErr;
      b_out_.push(b);
      writes_.pop_front();
    }
  }
}

void BaseConverter::tick() {
  collect_acks();
  tick_issue();
  tick_pack();
}

bool BaseConverter::quiescent() const {
  if (!writes_.empty()) {
    const WriteBurst& burst = writes_.front();
    if (burst.unpack_beat == burst.aw.beats() &&
        burst.acks == burst.words_issued) {
      return false;  // its B is due
    }
  }
  const std::size_t i = next_issue();
  if (i == reads_.size()) return true;
  const BeatPlan plan = plan_beat(reads_[i].ar, reads_[i].issue_beat);
  for (unsigned wi = 0; wi < plan.words; ++wi) {
    if (!regulator_.can_issue(plan.first_lane + wi)) return true;
  }
  return false;  // the beat issues, or waits on a full request FIFO
}

sim::Cycle BaseConverter::wake_hint() const {
  sim::Cycle hint = sim::kNeverCycle;
  for (const LaneIO& lane : lanes_) {
    if (!lane.resp->empty() && lane.resp->peek(0).was_write) {
      hint = std::min(hint, lane.resp->item_visible_at(0));
    }
  }
  if (reads_.empty()) return hint;
  const ReadBurst& burst = reads_.front();
  if (burst.pack_beat >= burst.issue_beat) return hint;
  const BeatPlan plan = plan_beat(burst.ar, burst.pack_beat);
  sim::Cycle ready = 0;
  for (unsigned wi = 0; wi < plan.words; ++wi) {
    const sim::Fifo<mem::WordResp>& resp = *lanes_[plan.first_lane + wi].resp;
    // An empty lane waits on a push; a write ack ahead is already counted.
    if (resp.empty() || resp.peek(0).was_write) return hint;
    ready = std::max(ready, resp.item_visible_at(0));
  }
  return std::min(hint, ready);
}

}  // namespace axipack::pack
