#include "pack/strided_write.hpp"

#include <cassert>

namespace axipack::pack {

StridedWriteConverter::StridedWriteConverter(sim::Kernel& k,
                                             std::vector<LaneIO> lanes,
                                             unsigned bus_bytes,
                                             unsigned queue_depth,
                                             std::size_t b_out_depth,
                                             std::size_t max_bursts)
    : lanes_(std::move(lanes)),
      bus_bytes_(bus_bytes),
      regulator_(static_cast<unsigned>(lanes_.size()), queue_depth),
      b_out_(k, b_out_depth, 1),
      max_bursts_(max_bursts) {
  k.add(*this);
}

bool StridedWriteConverter::can_accept_aw() const {
  return bursts_.size() < max_bursts_;
}

void StridedWriteConverter::accept_aw(const axi::AxiAw& aw) {
  assert(aw.pack.has_value() && !aw.pack->indir);
  wake_self();
  Burst bu;
  bu.geom = PackGeom::make(bus_bytes_, aw.beat_bytes(), aw.pack->num_elems);
  bu.base = aw.addr;
  bu.stride = aw.pack->stride;
  bu.id = aw.id;
  bursts_.push_back(bu);
}

StridedWriteConverter::Burst* StridedWriteConverter::unpack_target() {
  for (Burst& bu : bursts_) {
    if (bu.unpack_beat < bu.geom.beats) return &bu;
  }
  return nullptr;
}

bool StridedWriteConverter::can_accept_w() const {
  // A W beat is consumed in one cycle by issuing all its word writes; it can
  // be accepted only when every valid lane has request-queue space and
  // regulator headroom.
  auto* self = const_cast<StridedWriteConverter*>(this);
  Burst* bu = self->unpack_target();
  if (bu == nullptr) return false;
  const unsigned valid = bu->geom.valid_lanes(bu->unpack_beat);
  for (unsigned l = 0; l < valid; ++l) {
    if (!regulator_.can_issue(l)) return false;
    if (!lanes_[l].req->can_push()) return false;
  }
  return true;
}

void StridedWriteConverter::accept_w(const axi::AxiW& w) {
  wake_self();
  Burst* bu = unpack_target();
  assert(bu != nullptr);
  const unsigned valid = bu->geom.valid_lanes(bu->unpack_beat);
  for (unsigned l = 0; l < valid; ++l) {
    mem::WordReq req;
    req.addr = slot_addr(*bu, bu->geom.slot(bu->unpack_beat, l));
    req.write = true;
    req.wstrb = 0xF;
    axi::extract_bytes(w.data, 4 * l,
                       reinterpret_cast<std::uint8_t*>(&req.wdata), 4);
    req.tag = l;
    lanes_[l].req->push(req);
    regulator_.on_issue(l);
  }
  ++bu->unpack_beat;
  assert(w.last == (bu->unpack_beat == bu->geom.beats));
}

void StridedWriteConverter::tick() {
  // Collect write acknowledgements (one per lane per cycle); they arrive in
  // issue order, so each belongs to the oldest burst still missing acks.
  for (unsigned l = 0; l < lanes_.size(); ++l) {
    if (!lanes_[l].resp->can_pop()) continue;
    const bool err = lanes_[l].resp->pop().error;
    regulator_.on_retire(l);
    for (Burst& bu : bursts_) {
      if (bu.acks < bu.geom.total_words) {
        ++bu.acks;
        bu.err |= err;
        break;
      }
    }
  }
  if (!bursts_.empty()) {
    Burst& bu = bursts_.front();
    if (bu.acks == bu.geom.total_words &&
        bu.unpack_beat == bu.geom.beats && b_out_.can_push()) {
      axi::AxiB b;
      b.id = bu.id;
      if (bu.err) b.resp = axi::kRespSlvErr;
      b_out_.push(b);
      bursts_.pop_front();
    }
  }
}

}  // namespace axipack::pack
