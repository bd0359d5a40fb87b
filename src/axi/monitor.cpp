#include "axi/monitor.hpp"

#include "axi/protocol_checker.hpp"

namespace axipack::axi {

BusStats BusStats::diff(const BusStats& earlier) const {
  BusStats d;
  d.ar_handshakes = ar_handshakes - earlier.ar_handshakes;
  d.aw_handshakes = aw_handshakes - earlier.aw_handshakes;
  d.r_beats = r_beats - earlier.r_beats;
  d.r_payload_bytes = r_payload_bytes - earlier.r_payload_bytes;
  d.r_index_bytes = r_index_bytes - earlier.r_index_bytes;
  d.w_beats = w_beats - earlier.w_beats;
  d.w_payload_bytes = w_payload_bytes - earlier.w_payload_bytes;
  d.b_handshakes = b_handshakes - earlier.b_handshakes;
  d.r_fault_beats = r_fault_beats - earlier.r_fault_beats;
  return d;
}

BusStats& BusStats::operator+=(const BusStats& other) {
  ar_handshakes += other.ar_handshakes;
  aw_handshakes += other.aw_handshakes;
  r_beats += other.r_beats;
  r_payload_bytes += other.r_payload_bytes;
  r_index_bytes += other.r_index_bytes;
  w_beats += other.w_beats;
  w_payload_bytes += other.w_payload_bytes;
  b_handshakes += other.b_handshakes;
  r_fault_beats += other.r_fault_beats;
  return *this;
}

AxiLink::AxiLink(sim::Kernel& k, AxiPort& upstream, AxiPort& downstream)
    : up_(upstream), down_(downstream) {
  k.add(*this);
  k.subscribe(*this, up_.ar);
  k.subscribe(*this, up_.aw);
  k.subscribe(*this, up_.w);
  k.subscribe(*this, down_.r);
  k.subscribe(*this, down_.b);
}

void AxiLink::tick() {
  const sim::Cycle now = Component::now();
  if (up_.ar.can_pop() && down_.ar.can_push()) {
    if (checker_ != nullptr) checker_->observe_ar(up_.ar.front(), now);
    down_.ar.push(up_.ar.pop());
    ++stats_.ar_handshakes;
  }
  if (up_.aw.can_pop() && down_.aw.can_push()) {
    if (checker_ != nullptr) checker_->observe_aw(up_.aw.front(), now);
    down_.aw.push(up_.aw.pop());
    ++stats_.aw_handshakes;
  }
  if (up_.w.can_pop() && down_.w.can_push()) {
    AxiW beat = up_.w.pop();
    if (checker_ != nullptr) checker_->observe_w(beat, now);
    ++stats_.w_beats;
    stats_.w_payload_bytes += beat.useful_bytes;
    down_.w.push(std::move(beat));
  }
  if (down_.b.can_pop() && up_.b.can_push()) {
    if (checker_ != nullptr) checker_->observe_b(down_.b.front(), now);
    up_.b.push(down_.b.pop());
    ++stats_.b_handshakes;
  }
  if (r_discarding_ && down_.r.can_pop()) {
    // Tail of a truncated burst: swallow silently (not forwarded, not
    // counted, not shown to the checker) until the real last beat.
    if (down_.r.pop().last) r_discarding_ = false;
  } else if (down_.r.can_pop() && up_.r.can_push() &&
             now >= r_stall_until_) {
    if (faults_ != nullptr && !r_fault_decided_) {
      r_fault_decided_ = true;
      sim::Cycle stall_len = 0;
      r_fault_ = faults_->next_link_r(&stall_len, &r_flip_bit_);
      if (r_fault_ == sim::LinkFault::stall) {
        // Hold the head beat; it is delivered clean once the stall lapses
        // (r_fault_decided_ stays set, so no second draw for this beat).
        r_stall_until_ = now + stall_len;
        r_fault_ = sim::LinkFault::none;
        return;
      }
    }
    AxiR beat = down_.r.pop();
    if (r_fault_ != sim::LinkFault::none) ++stats_.r_fault_beats;
    if (r_fault_ == sim::LinkFault::flip) {
      const unsigned bits =
          beat.useful_bytes > 0 ? beat.useful_bytes * 8u : 8u;
      const unsigned bit = r_flip_bit_ % bits;
      beat.data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      beat.resp = worst_resp(beat.resp, kRespSlvErr);
    } else if (r_fault_ == sim::LinkFault::truncate) {
      beat.resp = worst_resp(beat.resp, kRespSlvErr);
      if (!beat.last) {
        beat.last = true;
        r_discarding_ = true;
      }
    }
    r_fault_ = sim::LinkFault::none;
    r_fault_decided_ = false;
    if (checker_ != nullptr) checker_->observe_r(beat, now);
    ++stats_.r_beats;
    stats_.r_payload_bytes += beat.useful_bytes;
    if (beat.traffic == Traffic::index) {
      stats_.r_index_bytes += beat.useful_bytes;
    }
    up_.r.push(std::move(beat));
  }
}

}  // namespace axipack::axi
