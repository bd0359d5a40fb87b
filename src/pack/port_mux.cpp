#include "pack/port_mux.hpp"

#include <cassert>

namespace axipack::pack {

PortMux::PortMux(sim::Kernel& k, mem::WordMemory& memory,
                 unsigned num_converters, std::size_t lane_fifo_depth,
                 std::size_t resp_fifo_depth)
    : memory_(memory),
      lanes_(memory.num_ports()),
      convs_(num_converters) {
  assert(convs_ > 0 && convs_ < (1u << kConvBits));
  req_flat_.reserve(std::size_t{convs_} * lanes_);
  resp_flat_.reserve(std::size_t{convs_} * lanes_);
  for (unsigned l = 0; l < lanes_; ++l) {
    for (unsigned c = 0; c < convs_; ++c) {
      req_flat_.push_back(std::make_unique<sim::Fifo<mem::WordReq>>(
          k, lane_fifo_depth, 1));
      resp_flat_.push_back(std::make_unique<sim::Fifo<mem::WordResp>>(
          k, resp_fifo_depth, 1));
    }
  }
  rr_.assign(lanes_, 0);
  sticky_credit_.assign(lanes_, 0);
  sticky_conv_.assign(lanes_, 0);
  sticky_last_grant_.assign(lanes_, 0);
  ports_.reserve(lanes_);
  for (unsigned l = 0; l < lanes_; ++l) ports_.push_back(&memory_.port(l));
  k.add(*this);
  for (auto& f : req_flat_) k.subscribe(*this, *f);
  for (unsigned l = 0; l < lanes_; ++l) {
    k.subscribe(*this, memory_.port(l).resp);
  }
  // Every Fifo a lane's work arrives through re-flags the lane's bit on
  // push, so a lane whose bit is clear provably has nothing stored and
  // tick() may skip it.
  assert(lanes_ <= 64 && "active-lane bitmask is one 64-bit word");
  active_lanes_ = lanes_ == 64 ? ~std::uint64_t{0}
                               : (std::uint64_t{1} << lanes_) - 1;
  for (unsigned l = 0; l < lanes_; ++l) {
    for (unsigned c = 0; c < convs_; ++c) {
      req(c, l).set_push_flag(&active_lanes_, l);
    }
    memory_.port(l).resp.set_push_flag(&active_lanes_, l);
  }
}

PortMux::~PortMux() {
  // The memory outlives the mux in some harnesses; detach the push taps so
  // its response Fifos never write through a dangling pointer.
  for (unsigned l = 0; l < lanes_; ++l) {
    memory_.port(l).resp.set_push_flag(nullptr, 0);
  }
}

std::vector<LaneIO> PortMux::lanes_of(unsigned conv) {
  assert(conv < convs_);
  std::vector<LaneIO> out(lanes_);
  for (unsigned l = 0; l < lanes_; ++l) {
    out[l].req = &req(conv, l);
    out[l].resp = &resp(conv, l);
  }
  return out;
}

void PortMux::tick() {
  const sim::Cycle now = Component::now();  // hoisted out of the fifo checks
  // Only flagged lanes can have stored work; an unflagged lane's body is a
  // no-op (no visible request, no response, and the sticky hold is only
  // consulted for a visible competitor), so skipping it cannot change any
  // outcome. Pushes during this tick re-flag bits via the Fifo taps; lanes
  // that still hold items (possibly not yet visible) re-flag themselves
  // below.
  std::uint64_t live = active_lanes_;
  active_lanes_ = 0;
  for (; live != 0; live &= live - 1) {
    const unsigned l =
        static_cast<unsigned>(__builtin_ctzll(live));
    mem::WordPort& port = *ports_[l];
    // Requests: round-robin over converters with a pending request. With a
    // sticky quantum, the last-granted converter keeps the lane while it
    // has requests and credit; a holder in a production bubble still holds
    // the lane (denying competitors) until `patience` cycles have passed
    // since its last grant, after which — or once the credit is spent —
    // the round-robin scan takes over and re-arms the credit.
    if (port.req.can_push()) {
      unsigned c;
      unsigned scan = convs_;
      bool hold = false;
      if (sticky_credit_[l] > 0 && req(sticky_conv_[l], l).has_visible(now)) {
        c = sticky_conv_[l];
        scan = 1;
      } else {
        c = rr_[l];
        if (sticky_credit_[l] > 0 && sticky_patience_ > 0) {
          // The bubble is read only when a competitor is visible (the lane
          // is then awake under either kernel) and was stamped at a grant,
          // so gated and naive scheduling stay cycle-identical.
          bool competitor = false;
          for (unsigned k = 0; k < convs_; ++k) {
            if (k != sticky_conv_[l] && req(k, l).has_visible(now)) {
              competitor = true;
              break;
            }
          }
          if (competitor) {
            if (now - sticky_last_grant_[l] <= sticky_patience_) {
              hold = true;
            } else {
              sticky_credit_[l] = 0;  // bubble outlasted patience: yield
            }
          }
        }
      }
      for (unsigned i = 0; !hold && i < scan; ++i) {
        if (req(c, l).has_visible(now)) {
          mem::WordReq r = req(c, l).pop();
          assert((r.tag >> kConvShift) == 0 && "tag collides with conv field");
          r.tag |= c << kConvShift;
          if (r.write && write_snoop_) write_snoop_(r.addr);
          port.req.push(r);
          rr_[l] = c + 1 == convs_ ? 0 : c + 1;
          if (sticky_quantum_ > 0) {
            sticky_credit_[l] = c == sticky_conv_[l] && sticky_credit_[l] > 0
                                    ? sticky_credit_[l] - 1
                                    : sticky_quantum_ - 1;
            sticky_conv_[l] = c;
            sticky_last_grant_[l] = now;
          }
          ++words_issued_;
          break;
        }
        c = c + 1 == convs_ ? 0 : c + 1;
      }
    }
    // Responses: route by converter id in the tag.
    if (port.resp.has_visible(now)) {
      const unsigned c = port.resp.front().tag >> kConvShift;
      assert(c < convs_);
      if (resp(c, l).can_push()) {
        mem::WordResp r = port.resp.pop();
        r.tag &= (1u << kConvShift) - 1u;
        resp(c, l).push(r);
      }
    }
    // Re-flag while anything is still stored in the lane (visible or in
    // flight: blocked requests, next-cycle pushes, unrouted responses).
    bool busy = !port.resp.empty();
    for (unsigned c = 0; !busy && c < convs_; ++c) {
      busy = !req(c, l).empty();
    }
    if (busy) active_lanes_ |= std::uint64_t{1} << l;
  }
}

}  // namespace axipack::pack
