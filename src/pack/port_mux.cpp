#include "pack/port_mux.hpp"

#include <cassert>

#include "util/bits.hpp"

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
  // The mux is the one consumer of every Fifo it taps; all start empty.
  assert(lanes_ <= 64 && "response-lane mask is one 64-bit word");
  conv_mask_.assign(lanes_, 0);
  for (unsigned l = 0; l < lanes_; ++l) {
    for (unsigned c = 0; c < convs_; ++c) {
      req(c, l).set_push_flag(&conv_mask_[l], c);
    }
    memory_.port(l).resp.set_push_flag(&resp_lanes_, l);
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
  for (unsigned l = 0; l < lanes_; ++l) {
    const std::uint64_t lane_bit = std::uint64_t{1} << l;
    const std::uint64_t convs = conv_mask_[l];
    if (convs == 0 && (resp_lanes_ & lane_bit) == 0) continue;
    mem::WordPort& port = *ports_[l];
    if (convs != 0 && port.req.can_push()) {
      const unsigned c = pick(l, convs, now);
      if (c != kNoConv) grant(l, c, now);
    }
    // Responses: route by converter id in the tag.
    if ((resp_lanes_ & lane_bit) != 0 && port.resp.has_visible(now)) {
      const unsigned c = port.resp.front().tag >> kConvShift;
      assert(c < convs_);
      if (resp(c, l).can_push()) {
        mem::WordResp r = port.resp.pop();
        if (port.resp.empty()) resp_lanes_ &= ~lane_bit;
        r.tag &= (1u << kConvShift) - 1u;
        resp(c, l).push(r);
      }
    }
  }
}

unsigned PortMux::pick(unsigned l, std::uint64_t convs, sim::Cycle now) {
  // With a sticky quantum, the last-granted converter keeps the lane while
  // it has requests and credit; a holder in a production bubble still
  // holds the lane (denying competitors) until `patience` cycles have
  // passed since its last grant, after which — or once the credit is
  // spent — the round-robin scan takes over and re-arms the credit.
  if (sticky_credit_[l] > 0) {
    const unsigned holder = sticky_conv_[l];
    if (req(holder, l).has_visible(now)) return holder;
    if (sticky_patience_ > 0) {
      // The bubble is read only when a competitor is visible (the lane is
      // then awake under either kernel) and was stamped at a grant, so
      // gated and naive scheduling stay cycle-identical.
      bool competitor = false;
      for (std::uint64_t m = convs & ~(std::uint64_t{1} << holder); m != 0;
           m &= m - 1) {
        if (req(util::lowest_bit(m), l).has_visible(now)) {
          competitor = true;
          break;
        }
      }
      if (competitor) {
        if (now - sticky_last_grant_[l] <= sticky_patience_) return kNoConv;
        sticky_credit_[l] = 0;  // bubble outlasted patience: yield
      }
    }
  }
  // Round-robin: the set bits from rr_[l] up, then the ones below it — the
  // full scan's order with the empty converters left out.
  const std::uint64_t from_rr = convs & (~std::uint64_t{0} << rr_[l]);
  for (std::uint64_t m : {from_rr, convs & ~from_rr}) {
    for (; m != 0; m &= m - 1) {
      const unsigned c = util::lowest_bit(m);
      if (req(c, l).has_visible(now)) return c;
    }
  }
  return kNoConv;
}

void PortMux::grant(unsigned l, unsigned c, sim::Cycle now) {
  sim::Fifo<mem::WordReq>& q = req(c, l);
  mem::WordReq r = q.pop();
  if (q.empty()) conv_mask_[l] &= ~(std::uint64_t{1} << c);
  assert((r.tag >> kConvShift) == 0 && "tag collides with conv field");
  r.tag |= c << kConvShift;
  if (r.write && write_snoop_) write_snoop_(r.addr);
  ports_[l]->req.push(r);
  rr_[l] = c + 1 == convs_ ? 0 : c + 1;
  if (sticky_quantum_ > 0) {
    sticky_credit_[l] = c == sticky_conv_[l] && sticky_credit_[l] > 0
                            ? sticky_credit_[l] - 1
                            : sticky_quantum_ - 1;
    sticky_conv_[l] = c;
    sticky_last_grant_[l] = now;
  }
  ++words_issued_;
}

}  // namespace axipack::pack
