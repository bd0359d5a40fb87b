#include "pack/adapter.hpp"

#include <cassert>

namespace axipack::pack {

namespace {

/// Sticky burst quantum of the port-mux arbitration while coalescing is on:
/// a granted converter keeps its lane for up to this many back-to-back
/// words, so the bank-partitioned streams reach the DRAM as long single-row
/// runs instead of per-cycle interleave.
constexpr std::size_t kCoalesceArbQuantum = 64;
/// Cycles after its last grant that the sticky holder may ride out a
/// production bubble while a competitor waits, before yielding its lane. A
/// short idle port is cheaper than the row swap (tRP+tRCD) a stream switch
/// costs.
constexpr sim::Cycle kCoalesceArbPatience = 32;
/// Depth of each read converter's R output queue.
constexpr std::size_t kROutDepth = 4;
/// Outstanding regular bursts in the base converter.
constexpr std::size_t kBaseMaxBursts = 64;

}  // namespace

sim::Cycle AxiPackAdapter::memory_loop_latency(sim::Cycle memory_round_trip,
                                               bool coalesce) {
  // A coalesced lane's request may wait out a competing holder's full
  // sticky patience at the mux before it reaches the backend.
  return memory_round_trip + (coalesce ? kCoalesceArbPatience : 0);
}

std::size_t AxiPackAdapter::lane_inflight_words(unsigned queue_depth) {
  constexpr std::size_t kRegulatedStages = 7;
  return kRegulatedStages * queue_depth;
}

AxiPackAdapter::AxiPackAdapter(sim::Kernel& k, axi::AxiPort& upstream,
                               mem::WordMemory& memory,
                               const AdapterConfig& cfg)
    : up_(upstream), cfg_(cfg) {
  assert(memory.num_ports() == cfg.bus_bytes / 4 &&
         "bank ports must match bus width (n = D/W)");
  mux_ = std::make_unique<PortMux>(
      k, memory, cfg.coalesce_enable ? kNumConvsCoalesced : kNumConvs,
      cfg.lane_fifo_depth, cfg.resp_fifo_depth);
  if (cfg.coalesce_enable) {
    CoalescerConfig cc;
    cc.entries = cfg.coalesce_entries;
    cc.window = cfg.coalesce_window;
    cc.lane_fifo_depth = cfg.lane_fifo_depth;
    cc.resp_fifo_depth = cfg.resp_fifo_depth;
    coalescer_ = std::make_unique<Coalescer>(k, mux_->lanes_of(kIndirectR),
                                             cc);
    // The index, strided-read and base stages get their own units on their
    // own mux slots: those streams have little to merge, but the
    // bank-partitioned issue means each DRAM bank receives its entire
    // traffic through one port — so the sticky mux quantum's per-port
    // single-stream runs are per-bank single-row runs at the scheduler,
    // instead of every bank seeing every stream interleaved from all
    // ports (which forces a row swap per stream switch). The base unit
    // also carries the channel's writes as pass-through entries (see
    // coalescer.hpp for the same-word ordering discipline).
    coalescer_idx_ = std::make_unique<Coalescer>(
        k, mux_->lanes_of(kIndirectRIdx), cc);
    coalescer_str_ = std::make_unique<Coalescer>(
        k, mux_->lanes_of(kStridedR), cc);
    coalescer_base_ = std::make_unique<Coalescer>(
        k, mux_->lanes_of(kBase), cc);
    mux_->set_sticky_quantum(kCoalesceArbQuantum, kCoalesceArbPatience);
    // Coherence point: every converter's write stream is granted at the
    // mux, so snooping grants there keeps retained read words honest.
    mux_->set_write_snoop([ce = coalescer_.get(), ci = coalescer_idx_.get(),
                           cs = coalescer_str_.get(),
                           cb = coalescer_base_.get()](std::uint64_t addr) {
      ce->invalidate(addr);
      ci->invalidate(addr);
      cs->invalidate(addr);
      cb->invalidate(addr);
    });
    base_ = std::make_unique<BaseConverter>(
        k, coalescer_base_->upstream_lanes(), cfg.bus_bytes, cfg.queue_depth,
        kBaseMaxBursts, kROutDepth);
    strided_r_ = std::make_unique<StridedReadConverter>(
        k, coalescer_str_->upstream_lanes(), cfg.bus_bytes, cfg.queue_depth,
        kROutDepth, cfg.pack_max_bursts);
  } else {
    base_ = std::make_unique<BaseConverter>(k, mux_->lanes_of(kBase),
                                            cfg.bus_bytes, cfg.queue_depth,
                                            kBaseMaxBursts, kROutDepth);
    strided_r_ = std::make_unique<StridedReadConverter>(
        k, mux_->lanes_of(kStridedR), cfg.bus_bytes, cfg.queue_depth,
        kROutDepth, cfg.pack_max_bursts);
  }
  strided_w_ = std::make_unique<StridedWriteConverter>(
      k, mux_->lanes_of(kStridedW), cfg.bus_bytes, cfg.queue_depth, 4,
      cfg.pack_max_bursts);
  if (cfg.coalesce_enable) {
    indirect_r_ = std::make_unique<IndirectReadConverter>(
        k, coalescer_->upstream_lanes(), cfg.bus_bytes, cfg.queue_depth,
        kROutDepth, cfg.idx_window_lines, cfg.pack_max_bursts,
        coalescer_idx_->upstream_lanes());
  } else {
    indirect_r_ = std::make_unique<IndirectReadConverter>(
        k, mux_->lanes_of(kIndirectR), cfg.bus_bytes, cfg.queue_depth,
        kROutDepth, cfg.idx_window_lines, cfg.pack_max_bursts);
  }
  indirect_w_ = std::make_unique<IndirectWriteConverter>(
      k, mux_->lanes_of(kIndirectW), cfg.bus_bytes, cfg.queue_depth, 4,
      cfg.idx_window_lines, cfg.pack_max_bursts);
  k.add(*this);
  k.subscribe(*this, up_.ar);
  k.subscribe(*this, up_.aw);
  k.subscribe(*this, up_.w);
  k.subscribe(*this, *base_->r_out());
  k.subscribe(*this, *strided_r_->r_out());
  k.subscribe(*this, *indirect_r_->r_out());
  k.subscribe(*this, *base_->b_out());
  k.subscribe(*this, *strided_w_->b_out());
  k.subscribe(*this, *indirect_w_->b_out());
}

AxiPackAdapter::Route AxiPackAdapter::route_ar(const axi::AxiAr& ar) {
  if (!ar.pack.has_value()) return {base_.get(), &stats_.base_reads};
  if (ar.pack->indir) return {indirect_r_.get(), &stats_.indirect_reads};
  return {strided_r_.get(), &stats_.strided_reads};
}

AxiPackAdapter::Route AxiPackAdapter::route_aw(const axi::AxiAw& aw) {
  if (!aw.pack.has_value()) return {base_.get(), &stats_.base_writes};
  if (aw.pack->indir) return {indirect_w_.get(), &stats_.indirect_writes};
  return {strided_w_.get(), &stats_.strided_writes};
}

void AxiPackAdapter::tick() {
  // AR demux: route without consuming, so a busy converter backpressures
  // AR; the burst is counted once its converter accepts it.
  if (up_.ar.can_pop()) {
    const Route route = route_ar(up_.ar.front());
    if (route.conv->can_accept_ar()) {
      ++*route.count;
      route.conv->accept_ar(up_.ar.pop());
      r_order_.push_back(route.conv);
    }
  }
  // AW demux.
  if (up_.aw.can_pop()) {
    const Route route = route_aw(up_.aw.front());
    if (route.conv->can_accept_aw()) {
      ++*route.count;
      route.conv->accept_aw(up_.aw.pop());
      w_route_.push_back(route.conv);
      b_order_.push_back(route.conv);
    }
  }
  // W routing: beats go to the converter of the oldest W-pending AW.
  if (!w_route_.empty() && up_.w.can_pop()) {
    Converter* conv = w_route_.front();
    if (conv->can_accept_w()) {
      const axi::AxiW beat = up_.w.pop();
      const bool last = beat.last;
      conv->accept_w(beat);
      if (last) w_route_.pop_front();
    }
  }
  // R return in AR order.
  if (!r_order_.empty() && up_.r.can_push()) {
    Converter* conv = r_order_.front();
    sim::Fifo<axi::AxiR>* out = conv->r_out();
    assert(out != nullptr);
    if (out->can_pop()) {
      const axi::AxiR beat = out->pop();
      up_.r.push(beat);
      if (beat.last) r_order_.pop_front();
    }
  }
  // B return in AW order.
  if (!b_order_.empty() && up_.b.can_push()) {
    Converter* conv = b_order_.front();
    sim::Fifo<axi::AxiB>* out = conv->b_out();
    assert(out != nullptr);
    if (out->can_pop()) {
      up_.b.push(out->pop());
      b_order_.pop_front();
    }
  }
}

bool AxiPackAdapter::idle() const {
  return r_order_.empty() && b_order_.empty() && w_route_.empty() &&
         base_->idle() && strided_r_->idle() && strided_w_->idle() &&
         indirect_r_->idle() && indirect_w_->idle() &&
         (coalescer_ == nullptr || coalescer_->idle()) &&
         (coalescer_idx_ == nullptr || coalescer_idx_->idle()) &&
         (coalescer_str_ == nullptr || coalescer_str_->idle()) &&
         (coalescer_base_ == nullptr || coalescer_base_->idle());
}

void AxiPackAdapter::snoop_host_write(std::uint64_t addr,
                                      std::uint64_t bytes) {
  if (!coalescer_) return;
  coalescer_->invalidate_range(addr, bytes);
  coalescer_idx_->invalidate_range(addr, bytes);
  coalescer_str_->invalidate_range(addr, bytes);
  coalescer_base_->invalidate_range(addr, bytes);
}

}  // namespace axipack::pack
