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

}  // namespace

AxiPackAdapter::AxiPackAdapter(sim::Kernel& k, axi::AxiPort& upstream,
                               mem::WordMemory& memory,
                               const AdapterConfig& cfg)
    : up_(upstream) {
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
        cfg.base_max_bursts, cfg.r_out_depth);
    strided_r_ = std::make_unique<StridedReadConverter>(
        k, coalescer_str_->upstream_lanes(), cfg.bus_bytes, cfg.queue_depth,
        cfg.r_out_depth, cfg.pack_max_bursts);
  } else {
    base_ = std::make_unique<BaseConverter>(k, mux_->lanes_of(kBase),
                                            cfg.bus_bytes, cfg.queue_depth,
                                            cfg.base_max_bursts,
                                            cfg.r_out_depth);
    strided_r_ = std::make_unique<StridedReadConverter>(
        k, mux_->lanes_of(kStridedR), cfg.bus_bytes, cfg.queue_depth,
        cfg.r_out_depth, cfg.pack_max_bursts);
  }
  strided_w_ = std::make_unique<StridedWriteConverter>(
      k, mux_->lanes_of(kStridedW), cfg.bus_bytes, cfg.queue_depth, 4,
      cfg.pack_max_bursts);
  if (cfg.coalesce_enable) {
    indirect_r_ = std::make_unique<IndirectReadConverter>(
        k, coalescer_->upstream_lanes(), cfg.bus_bytes, cfg.queue_depth,
        cfg.r_out_depth, cfg.idx_window_lines, cfg.pack_max_bursts,
        coalescer_idx_->upstream_lanes());
  } else {
    indirect_r_ = std::make_unique<IndirectReadConverter>(
        k, mux_->lanes_of(kIndirectR), cfg.bus_bytes, cfg.queue_depth,
        cfg.r_out_depth, cfg.idx_window_lines, cfg.pack_max_bursts);
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

Converter* AxiPackAdapter::classify_ar(const axi::AxiAr& ar) {
  if (!ar.pack.has_value()) {
    ++stats_.base_reads;
    return base_.get();
  }
  if (ar.pack->indir) {
    ++stats_.indirect_reads;
    return indirect_r_.get();
  }
  ++stats_.strided_reads;
  return strided_r_.get();
}

Converter* AxiPackAdapter::classify_aw(const axi::AxiAw& aw) {
  if (!aw.pack.has_value()) {
    ++stats_.base_writes;
    return base_.get();
  }
  if (aw.pack->indir) {
    ++stats_.indirect_writes;
    return indirect_w_.get();
  }
  ++stats_.strided_writes;
  return strided_w_.get();
}

void AxiPackAdapter::tick() {
  // AR demux.
  if (up_.ar.can_pop()) {
    // Classify without consuming so a busy converter backpressures AR.
    const axi::AxiAr& ar = up_.ar.front();
    Converter* conv = ar.pack.has_value()
                          ? (ar.pack->indir
                                 ? static_cast<Converter*>(indirect_r_.get())
                                 : static_cast<Converter*>(strided_r_.get()))
                          : static_cast<Converter*>(base_.get());
    if (conv->can_accept_ar()) {
      classify_ar(ar);  // count it
      conv->accept_ar(up_.ar.pop());
      r_order_.push_back(conv);
    }
  }
  // AW demux.
  if (up_.aw.can_pop()) {
    const axi::AxiAw& aw = up_.aw.front();
    Converter* conv = aw.pack.has_value()
                          ? (aw.pack->indir
                                 ? static_cast<Converter*>(indirect_w_.get())
                                 : static_cast<Converter*>(strided_w_.get()))
                          : static_cast<Converter*>(base_.get());
    if (conv->can_accept_aw()) {
      classify_aw(aw);
      conv->accept_aw(up_.aw.pop());
      w_route_.push_back(conv);
      b_order_.push_back(conv);
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

}  // namespace axipack::pack
