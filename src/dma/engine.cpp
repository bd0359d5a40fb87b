#include "dma/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <optional>

#include "axi/burst.hpp"
#include "util/bits.hpp"

namespace axipack::dma {

namespace {

constexpr unsigned kMaxOutstandingReads = 8;   ///< AR bursts in flight
constexpr unsigned kMaxOutstandingWrites = 8;  ///< AWs awaiting B
constexpr std::uint32_t kAxiId = 0xD;          ///< ID of all engine traffic

/// Words one element occupies.
unsigned wpe(const Descriptor& d) { return d.elem_bytes / 4; }

/// Bytes of one index entry.
unsigned idx_bytes(const Pattern& p) { return p.index_bits / 8; }

/// Burst plan for reading one side of `d` in pack/contiguous mode.
std::vector<axi::AxiAr> plan_pattern_reads(const Pattern& p,
                                           const Descriptor& d,
                                           unsigned bus_bytes) {
  switch (p.kind) {
    case Pattern::Kind::contiguous:
      return axi::split_contiguous(p.addr, d.total_bytes(), bus_bytes);
    case Pattern::Kind::strided:
      return axi::split_pack_strided(p.addr, p.stride, d.elem_bytes,
                                     d.num_elems, bus_bytes);
    case Pattern::Kind::indirect:
      return axi::split_pack_indirect(p.addr, p.index_base, p.index_bits,
                                      d.elem_bytes, d.num_elems, bus_bytes);
  }
  assert(false);
  return {};
}

}  // namespace

DmaEngine::DmaEngine(sim::Kernel& k, axi::AxiPort& port, const DmaConfig& cfg)
    : port_(port), cfg_(cfg) {
  assert(cfg_.bus_bytes % 4 == 0 && cfg_.bus_bytes <= axi::kMaxBusBytes);
  k.add(*this);
  k.subscribe(*this, port_.r);
  k.subscribe(*this, port_.b);
}

void DmaEngine::push(const Descriptor& d) {
  assert(d.elem_bytes >= 4 && d.elem_bytes % 4 == 0 &&
         d.elem_bytes <= cfg_.bus_bytes);
  assert(!ring_active_ && "register descriptors are exclusive with a ring");
  queue_.push_back(PendingDesc{d, 0, false, now_});
  stats_.queue_peak = std::max<std::uint64_t>(stats_.queue_peak,
                                              queue_.size());
  wake_self();
}

void DmaEngine::start_chain(std::uint64_t head) {
  assert(head != 0);
  assert(!ring_active_ && "chains are exclusive with a ring");
  queue_.push_back(PendingDesc{{}, head, true, now_});
  stats_.queue_peak = std::max<std::uint64_t>(stats_.queue_peak,
                                              queue_.size());
  wake_self();
}

void DmaEngine::start_ring(std::uint64_t head_addr) {
  assert(idle() && "start_ring requires an idle engine");
  assert(!ring_active_);
  assert(head_addr != 0);
  ring_active_ = true;
  ring_next_addr_ = head_addr;
  ring_published_ = ring_consumed_ = ring_completed_ = 0;
  has_prefetched_ = false;
  cur_ring_ordinal_ = kNoOrdinal;
  wake_self();
}

void DmaEngine::publish(std::uint64_t n) {
  assert(ring_active_ && "publish without a ring");
  ring_published_ += n;
  stats_.queue_peak = std::max(stats_.queue_peak,
                               ring_published_ - ring_completed_);
  wake_self();
}

void DmaEngine::stop_ring() {
  assert(ring_active_);
  assert(ring_completed_ == ring_published_ && !transfer_active_ &&
         !fetching_desc_ && !has_prefetched_ &&
         "stop_ring before the ring drained");
  ring_active_ = false;
  cur_ring_ordinal_ = kNoOrdinal;
}

void DmaEngine::set_completion(std::function<void(std::uint64_t, bool)> fn) {
  completion_ = std::move(fn);
}

void DmaEngine::ring_complete(std::uint64_t ordinal, bool ok) {
  ++ring_completed_;
  if (completion_) completion_(ordinal, ok);
}

void DmaEngine::ring_reject_pending() {
  while (ring_consumed_ < ring_published_) {
    ++retry_stats_.failed_ops;
    ++stats_.error_descriptors;
    ring_complete(ring_consumed_++, false);
  }
}

bool DmaEngine::idle() const {
  const bool ring_work =
      ring_active_ &&
      (has_prefetched_ || ring_consumed_ < ring_published_);
  return !transfer_active_ && !fetching_desc_ && queue_.empty() &&
         !ring_work;
}

std::uint64_t DmaEngine::elem_addr(const Pattern& p, std::uint64_t i,
                                   bool is_src) const {
  switch (p.kind) {
    case Pattern::Kind::contiguous:
      return p.addr + i * cur_.elem_bytes;
    case Pattern::Kind::strided:
      return p.addr + static_cast<std::uint64_t>(
                          static_cast<std::int64_t>(i) * p.stride);
    case Pattern::Kind::indirect: {
      const auto& cache = is_src ? idx_src_ : idx_dst_;
      assert(i < cache.size() && "index not staged yet");
      return p.addr + cache[i] * cur_.elem_bytes;
    }
  }
  assert(false);
  return 0;
}

void DmaEngine::plan_index_fetch(const Pattern& p) {
  const std::uint64_t bytes = cur_.num_elems * idx_bytes(p);
  for (const axi::AxiAr& ar :
       axi::split_contiguous(p.index_base, bytes, cfg_.bus_bytes,
                             axi::Traffic::index)) {
    PlannedRead pr;
    pr.ar = ar;
    pr.ar.id = kAxiId;
    pr.kind = ReadKind::index;
    // Payload accounting below relies on planned order, so compute the
    // exact byte count this burst covers.
    pr.payload_bytes = 0;  // filled after the loop from the tiling
    planned_reads_.push_back(pr);
  }
  // split_contiguous tiles [index_base, index_base + bytes); recover each
  // burst's extent from consecutive start addresses.
  std::uint64_t end = p.index_base + bytes;
  for (std::size_t i = planned_reads_.size(); i-- > 0;) {
    PlannedRead& pr = planned_reads_[i];
    if (pr.kind != ReadKind::index || pr.payload_bytes != 0) break;
    pr.payload_bytes = end - pr.ar.addr;
    end = pr.ar.addr;
  }
}

void DmaEngine::begin_transfer(const Descriptor& d) {
  assert(!transfer_active_);
  cur_ = d;
  transfer_active_ = true;
  planned_reads_.clear();
  next_read_ = 0;
  planned_writes_.clear();
  next_aw_ = 0;
  w_burst_ = 0;
  w_sent_bytes_ = 0;
  w_cursor_ = 0;
  idx_src_.clear();
  idx_dst_.clear();
  idx_raw_.clear();
  needs_src_idx_ = false;
  needs_dst_idx_ = false;

  if (d.num_elems == 0) {
    finish_transfer();
    return;
  }

  // Narrow mode stages index arrays through the engine before the data
  // phase, like a conventional gather/scatter DMA (and like the paper's
  // BASE system fetching indices into the core).
  if (!cfg_.use_pack) {
    if (d.src.kind == Pattern::Kind::indirect) needs_src_idx_ = true;
    if (d.dst.kind == Pattern::Kind::indirect) needs_dst_idx_ = true;
    if (needs_src_idx_) {
      idx_fetch_src_ = true;
      plan_index_fetch(d.src);
    } else if (needs_dst_idx_) {
      idx_fetch_src_ = false;
      plan_index_fetch(d.dst);
    }
  }

  const bool src_irregular = d.src.kind != Pattern::Kind::contiguous;
  const bool dst_irregular = d.dst.kind != Pattern::Kind::contiguous;

  // Plan data reads. In narrow mode irregular sides use per-element bursts
  // generated on the fly (planned lazily in tick_read once indices are in).
  if (cfg_.use_pack || !src_irregular) {
    for (const axi::AxiAr& ar :
         plan_pattern_reads(d.src, d, cfg_.bus_bytes)) {
      PlannedRead pr;
      pr.ar = ar;
      pr.ar.id = kAxiId;
      pr.kind = ReadKind::data;
      pr.payload_bytes = 0;
      planned_reads_.push_back(pr);
    }
    // Recover per-burst payload from stream geometry.
    if (!src_irregular) {
      std::uint64_t end = d.src.addr + d.total_bytes();
      for (std::size_t i = planned_reads_.size(); i-- > 0;) {
        PlannedRead& pr = planned_reads_[i];
        if (pr.kind != ReadKind::data) break;
        pr.payload_bytes = end - pr.ar.addr;
        end = pr.ar.addr;
      }
    } else {
      for (PlannedRead& pr : planned_reads_) {
        if (pr.kind == ReadKind::data) {
          pr.payload_bytes = pr.ar.pack->num_elems * d.elem_bytes;
        }
      }
    }
  }

  // Plan data writes symmetrically.
  if (cfg_.use_pack || !dst_irregular) {
    Pattern dst = d.dst;
    switch (dst.kind) {
      case Pattern::Kind::contiguous: {
        for (const axi::AxiAr& ar :
             axi::split_contiguous(dst.addr, d.total_bytes(),
                                   cfg_.bus_bytes)) {
          planned_writes_.push_back(PlannedWrite{ar, 0});
        }
        std::uint64_t end = dst.addr + d.total_bytes();
        for (std::size_t i = planned_writes_.size(); i-- > 0;) {
          PlannedWrite& pw = planned_writes_[i];
          pw.payload_bytes = end - pw.aw.addr;
          end = pw.aw.addr;
        }
        break;
      }
      case Pattern::Kind::strided:
        for (const axi::AxiAr& ar :
             axi::split_pack_strided(dst.addr, dst.stride, d.elem_bytes,
                                     d.num_elems, cfg_.bus_bytes)) {
          planned_writes_.push_back(
              PlannedWrite{ar, ar.pack->num_elems * d.elem_bytes});
        }
        break;
      case Pattern::Kind::indirect:
        for (const axi::AxiAr& ar :
             axi::split_pack_indirect(dst.addr, dst.index_base,
                                      dst.index_bits, d.elem_bytes,
                                      d.num_elems, cfg_.bus_bytes)) {
          planned_writes_.push_back(
              PlannedWrite{ar, ar.pack->num_elems * d.elem_bytes});
        }
        break;
    }
    for (PlannedWrite& pw : planned_writes_) pw.aw.id = kAxiId;
  }
}

void DmaEngine::issue_next_read() {
  if (fault_ || retry_pending_) return;  // drain before replaying
  if (!port_.ar.can_push()) return;
  if (outstanding_reads_ >= kMaxOutstandingReads) return;

  const bool src_irregular = cur_.src.kind != Pattern::Kind::contiguous;
  const bool lazy_narrow_src =
      transfer_active_ && !cfg_.use_pack && src_irregular;

  // Index and descriptor fetches, plus planned data bursts.
  if (next_read_ < planned_reads_.size()) {
    const PlannedRead& pr = planned_reads_[next_read_];
    // Data reads wait until required indices are staged (narrow mode) —
    // index bursts themselves always proceed.
    if (pr.kind == ReadKind::data && !cfg_.use_pack &&
        (needs_src_idx_ || needs_dst_idx_)) {
      return;
    }
    const std::uint64_t words = util::ceil_div<std::uint64_t>(
        pr.payload_bytes, 4);
    if (pr.kind == ReadKind::data &&
        reserved_words_ + words > cfg_.buffer_words && reserved_words_ > 0) {
      return;  // no buffer headroom; a lone oversized burst may still go
    }
    port_.ar.push(pr.ar);
    ++next_read_;
    ++outstanding_reads_;
    ++stats_.ar_bursts;
    last_progress_ = now_;
    ActiveRead act;
    act.kind = pr.kind;
    act.packed = pr.ar.pack.has_value();
    act.cursor = pr.ar.addr;
    act.bytes_left = pr.payload_bytes;
    active_reads_.push_back(act);
    if (pr.kind == ReadKind::data) reserved_words_ += words;
    return;
  }

  // Lazily generated per-element narrow reads (narrow-mode irregular src).
  if (lazy_narrow_src && !(needs_src_idx_ || needs_dst_idx_)) {
    if (rd_narrow_next_ >= cur_.num_elems) return;
    const unsigned words = wpe(cur_);
    if (reserved_words_ + words > cfg_.buffer_words && reserved_words_ > 0) {
      return;
    }
    const std::uint64_t addr = elem_addr(cur_.src, rd_narrow_next_, true);
    assert(addr % cur_.elem_bytes == 0 &&
           "narrow-mode elements must be size-aligned");
    axi::AxiAr ar;
    ar.addr = addr;
    ar.id = kAxiId;
    ar.len = 0;
    ar.size = static_cast<std::uint8_t>(util::log2_exact(cur_.elem_bytes));
    ar.burst = axi::BurstType::incr;
    port_.ar.push(ar);
    ++rd_narrow_next_;
    ++outstanding_reads_;
    ++stats_.ar_bursts;
    last_progress_ = now_;
    ActiveRead act;
    act.kind = ReadKind::data;
    act.packed = false;
    act.cursor = addr;
    act.bytes_left = cur_.elem_bytes;
    active_reads_.push_back(act);
    reserved_words_ += words;
  }
}

void DmaEngine::consume_read_payload(const axi::AxiR& r, ActiveRead& act) {
  // An errored beat poisons the whole attempt: its payload (and everything
  // staged after it) is untrustworthy, but accounting proceeds normally so
  // the attempt drains cleanly before the replay/fail decision.
  if (r.resp != axi::kRespOkay) note_fault(r.resp);

  const auto stash = [&](const std::uint8_t* raw, unsigned n) {
    switch (act.kind) {
      case ReadKind::data:
        for (unsigned i = 0; i < n; i += 4) {
          std::uint32_t w;
          std::memcpy(&w, raw + i, 4);
          buffer_.push_back(w);
        }
        break;
      case ReadKind::index:
        idx_raw_.insert(idx_raw_.end(), raw, raw + n);
        stats_.index_fetch_bytes += n;
        break;
      case ReadKind::descriptor:
        desc_raw_.insert(desc_raw_.end(), raw, raw + n);
        stats_.desc_fetch_bytes += n;
        break;
    }
  };

  // Extract this beat's payload bytes.
  unsigned lane;
  unsigned n;
  if (act.packed) {
    lane = 0;
    n = static_cast<unsigned>(std::min<std::uint64_t>(
        cfg_.bus_bytes, act.bytes_left));
  } else {
    lane = static_cast<unsigned>(act.cursor % cfg_.bus_bytes);
    n = static_cast<unsigned>(std::min<std::uint64_t>(
        cfg_.bus_bytes - lane, act.bytes_left));
  }
  assert(n % 4 == 0 && n > 0);
  std::uint8_t raw[axi::kMaxBusBytes];
  axi::extract_bytes(r.data, lane, raw, n);
  act.cursor += n;
  act.bytes_left -= n;
  stash(raw, n);

  // A truncated burst (error-terminated early `last`) delivers fewer bytes
  // than planned. Zero-fill the remainder so every downstream byte-count
  // invariant (staging buffer, index and descriptor assembly) holds; the
  // fault flag already condemns the data.
  if (r.last && act.bytes_left > 0) {
    note_fault(axi::kRespSlvErr);
    const std::uint8_t zeros[axi::kMaxBusBytes] = {};
    while (act.bytes_left > 0) {
      const unsigned z = static_cast<unsigned>(std::min<std::uint64_t>(
          sizeof zeros, act.bytes_left));
      act.cursor += z;
      act.bytes_left -= z;
      stash(zeros, z);
    }
  }
}

void DmaEngine::tick_read() {
  issue_next_read();

  const std::optional<axi::AxiR> r = port_.r.try_pop();
  if (!r) return;
  assert(!active_reads_.empty() && "R beat with no outstanding read");
  ++stats_.r_beats;
  last_progress_ = now_;
  ActiveRead& act = active_reads_.front();
  consume_read_payload(*r, act);
  if (r->last) {
    assert(act.bytes_left == 0 && "burst ended before payload complete");
    const ReadKind kind = act.kind;
    active_reads_.pop_front();
    assert(outstanding_reads_ > 0);
    --outstanding_reads_;

    if (kind == ReadKind::index) {
      // Completed all index bursts for the side being staged?
      const bool more_idx_bursts =
          next_read_ < planned_reads_.size() &&
          planned_reads_[next_read_].kind == ReadKind::index;
      const bool idx_inflight =
          std::any_of(active_reads_.begin(), active_reads_.end(),
                      [](const ActiveRead& a) {
                        return a.kind == ReadKind::index;
                      });
      if (!more_idx_bursts && !idx_inflight) {
        const Pattern& p = idx_fetch_src_ ? cur_.src : cur_.dst;
        auto& cache = idx_fetch_src_ ? idx_src_ : idx_dst_;
        const unsigned ib = idx_bytes(p);
        cache.reserve(cur_.num_elems);
        for (std::uint64_t i = 0; i < cur_.num_elems; ++i) {
          std::uint64_t v = 0;
          std::memcpy(&v, idx_raw_.data() + i * ib, ib);
          cache.push_back(v);
        }
        idx_raw_.clear();
        if (idx_fetch_src_) {
          needs_src_idx_ = false;
          if (needs_dst_idx_) {
            idx_fetch_src_ = false;
            plan_index_fetch(cur_.dst);
          }
        } else {
          needs_dst_idx_ = false;
        }
      }
    }
  }
}

void DmaEngine::tick_write() {
  // Collect write responses.
  if (const std::optional<axi::AxiB> b = port_.b.try_pop()) {
    assert(outstanding_writes_ > 0);
    --outstanding_writes_;
    last_progress_ = now_;
    if (b->resp != axi::kRespOkay) note_fault(b->resp);
  }
  if (!transfer_active_) return;
  if (!cfg_.use_pack && (needs_src_idx_ || needs_dst_idx_)) return;

  const bool dst_irregular = cur_.dst.kind != Pattern::Kind::contiguous;
  const bool narrow_dst = !cfg_.use_pack && dst_irregular;

  if (!narrow_dst) {
    // Planned bursts: AW strictly ahead of its W data, one beat per cycle.
    if (!fault_ && next_aw_ < planned_writes_.size() &&
        next_aw_ <= w_burst_ &&  // issue AW only as W catches up (bounded)
        outstanding_writes_ < kMaxOutstandingWrites &&
        port_.aw.can_push()) {
      port_.aw.push(planned_writes_[next_aw_].aw);
      ++next_aw_;
      ++outstanding_writes_;
      ++stats_.aw_bursts;
      last_progress_ = now_;
    }
    if (w_burst_ >= planned_writes_.size()) return;
    if (w_burst_ >= next_aw_) return;  // W may not precede its AW
    if (!port_.w.can_push()) return;
    const PlannedWrite& pw = planned_writes_[w_burst_];

    unsigned lane;
    unsigned n;
    const std::uint64_t left = pw.payload_bytes - w_sent_bytes_;
    if (pw.aw.pack.has_value()) {
      lane = 0;
      n = static_cast<unsigned>(
          std::min<std::uint64_t>(cfg_.bus_bytes, left));
    } else {
      if (w_sent_bytes_ == 0) w_cursor_ = pw.aw.addr;
      lane = static_cast<unsigned>(w_cursor_ % cfg_.bus_bytes);
      n = static_cast<unsigned>(
          std::min<std::uint64_t>(cfg_.bus_bytes - lane, left));
    }
    assert(n % 4 == 0 && n > 0);

    axi::AxiW w;
    if (fault_) {
      // Aborting: the slave is still owed this AW's full beat count, but
      // the staging buffer may never fill again. Drain with null strobes —
      // a replay (or the error completion) owns the destination bytes.
      w.strb = 0;
    } else {
      if (buffer_.size() < n / 4) return;  // data not staged yet
      for (unsigned i = 0; i < n; i += 4) {
        const std::uint32_t word = buffer_.front();
        buffer_.pop_front();
        axi::place_bytes(w.data, lane + i,
                         reinterpret_cast<const std::uint8_t*>(&word), 4);
      }
      assert(reserved_words_ >= n / 4);
      reserved_words_ -= n / 4;
      w.strb = axi::strb_mask(lane, n);
    }
    w.useful_bytes = static_cast<std::uint16_t>(n);
    w_sent_bytes_ += n;
    w_cursor_ += n;
    w.last = w_sent_bytes_ == pw.payload_bytes;
    port_.w.push(w);
    ++stats_.w_beats;
    if (w.last) {
      ++w_burst_;
      w_sent_bytes_ = 0;
    }
  } else {
    // Per-element narrow writes: one AW+W pair per element.
    if (fault_) return;  // AW+W go out atomically: nothing is ever owed
    if (wr_narrow_next_ >= cur_.num_elems) return;
    if (outstanding_writes_ >= kMaxOutstandingWrites) return;
    if (!port_.aw.can_push() || !port_.w.can_push()) return;
    const unsigned n = cur_.elem_bytes;
    if (buffer_.size() < n / 4) return;

    const std::uint64_t addr =
        elem_addr(cur_.dst, wr_narrow_next_, false);
    assert(addr % cur_.elem_bytes == 0 &&
           "narrow-mode elements must be size-aligned");
    axi::AxiAw aw;
    aw.addr = addr;
    aw.id = kAxiId;
    aw.len = 0;
    aw.size = static_cast<std::uint8_t>(util::log2_exact(n));
    aw.burst = axi::BurstType::incr;
    port_.aw.push(aw);
    ++stats_.aw_bursts;

    axi::AxiW w;
    const unsigned lane = static_cast<unsigned>(addr % cfg_.bus_bytes);
    for (unsigned i = 0; i < n; i += 4) {
      const std::uint32_t word = buffer_.front();
      buffer_.pop_front();
      axi::place_bytes(w.data, lane + i,
                       reinterpret_cast<const std::uint8_t*>(&word), 4);
    }
    assert(reserved_words_ >= n / 4);
    reserved_words_ -= n / 4;
    w.strb = axi::strb_mask(lane, n);
    w.useful_bytes = static_cast<std::uint16_t>(n);
    w.last = true;
    port_.w.push(w);
    ++stats_.w_beats;
    ++outstanding_writes_;
    ++wr_narrow_next_;
    last_progress_ = now_;
  }
}

void DmaEngine::tick_timeout() {
  const sim::RetryConfig& rc = cfg_.retry;
  if (!rc.enabled() || rc.timeout_cycles == 0) return;
  const bool inflight = !active_reads_.empty() || outstanding_writes_ > 0 ||
                        w_burst_ < next_aw_;
  if (!inflight) return;
  if (now_ <= last_progress_ + rc.timeout_cycles) return;
  ++retry_stats_.timeouts;
  note_fault(axi::kRespSlvErr);
  last_progress_ = now_;  // one expiry per stall; the drain then resolves
}

void DmaEngine::note_fault(std::uint8_t resp) {
  fault_ = true;
  if (resp == axi::kRespDecErr) fatal_ = true;
}

bool DmaEngine::fault_drained() const {
  return active_reads_.empty() && outstanding_writes_ == 0 &&
         w_burst_ >= next_aw_;
}

void DmaEngine::reset_transfer() {
  transfer_active_ = false;
  planned_reads_.clear();
  next_read_ = 0;
  active_reads_.clear();
  planned_writes_.clear();
  next_aw_ = 0;
  w_burst_ = 0;
  w_sent_bytes_ = 0;
  w_cursor_ = 0;
  rd_narrow_next_ = 0;
  wr_narrow_next_ = 0;
  buffer_.clear();
  reserved_words_ = 0;
  idx_src_.clear();
  idx_dst_.clear();
  idx_raw_.clear();
  needs_src_idx_ = false;
  needs_dst_idx_ = false;
}

void DmaEngine::resolve_fault() {
  assert(fault_ && fault_drained());
  // A ring prefetch that was in flight when the transfer faulted is
  // abandoned: its slot was not yet consumed and will simply be fetched
  // again. The transfer owns the retry/fail decision.
  if (transfer_active_ && fetching_desc_) {
    fetching_desc_ = false;
    desc_raw_.clear();
    planned_reads_.clear();
    next_read_ = 0;
  }
  ++attempts_;
  const sim::RetryConfig& rc = cfg_.retry;
  // Breaker input: a failed attempt of a transfer whose irregular side rode
  // AXI-Pack bursts. Past the threshold the engine degrades to narrow
  // per-element bursts for everything that follows, replay included —
  // correct, just slow.
  if (transfer_active_ && cfg_.use_pack &&
      (cur_.src.kind != Pattern::Kind::contiguous ||
       cur_.dst.kind != Pattern::Kind::contiguous)) {
    ++pack_fault_attempts_;
    if (!retry_stats_.degraded && rc.breaker_threshold != 0 &&
        pack_fault_attempts_ >= rc.breaker_threshold) {
      retry_stats_.degraded = true;
      cfg_.use_pack = false;
    }
  }
  fault_ = false;
  if (fatal_ || !rc.enabled() || attempts_ >= rc.max_attempts) {
    // Error completion: record it and terminate the chain (cur_.next is
    // not followed; a descriptor fetch in progress is abandoned). A ring
    // behaves differently: slots are independent requests, so a failed
    // transfer completes with an error and the ring continues — but a
    // failed slot *fetch* breaks the link walk and ends the ring.
    ++retry_stats_.failed_ops;
    ++stats_.error_descriptors;
    fatal_ = false;
    attempts_ = 0;
    if (fetching_desc_) {
      fetching_desc_ = false;
      desc_raw_.clear();
      planned_reads_.clear();
      next_read_ = 0;
      if (ring_active_) {
        ring_complete(ring_consumed_++, false);
        ring_next_addr_ = 0;
        ring_reject_pending();
      }
    } else {
      const std::uint64_t ring_ord = cur_ring_ordinal_;
      cur_ring_ordinal_ = kNoOrdinal;
      reset_transfer();
      if (ring_ord != kNoOrdinal) ring_complete(ring_ord, false);
    }
  } else {
    ++retry_stats_.retries;
    const unsigned shift = std::min(attempts_ - 1, 16u);
    backoff_until_ = now_ + (rc.backoff << shift);
    retry_pending_ = true;
  }
}

void DmaEngine::finish_transfer() {
  stats_.bytes_moved += cur_.total_bytes();
  ++stats_.descriptors_done;
  transfer_active_ = false;
  attempts_ = 0;
  rd_narrow_next_ = 0;
  wr_narrow_next_ = 0;
  if (cur_ring_ordinal_ != kNoOrdinal) {
    // Ring slots chain through their link fields at fetch time; `next` is
    // not followed here — the walk already advanced when this descriptor
    // was parsed.
    const std::uint64_t ord = cur_ring_ordinal_;
    cur_ring_ordinal_ = kNoOrdinal;
    ring_complete(ord, true);
    return;
  }
  latency_.record(now_ - cur_arrival_);
  if (cur_.next != 0) {
    queue_.push_front(PendingDesc{{}, cur_.next, true, now_});
  }
}

void DmaEngine::tick_start() {
  if (transfer_active_ || fetching_desc_) return;
  if (ring_active_) {
    if (has_prefetched_) {
      has_prefetched_ = false;
      cur_ring_ordinal_ = prefetched_ordinal_;
      begin_transfer(prefetched_);
      return;
    }
    if (ring_next_addr_ == 0) {
      // Broken ring (zero link, malformed slot or failed fetch): nothing
      // published can ever execute — reject it so producers don't hang.
      ring_reject_pending();
      return;
    }
    if (ring_consumed_ < ring_published_) {
      fetching_desc_ = true;
      plan_desc_fetch(ring_next_addr_);
    }
    return;
  }
  if (queue_.empty()) return;
  PendingDesc& head = queue_.front();
  if (!head.from_memory) {
    const Descriptor d = head.desc;
    cur_arrival_ = head.arrival;
    queue_.pop_front();
    begin_transfer(d);
    return;
  }
  // Fetch the descriptor over the port (plain INCR reads).
  fetching_desc_ = true;
  fetch_arrival_ = head.arrival;
  plan_desc_fetch(head.addr);
  queue_.pop_front();
}

void DmaEngine::plan_desc_fetch(std::uint64_t addr) {
  desc_addr_ = addr;
  desc_raw_.clear();
  planned_reads_.clear();
  next_read_ = 0;
  for (const axi::AxiAr& ar :
       axi::split_contiguous(addr, kDescriptorBytes, cfg_.bus_bytes)) {
    PlannedRead pr;
    pr.ar = ar;
    pr.ar.id = kAxiId;
    pr.kind = ReadKind::descriptor;
    pr.payload_bytes = 0;
    planned_reads_.push_back(pr);
  }
  std::uint64_t end = addr + kDescriptorBytes;
  for (std::size_t i = planned_reads_.size(); i-- > 0;) {
    planned_reads_[i].payload_bytes = end - planned_reads_[i].ar.addr;
    end = planned_reads_[i].ar.addr;
  }
}

bool DmaEngine::read_side_drained() const {
  if (next_read_ < planned_reads_.size() || !active_reads_.empty()) {
    return false;
  }
  if (needs_src_idx_ || needs_dst_idx_) return false;
  const bool narrow_src =
      !cfg_.use_pack && cur_.src.kind != Pattern::Kind::contiguous;
  return !narrow_src || rd_narrow_next_ >= cur_.num_elems;
}

void DmaEngine::tick_ring() {
  if (!ring_active_ || !transfer_active_) return;

  // Parse a prefetch whose beats have all arrived. The transfer path's
  // tick_read() consumed them (routed by ReadKind), so the raw bytes are
  // already assembled here.
  if (fetching_desc_ && desc_raw_.size() == kDescriptorBytes &&
      active_reads_.empty()) {
    const auto d = parse_descriptor(desc_raw_.data());
    fetching_desc_ = false;
    desc_raw_.clear();
    const std::uint64_t ordinal = ring_consumed_++;
    if (!d.has_value()) {
      ++stats_.malformed_descriptors;
      ++stats_.error_descriptors;
      ++retry_stats_.failed_ops;
      ring_complete(ordinal, false);
      ring_next_addr_ = 0;
      // Later slots are rejected once the active transfer retires
      // (tick_start's broken-ring path), keeping completions in order.
    } else {
      prefetched_ = *d;
      prefetched_ordinal_ = ordinal;
      has_prefetched_ = true;
      ring_next_addr_ = d->next;
    }
  }

  // Start the next prefetch once the transfer's read side has fully
  // drained: from here on plan_desc_fetch() may repurpose the read plan,
  // and descriptor beats cannot interleave with data beats.
  if (!fetching_desc_ && !has_prefetched_ && ring_next_addr_ != 0 &&
      ring_consumed_ < ring_published_ && !retry_pending_ &&
      read_side_drained()) {
    fetching_desc_ = true;
    plan_desc_fetch(ring_next_addr_);
  }
}

void DmaEngine::tick() {
  ++now_;
  if (!idle()) ++stats_.busy_cycles;

  // Backoff between failed attempts: replay once the window closes.
  if (retry_pending_) {
    if (now_ < backoff_until_) return;
    retry_pending_ = false;
    last_progress_ = now_;
    if (fetching_desc_) {
      plan_desc_fetch(desc_addr_);
    } else {
      const Descriptor d = cur_;
      reset_transfer();
      begin_transfer(d);
    }
    return;
  }

  tick_start();

  if (fetching_desc_ && !transfer_active_) {
    issue_next_read();
    if (const std::optional<axi::AxiR> r = port_.r.try_pop()) {
      ++stats_.r_beats;
      last_progress_ = now_;
      assert(!active_reads_.empty());
      ActiveRead& act = active_reads_.front();
      consume_read_payload(*r, act);
      if (r->last) {
        active_reads_.pop_front();
        assert(outstanding_reads_ > 0);
        --outstanding_reads_;
      }
    }
    tick_timeout();
    if (fault_) {
      if (fault_drained()) resolve_fault();
      return;
    }
    if (desc_raw_.size() == kDescriptorBytes && active_reads_.empty()) {
      const auto d = parse_descriptor(desc_raw_.data());
      fetching_desc_ = false;
      attempts_ = 0;
      desc_raw_.clear();
      if (ring_active_) {
        const std::uint64_t ordinal = ring_consumed_++;
        if (!d.has_value()) {
          // Malformed ring slot: the link is unreadable, so the walk
          // cannot continue — fail this slot and break the ring.
          ++stats_.malformed_descriptors;
          ++stats_.error_descriptors;
          ++retry_stats_.failed_ops;
          ring_complete(ordinal, false);
          ring_next_addr_ = 0;
          ring_reject_pending();
        } else {
          ring_next_addr_ = d->next;
          cur_ring_ordinal_ = ordinal;
          begin_transfer(*d);
        }
      } else if (!d.has_value()) {
        // Malformed chain entry: error completion, chain terminated. A
        // register-programmed chain head that points at garbage lands
        // here too — no UB, just a recorded failure.
        ++stats_.malformed_descriptors;
        ++stats_.error_descriptors;
        ++retry_stats_.failed_ops;
      } else {
        cur_arrival_ = fetch_arrival_;
        begin_transfer(*d);
      }
    }
    return;
  }

  if (!transfer_active_) return;
  tick_read();
  tick_write();
  tick_timeout();

  if (fault_) {
    if (fault_drained()) resolve_fault();
    return;
  }

  tick_ring();

  // Transfer completion check.
  const bool reads_planned_done = next_read_ >= planned_reads_.size();
  const bool src_irregular = cur_.src.kind != Pattern::Kind::contiguous;
  const bool narrow_src = !cfg_.use_pack && src_irregular;
  const bool reads_done =
      reads_planned_done && active_reads_.empty() &&
      (!narrow_src || rd_narrow_next_ >= cur_.num_elems);
  const bool dst_irregular = cur_.dst.kind != Pattern::Kind::contiguous;
  const bool narrow_dst = !cfg_.use_pack && dst_irregular;
  const bool writes_done =
      narrow_dst ? wr_narrow_next_ >= cur_.num_elems
                 : w_burst_ >= planned_writes_.size();
  if (reads_done && writes_done && outstanding_writes_ == 0) {
    assert(buffer_.empty());
    finish_transfer();
  }
}

}  // namespace axipack::dma
