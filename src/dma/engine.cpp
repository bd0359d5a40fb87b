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

/// Bytes of one index entry.
unsigned idx_bytes(const Pattern& p) { return p.index_bits / 8; }

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
  enqueue(PendingDesc{d, 0, false, now()});
}

void DmaEngine::start_chain(std::uint64_t head) {
  assert(head != 0);
  enqueue(PendingDesc{{}, head, true, now()});
}

void DmaEngine::enqueue(const PendingDesc& p) {
  assert(!ring_active_ && "register and chain descriptors exclude a ring");
  queue_.push_back(p);
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

void DmaEngine::fail_ring_slot() {
  ring_complete(ring_consumed_++, false);
  ring_next_addr_ = 0;
  // With a transfer still active, the later slots are rejected once it
  // retires (tick_start's broken-ring path), keeping completions in order.
  if (!transfer_active_) ring_reject_pending();
}

bool DmaEngine::idle() const {
  const bool ring_work =
      ring_active_ &&
      (has_prefetched_ || ring_consumed_ < ring_published_);
  return !transfer_active_ && !fetching_desc_ && queue_.empty() &&
         !ring_work;
}

bool DmaEngine::narrow(const Pattern& p) const {
  return !cfg_.use_pack && p.kind != Pattern::Kind::contiguous;
}

// ------------------------------------------------------------ planning

void DmaEngine::plan_contiguous(std::vector<PlannedBurst>& plan,
                                std::uint64_t addr, std::uint64_t bytes,
                                ReadKind kind) const {
  const std::vector<axi::AxiAx> bursts = axi::split_contiguous(
      addr, bytes, cfg_.bus_bytes,
      kind == ReadKind::index ? axi::Traffic::index : axi::Traffic::data);
  // The bursts tile [addr, addr + bytes): each payload runs to the next
  // burst's start.
  for (std::size_t i = 0; i < bursts.size(); ++i) {
    const std::uint64_t end =
        i + 1 < bursts.size() ? bursts[i + 1].addr : addr + bytes;
    plan.push_back(PlannedBurst{bursts[i], end - bursts[i].addr, kind});
    plan.back().ax.id = kAxiId;
  }
}

void DmaEngine::plan_pattern(std::vector<PlannedBurst>& plan,
                             const Pattern& p) const {
  if (p.kind == Pattern::Kind::contiguous) {
    plan_contiguous(plan, p.addr, cur_.total_bytes(), ReadKind::data);
    return;
  }
  const std::vector<axi::AxiAx> bursts =
      p.kind == Pattern::Kind::strided
          ? axi::split_pack_strided(p.addr, p.stride, cur_.elem_bytes,
                                    cur_.num_elems, cfg_.bus_bytes)
          : axi::split_pack_indirect(p.addr, p.index_base, p.index_bits,
                                     cur_.elem_bytes, cur_.num_elems,
                                     cfg_.bus_bytes);
  for (const axi::AxiAx& ax : bursts) {
    plan.push_back(PlannedBurst{ax, ax.pack->num_elems * cur_.elem_bytes,
                                ReadKind::data});
    plan.back().ax.id = kAxiId;
  }
}

void DmaEngine::stage_indices() {
  const Pattern& p = needs_src_idx_ ? cur_.src : cur_.dst;
  plan_contiguous(planned_reads_, p.index_base,
                  cur_.num_elems * idx_bytes(p), ReadKind::index);
}

axi::AxiAx DmaEngine::narrow_beat(bool src, std::uint64_t i) const {
  const Pattern& p = src ? cur_.src : cur_.dst;
  assert(p.kind != Pattern::Kind::contiguous);
  axi::AxiAx ax;
  if (p.kind == Pattern::Kind::strided) {
    ax.addr = p.addr + static_cast<std::uint64_t>(
                           static_cast<std::int64_t>(i) * p.stride);
  } else {
    const std::vector<std::uint64_t>& idx = src ? idx_src_ : idx_dst_;
    assert(i < idx.size() && "index not staged yet");
    ax.addr = p.addr + idx[i] * cur_.elem_bytes;
  }
  assert(ax.addr % cur_.elem_bytes == 0 &&
         "narrow-mode elements must be size-aligned");
  ax.id = kAxiId;
  ax.len = 0;
  ax.size = static_cast<std::uint8_t>(util::log2_exact(cur_.elem_bytes));
  ax.burst = axi::BurstType::incr;
  return ax;
}

void DmaEngine::begin_transfer(const Descriptor& d) {
  reset_transfer();
  cur_ = d;
  transfer_active_ = true;
  if (d.num_elems == 0) {
    finish_transfer();
    return;
  }
  // Narrow mode stages index arrays through the engine before the data
  // phase, like a conventional gather/scatter DMA (and like the paper's
  // BASE system fetching indices into the core).
  if (!cfg_.use_pack) {
    needs_src_idx_ = d.src.kind == Pattern::Kind::indirect;
    needs_dst_idx_ = d.dst.kind == Pattern::Kind::indirect;
    if (needs_src_idx_ || needs_dst_idx_) stage_indices();
  }
  // A narrow side moves per element instead, issued on the fly once its
  // indices are in.
  if (!narrow(d.src)) plan_pattern(planned_reads_, d.src);
  if (!narrow(d.dst)) plan_pattern(planned_writes_, d.dst);
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

void DmaEngine::fetch_descriptor(std::uint64_t addr) {
  fetching_desc_ = true;
  desc_addr_ = addr;
  desc_raw_.clear();
  planned_reads_.clear();
  next_read_ = 0;
  plan_contiguous(planned_reads_, addr, kDescriptorBytes,
                  ReadKind::descriptor);
}

void DmaEngine::take_descriptor() {
  const std::optional<Descriptor> d = parse_descriptor(desc_raw_.data());
  fetching_desc_ = false;
  // A fetch that starts a transfer clears its failed attempts; a prefetch
  // leaves those of the transfer it overlaps.
  if (!transfer_active_) attempts_ = 0;
  if (!d) {
    // Malformed: an error completion that ends its chain. A register
    // descriptor whose `next` points at garbage lands here too. A ring's
    // link is unreadable, so the walk cannot continue.
    ++stats_.malformed_descriptors;
    ++stats_.error_descriptors;
    ++retry_stats_.failed_ops;
    if (ring_active_) fail_ring_slot();
    return;
  }
  std::uint64_t ordinal = kNoOrdinal;
  if (ring_active_) {
    ordinal = ring_consumed_++;
    ring_next_addr_ = d->next;
  }
  if (transfer_active_) {
    // A ring slot prefetched during a transfer waits for it to retire.
    prefetched_ = *d;
    prefetched_ordinal_ = ordinal;
    has_prefetched_ = true;
    return;
  }
  cur_ring_ordinal_ = ordinal;
  begin_transfer(*d);
}

// ------------------------------------------------------------ read side

std::optional<DmaEngine::PlannedBurst> DmaEngine::next_read() const {
  if (fault_) return std::nullopt;  // drain before replaying
  if (active_reads_.size() >= kMaxOutstandingReads) return std::nullopt;
  const bool staging = needs_src_idx_ || needs_dst_idx_;
  PlannedBurst next;
  if (next_read_ < planned_reads_.size()) {
    next = planned_reads_[next_read_];
    // Data reads wait until the indices are staged; index and descriptor
    // reads always proceed.
    if (next.kind == ReadKind::data && staging) return std::nullopt;
  } else if (transfer_active_ && narrow(cur_.src) && !staging &&
             rd_narrow_next_ < cur_.num_elems) {
    next = PlannedBurst{narrow_beat(true, rd_narrow_next_), cur_.elem_bytes,
                        ReadKind::data};
  } else {
    return std::nullopt;
  }
  const std::uint64_t words =
      util::ceil_div<std::uint64_t>(next.payload_bytes, 4);
  if (next.kind == ReadKind::data &&
      reserved_words_ + words > cfg_.buffer_words && reserved_words_ > 0) {
    return std::nullopt;  // no buffer headroom; a lone oversized burst may go
  }
  return next;
}

void DmaEngine::issue_next_read() {
  if (!port_.ar.can_push()) return;
  const std::optional<PlannedBurst> next = next_read();
  if (!next) return;
  port_.ar.push(next->ax);
  if (next_read_ < planned_reads_.size()) {
    ++next_read_;
  } else {
    ++rd_narrow_next_;
  }
  ++stats_.ar_bursts;
  last_progress_ = now();
  active_reads_.push_back(ActiveRead{next->kind, next->ax.pack.has_value(),
                                     next->ax.addr, next->payload_bytes});
  if (next->kind == ReadKind::data) {
    reserved_words_ += util::ceil_div<std::uint64_t>(next->payload_bytes, 4);
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

  // A packed payload starts at lane 0; a regular burst's at its address.
  const unsigned lane =
      act.packed ? 0 : static_cast<unsigned>(act.cursor % cfg_.bus_bytes);
  const unsigned n = static_cast<unsigned>(
      std::min<std::uint64_t>(cfg_.bus_bytes - lane, act.bytes_left));
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
  last_progress_ = now();
  ActiveRead& act = active_reads_.front();
  consume_read_payload(*r, act);
  if (!r->last) return;
  assert(act.bytes_left == 0 && "burst ended before payload complete");
  const ReadKind kind = act.kind;
  active_reads_.pop_front();
  if (kind != ReadKind::index) return;

  // Completed every index burst of the side being staged?
  const bool more_idx_bursts =
      next_read_ < planned_reads_.size() &&
      planned_reads_[next_read_].kind == ReadKind::index;
  const bool idx_inflight =
      std::any_of(active_reads_.begin(), active_reads_.end(),
                  [](const ActiveRead& a) {
                    return a.kind == ReadKind::index;
                  });
  if (more_idx_bursts || idx_inflight) return;
  const bool src = needs_src_idx_;  // the source's indices stage first
  const Pattern& p = src ? cur_.src : cur_.dst;
  auto& cache = src ? idx_src_ : idx_dst_;
  const unsigned ib = idx_bytes(p);
  cache.reserve(cur_.num_elems);
  for (std::uint64_t i = 0; i < cur_.num_elems; ++i) {
    std::uint64_t v = 0;
    std::memcpy(&v, idx_raw_.data() + i * ib, ib);
    cache.push_back(v);
  }
  idx_raw_.clear();
  (src ? needs_src_idx_ : needs_dst_idx_) = false;
  if (needs_dst_idx_) stage_indices();
}

bool DmaEngine::read_side_drained() const {
  return next_read_ >= planned_reads_.size() && active_reads_.empty() &&
         !needs_src_idx_ && !needs_dst_idx_ &&
         (!narrow(cur_.src) || rd_narrow_next_ >= cur_.num_elems);
}

// ----------------------------------------------------------- write side

axi::AxiW DmaEngine::staged_beat(unsigned lane, unsigned n) {
  axi::AxiW w;
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
  return w;
}

std::pair<unsigned, unsigned> DmaEngine::next_w_beat() const {
  const PlannedBurst& pw = planned_writes_[w_burst_];
  const unsigned lane =
      pw.ax.pack.has_value()
          ? 0
          : static_cast<unsigned>((pw.ax.addr + w_sent_bytes_) %
                                  cfg_.bus_bytes);
  const unsigned n = static_cast<unsigned>(std::min<std::uint64_t>(
      cfg_.bus_bytes - lane, pw.payload_bytes - w_sent_bytes_));
  assert(n % 4 == 0 && n > 0);
  return {lane, n};
}

bool DmaEngine::narrow_write_due() const {
  // AW+W go out atomically, so a faulted attempt owes nothing.
  return !fault_ && wr_narrow_next_ < cur_.num_elems &&
         outstanding_writes_ < kMaxOutstandingWrites &&
         buffer_.size() >= cur_.elem_bytes / 4;
}

bool DmaEngine::aw_due() const {
  return !fault_ && next_aw_ < planned_writes_.size() &&
         next_aw_ <= w_burst_ &&  // issue AW only as W catches up (bounded)
         outstanding_writes_ < kMaxOutstandingWrites;
}

bool DmaEngine::w_due() const {
  if (w_burst_ >= next_aw_) return false;  // W may not precede its AW
  // Aborting, the slave is still owed this AW's beats: they go out with
  // null strobes. Otherwise the beat's data must be staged.
  return fault_ || buffer_.size() >= next_w_beat().second / 4;
}

void DmaEngine::tick_write() {
  // Collect write responses.
  if (const std::optional<axi::AxiB> b = port_.b.try_pop()) {
    assert(outstanding_writes_ > 0);
    --outstanding_writes_;
    last_progress_ = now();
    if (b->resp != axi::kRespOkay) note_fault(b->resp);
  }
  if (!transfer_active_ || needs_src_idx_ || needs_dst_idx_) return;

  if (narrow(cur_.dst)) {
    // Per-element narrow writes: one AW+W pair per element.
    if (!narrow_write_due() || !port_.aw.can_push() || !port_.w.can_push()) {
      return;
    }
    const axi::AxiAx aw = narrow_beat(false, wr_narrow_next_);
    port_.aw.push(aw);
    ++stats_.aw_bursts;
    axi::AxiW w = staged_beat(static_cast<unsigned>(aw.addr % cfg_.bus_bytes),
                              cur_.elem_bytes);
    w.last = true;
    port_.w.push(w);
    ++stats_.w_beats;
    ++outstanding_writes_;
    ++wr_narrow_next_;
    last_progress_ = now();
    return;
  }

  // Planned bursts: AW strictly ahead of its W data, one beat per cycle.
  if (aw_due() && port_.aw.can_push()) {
    port_.aw.push(planned_writes_[next_aw_].ax);
    ++next_aw_;
    ++outstanding_writes_;
    ++stats_.aw_bursts;
    last_progress_ = now();
  }
  if (!w_due() || !port_.w.can_push()) return;
  const auto [lane, n] = next_w_beat();
  axi::AxiW w;
  if (fault_) {
    // Aborting: the staging buffer may never fill again. A replay (or the
    // error completion) owns the destination bytes.
    w.useful_bytes = static_cast<std::uint16_t>(n);
  } else {
    w = staged_beat(lane, n);
  }
  w_sent_bytes_ += n;
  w.last = w_sent_bytes_ == planned_writes_[w_burst_].payload_bytes;
  port_.w.push(w);
  ++stats_.w_beats;
  if (w.last) {
    ++w_burst_;
    w_sent_bytes_ = 0;
  }
}

// ------------------------------------------------------------ faults

void DmaEngine::tick_timeout() {
  if (drained() || !cfg_.retry.watchdog_expired(now(), last_progress_)) {
    return;
  }
  ++retry_stats_.timeouts;
  note_fault(axi::kRespSlvErr);
  // Re-arm: a stall that outlasts another window expires again.
  last_progress_ = now();
}

void DmaEngine::note_fault(std::uint8_t resp) {
  fault_ = true;
  if (resp == axi::kRespDecErr) fatal_ = true;
}

bool DmaEngine::drained() const {
  return active_reads_.empty() && outstanding_writes_ == 0 &&
         w_burst_ >= next_aw_;
}

void DmaEngine::resolve_fault() {
  assert(fault_ && drained());
  // A ring prefetch that was in flight when the transfer faulted is
  // abandoned: its slot was not yet consumed and will simply be fetched
  // again. The transfer owns the retry/fail decision.
  if (transfer_active_) fetching_desc_ = false;
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
    if (!retry_stats_.degraded && rc.breaker_trips(pack_fault_attempts_)) {
      retry_stats_.degraded = true;
      cfg_.use_pack = false;
    }
  }
  fault_ = false;
  if (!rc.gives_up(attempts_, fatal_)) {
    ++retry_stats_.retries;
    backoff_until_ = now() + rc.backoff_after(attempts_);
    retry_pending_ = true;
    return;
  }
  // Error completion: record it and terminate the chain (cur_.next is not
  // followed; a descriptor fetch in progress is abandoned). A ring behaves
  // differently: slots are independent requests, so a failed transfer
  // completes with an error and the ring continues — but a failed slot
  // *fetch* breaks the link walk and ends the ring.
  ++retry_stats_.failed_ops;
  ++stats_.error_descriptors;
  fatal_ = false;
  attempts_ = 0;
  if (fetching_desc_) {
    fetching_desc_ = false;
    if (ring_active_) fail_ring_slot();
    return;
  }
  const std::uint64_t ring_ord = cur_ring_ordinal_;
  cur_ring_ordinal_ = kNoOrdinal;
  reset_transfer();
  if (ring_ord != kNoOrdinal) ring_complete(ring_ord, false);
}

// ------------------------------------------------------------- control

void DmaEngine::finish_transfer() {
  stats_.bytes_moved += cur_.total_bytes();
  ++stats_.descriptors_done;
  transfer_active_ = false;
  attempts_ = 0;
  if (cur_ring_ordinal_ != kNoOrdinal) {
    // Ring slots chain through their link fields at fetch time; `next` is
    // not followed here — the walk already advanced when this descriptor
    // was parsed.
    const std::uint64_t ord = cur_ring_ordinal_;
    cur_ring_ordinal_ = kNoOrdinal;
    ring_complete(ord, true);
    return;
  }
  // The latency counts this, the completing cycle; a chained successor
  // arrives in the next one.
  latency_.record(now() + 1 - cur_arrival_);
  if (cur_.next != 0) {
    queue_.push_front(PendingDesc{{}, cur_.next, true, now() + 1});
  }
}

void DmaEngine::tick_start() {
  if (transfer_active_ || fetching_desc_) return;
  if (ring_active_) {
    if (has_prefetched_) {
      has_prefetched_ = false;
      cur_ring_ordinal_ = prefetched_ordinal_;
      begin_transfer(prefetched_);
    } else if (ring_next_addr_ == 0) {
      // Broken ring (zero link, malformed slot or failed fetch): nothing
      // published can ever execute — reject it so producers don't hang.
      ring_reject_pending();
    } else if (ring_consumed_ < ring_published_) {
      fetch_descriptor(ring_next_addr_);
    }
    return;
  }
  if (queue_.empty()) return;
  const PendingDesc head = queue_.front();
  queue_.pop_front();
  cur_arrival_ = head.arrival;
  if (head.from_memory) {
    fetch_descriptor(head.addr);  // plain INCR reads over the port
  } else {
    begin_transfer(head.desc);
  }
}

void DmaEngine::tick() {
  if (busy_since_ == sim::kNeverCycle && !idle()) busy_since_ = now();
  run_phases();
  if (busy_since_ != sim::kNeverCycle && idle()) {
    stats_.busy_cycles += now() + 1 - busy_since_;
    busy_since_ = sim::kNeverCycle;
  }
}

DmaStats DmaEngine::stats() const {
  DmaStats s = stats_;
  if (busy_since_ != sim::kNeverCycle) s.busy_cycles += now() - busy_since_;
  return s;
}

bool DmaEngine::quiescent() const {
  if (retry_pending_) return backoff_until_ > now();
  if (!transfer_active_ && !fetching_desc_) return idle();
  if (fault_ && drained()) return false;  // the fault resolves
  if (next_read()) return false;
  // A descriptor fetch, and index staging (writes wait on it, as in
  // tick_write), wait on R.
  if (!transfer_active_ || needs_src_idx_ || needs_dst_idx_) return true;
  return narrow(cur_.dst) ? !narrow_write_due() : !aw_due() && !w_due();
}

sim::Cycle DmaEngine::wake_hint() const {
  if (retry_pending_) return backoff_until_;
  sim::Cycle hint = drained() ? sim::kNeverCycle
                              : cfg_.retry.watchdog_deadline(last_progress_);
  if (!port_.r.empty()) hint = std::min(hint, port_.r.item_visible_at(0));
  if (!port_.b.empty()) hint = std::min(hint, port_.b.item_visible_at(0));
  return hint;
}

void DmaEngine::run_phases() {
  // Backoff between failed attempts: replay once the window closes.
  if (retry_pending_) {
    if (now() < backoff_until_) return;
    retry_pending_ = false;
    last_progress_ = now();
    if (fetching_desc_) {
      fetch_descriptor(desc_addr_);
    } else {
      begin_transfer(cur_);
    }
    return;
  }

  tick_start();
  if (!transfer_active_ && !fetching_desc_) return;
  tick_read();
  tick_write();
  tick_timeout();
  if (fault_) {
    if (drained()) resolve_fault();
    return;
  }
  if (fetching_desc_ && desc_raw_.size() == kDescriptorBytes &&
      active_reads_.empty()) {
    take_descriptor();
  }
  if (!transfer_active_) return;

  // Prefetch the next ring slot once the transfer's read side has drained:
  // the fetch then owns the read plan, and its beats cannot interleave
  // with data beats.
  if (ring_active_ && !fetching_desc_ && !has_prefetched_ &&
      ring_next_addr_ != 0 && ring_consumed_ < ring_published_ &&
      read_side_drained()) {
    fetch_descriptor(ring_next_addr_);
  }

  const bool writes_done =
      w_burst_ >= planned_writes_.size() &&
      (!narrow(cur_.dst) || wr_narrow_next_ >= cur_.num_elems);
  if (read_side_drained() && writes_done && outstanding_writes_ == 0) {
    assert(buffer_.empty());
    finish_transfer();
  }
}

}  // namespace axipack::dma
