#include "vproc/vlsu.hpp"

#include <cassert>

#include "axi/burst.hpp"
#include "util/bits.hpp"

namespace axipack::vproc {

namespace {
constexpr unsigned kElemBytes = 4;
constexpr unsigned kMaxOutstandingBursts = 16;  ///< load-unit AR window
constexpr unsigned kStoreMaxOutstandingB = 16;  ///< store-unit AWs awaiting B
constexpr unsigned kIdealLatency = 2;  ///< ideal-memory access latency

// Cycles per element for base-mode per-element *stores* (Ara's store path
// serializes address generation and data beats for narrow scattered
// writes). Calibrated against Fig. 3a/3d: ismt BASE slowdown.
constexpr unsigned kBaseStoreElemInterval = 2;

// Every N-th received beat of a chained load stalls one extra cycle,
// modeling VRF port conflicts between VLSU writeback and the chained
// consumer's operand reads. Calibrated against Fig. 3a: PACK col-wise
// gemv R-util ~87%.
constexpr unsigned kVrfConflictEvery = 8;
}  // namespace

// ---------------------------------------------------------------- LoadUnit

void LoadUnit::accept(const OpRef& op, sim::Cycle now) {
  assert(can_accept());
  Active a;
  a.op = op;
  // First-issue latency stamp: replays after a fault keep this value, so
  // retries never double-count a request's latency. The unit ticked before
  // the sequencer accepted, so it first works on the op next cycle.
  a.accept_cycle = now + 1;
  const VecOp& v = op->op;
  const unsigned bus = ctx_.cfg.bus_bytes;
  if (ctx_.cfg.mode != VlsuMode::ideal) {
    switch (v.kind) {
      case OpKind::vle:
        a.bursts = axi::split_contiguous(v.addr, std::uint64_t{v.vl} * 4, bus,
                                         v.traffic);
        break;
      case OpKind::vlse:
        if (ctx_.cfg.mode == VlsuMode::pack && !ctx_.degraded) {
          a.bursts =
              axi::split_pack_strided(v.addr, v.stride, kElemBytes, v.vl, bus);
        }
        break;  // base mode (or degraded): per-element ARs on the fly
      case OpKind::vlimxei:
        assert(ctx_.cfg.mode == VlsuMode::pack &&
               "vlimxei requires an AXI-Pack system");
        if (!ctx_.degraded) {
          a.bursts = axi::split_pack_indirect(v.addr, v.idx_addr, 32,
                                              kElemBytes, v.vl, bus);
        }
        break;  // degraded: per-element, core resolves the indices itself
      case OpKind::vluxei:
        break;  // per-element in both base and pack modes
      default:
        assert(false && "not a load op");
    }
  }
  q_.push_back(std::move(a));
}

std::uint64_t LoadUnit::elem_addr(const Active& a, std::uint64_t i) const {
  const VecOp& v = a.op->op;
  switch (v.kind) {
    case OpKind::vle:
      return v.addr + 4 * i;
    case OpKind::vlse:
      return v.addr + static_cast<std::uint64_t>(
                          static_cast<std::int64_t>(i) * v.stride);
    case OpKind::vluxei: {
      const std::uint64_t idx = ctx_.vrf.read_u32(v.vidx,
                                                  static_cast<std::uint32_t>(i));
      return v.addr + 4 * idx;
    }
    case OpKind::vlimxei: {
      // Functional address for ideal mode; in pack mode the controller
      // resolves indices, not the VLSU.
      const std::uint64_t idx = ctx_.store->read_u32(v.idx_addr + 4 * i);
      return v.addr + 4 * idx;
    }
    default:
      assert(false);
      return 0;
  }
}

void LoadUnit::write_elem(const Active& a, std::uint64_t i,
                          std::uint32_t value) {
  ctx_.vrf.write_u32(a.op->op.vd, static_cast<std::uint32_t>(i), value);
}

void LoadUnit::tick_issue(sim::Cycle now) {
  // Strictly in op order: find the first op with outstanding requests.
  for (Active& a : q_) {
    const VecOp& v = a.op->op;
    // A faulted op blocks further issue (its own and later ops') until the
    // attempt drains and the retry logic resolves it; backoff holds the
    // re-issue. Strict op order is what keeps R-beat attribution trivial.
    if (a.fault || now < a.backoff_until) return;
    if (!a.bursts.empty()) {
      if (a.next_burst >= a.bursts.size()) continue;
      if (outstanding_bursts_ >= kMaxOutstandingBursts) return;
      if (!port_->ar.try_push(a.bursts[a.next_burst])) return;
      ++a.next_burst;
      ++outstanding_bursts_;
      ++*ctx_.hot.vlsu_ar;
      last_progress_ = now;
      return;
    }
    // Per-element narrow requests (base-mode strided / indexed).
    if (a.elems_requested >= v.vl) continue;
    if (outstanding_bursts_ >= kMaxOutstandingBursts) return;
    if (!port_->ar.can_push()) return;
    if (v.kind == OpKind::vluxei &&
        ctx_.avail_elems(v.vidx) <= a.elems_requested) {
      return;  // index not yet available — preserve request order
    }
    axi::AxiAr ar;
    ar.addr = elem_addr(a, a.elems_requested);
    ar.len = 0;
    ar.size = 2;  // one 32-bit element
    ar.burst = axi::BurstType::incr;
    ar.traffic = v.traffic;
    port_->ar.push(ar);
    ++a.elems_requested;
    ++outstanding_bursts_;
    ++*ctx_.hot.vlsu_ar;
    last_progress_ = now;
    return;
  }
}

void LoadUnit::tick_receive(sim::Cycle now) {
  if (!port_->r.can_pop()) return;
  // Beats of a timed-out, already-abandoned attempt: drain and discard.
  if (stale_bursts_ > 0) {
    const axi::AxiR beat = port_->r.pop();
    last_progress_ = now;
    if (beat.last) {
      --stale_bursts_;
      assert(outstanding_bursts_ > 0);
      --outstanding_bursts_;
    }
    return;
  }
  // The beat belongs to the first op with bursts in flight (single-ID AXI
  // returns R bursts in AR order, and we issue ARs in op order).
  for (Active& a : q_) {
    const VecOp& v = a.op->op;
    if (a.bursts_done >= issued_bursts(a)) continue;
    const bool errbeat = port_->r.front().resp != axi::kRespOkay;
    if (!a.fault && !errbeat) {
      // VRF port conflict: when a chained consumer is live, every N-th
      // writeback loses a cycle (see kVrfConflictEvery).
      if (ctx_.has_reader(v.vd) && !conflict_stall_ &&
          (a.beats_rx + 1) % kVrfConflictEvery == 0) {
        conflict_stall_ = true;
        return;
      }
      conflict_stall_ = false;
    }
    const axi::AxiR beat = port_->r.pop();
    last_progress_ = now;
    if (errbeat) {
      a.fault = true;
      if (beat.resp == axi::kRespDecErr) a.fatal = true;
    }
    if (a.fault) {
      // Discard the payload: an errored beat (and every beat after it —
      // element positions depend on elems_rx, which stays frozen until the
      // replay) must never reach the VRF. Chained consumers stall on the
      // frozen prod_elems instead of computing on corrupt data.
      ++a.beats_rx;
      ++*ctx_.hot.vlsu_beats_rx;
      if (beat.last) {
        ++a.bursts_done;
        assert(outstanding_bursts_ > 0);
        --outstanding_bursts_;
      }
      return;
    }
    std::uint64_t cnt = 0;
    unsigned lane = 0;
    switch (v.kind) {
      case OpKind::vle: {
        const std::uint64_t cur = v.addr + 4 * a.elems_rx;
        lane = static_cast<unsigned>(cur & (ctx_.cfg.bus_bytes - 1));
        cnt = std::min<std::uint64_t>((ctx_.cfg.bus_bytes - lane) / 4,
                                      v.vl - a.elems_rx);
        break;
      }
      case OpKind::vlse:
      case OpKind::vlimxei:
        if (!a.bursts.empty()) {
          lane = 0;
          cnt = beat.useful_bytes / 4;  // packed payload
        } else {
          lane = static_cast<unsigned>(elem_addr(a, a.elems_rx) &
                                       (ctx_.cfg.bus_bytes - 1));
          cnt = 1;
        }
        break;
      case OpKind::vluxei:
        lane = static_cast<unsigned>(elem_addr(a, a.elems_rx) &
                                     (ctx_.cfg.bus_bytes - 1));
        cnt = 1;
        break;
      default:
        assert(false);
    }
    assert(cnt >= 1);
    for (std::uint64_t e = 0; e < cnt; ++e) {
      std::uint32_t value;
      axi::extract_bytes(beat.data, lane + static_cast<unsigned>(4 * e),
                         reinterpret_cast<std::uint8_t*>(&value), 4);
      write_elem(a, a.elems_rx + e, value);
    }
    a.elems_rx += cnt;
    ++a.beats_rx;
    a.op->prod_elems = a.elems_rx;
    ++*ctx_.hot.vlsu_beats_rx;
    *ctx_.hot.vlsu_bytes_rx += cnt * 4;
    if (beat.last) {
      ++a.bursts_done;
      assert(outstanding_bursts_ > 0);
      --outstanding_bursts_;
    }
    return;
  }
  assert(false && "R beat with no expecting load op");
}

void LoadUnit::tick_retry(sim::Cycle now) {
  // Resolve faulted ops only once the whole unit has drained: beats still
  // in flight (of this op or any other) would otherwise be misattributed
  // after the replayed ARs break strict op order.
  if (outstanding_bursts_ != 0 || stale_bursts_ != 0) return;
  const sim::RetryConfig& rc = ctx_.cfg.retry;
  for (Active& a : q_) {
    if (!a.fault) continue;
    const VecOp& v = a.op->op;
    const bool pack_op = !a.bursts.empty() && a.bursts[0].pack.has_value();
    ++a.attempts;
    if (pack_op) ctx_.note_pack_fault();
    if (rc.gives_up(a.attempts, a.fatal)) {
      // Permanent error or budget exhausted: force-complete the op so the
      // program can terminate; the run is reported as failed.
      ++ctx_.retry_stats.failed_ops;
      a.fault = false;
      a.elems_rx = v.vl;
      a.elems_requested = v.vl;
      a.next_burst = a.bursts.size();
      a.bursts_done = issued_bursts(a);
      a.op->prod_elems = v.vl;
      continue;
    }
    ++ctx_.retry_stats.retries;
    a.fault = false;
    a.next_burst = 0;
    a.elems_requested = 0;
    a.elems_rx = 0;
    a.beats_rx = 0;
    a.bursts_done = 0;
    a.op->prod_elems = 0;
    if (ctx_.degraded && pack_op &&
        (v.kind == OpKind::vlse || v.kind == OpKind::vlimxei)) {
      a.bursts.clear();  // breaker tripped: replay on the base path
    }
    a.backoff_until = now + rc.backoff_after(a.attempts);
  }
}

void LoadUnit::tick_timeout(sim::Cycle now) {
  if (outstanding_bursts_ == 0 ||
      !ctx_.cfg.retry.watchdog_expired(now, last_progress_)) {
    return;
  }
  // No beat and no issue for a full timeout window with bursts in flight:
  // abandon every in-flight attempt (their beats drain as stale) and let
  // the retry logic replay the ops.
  ++ctx_.retry_stats.timeouts;
  for (Active& a : q_) {
    const std::uint64_t issued = issued_bursts(a);
    if (a.bursts_done < issued) {
      stale_bursts_ += issued - a.bursts_done;
      a.bursts_done = issued;
      a.fault = true;
    }
  }
  last_progress_ = now;
}

void LoadUnit::tick_ideal(sim::Cycle now) {
  if (q_.empty()) return;
  Active& a = q_.front();
  const VecOp& v = a.op->op;
  if (!a.started) {
    a.started = true;
    a.start_cycle = now;
  }
  if (now < a.start_cycle + kIdealLatency) return;
  std::uint64_t limit = v.vl;
  if (v.kind == OpKind::vluxei) {
    limit = std::min<std::uint64_t>(limit, ctx_.avail_elems(v.vidx));
  }
  std::uint64_t n = std::min<std::uint64_t>(
      {static_cast<std::uint64_t>(ctx_.ideal_budget), limit - a.elems_rx});
  for (std::uint64_t e = 0; e < n; ++e) {
    const std::uint32_t value = ctx_.store->read_u32(elem_addr(a, a.elems_rx));
    write_elem(a, a.elems_rx, value);
    ++a.elems_rx;
  }
  ctx_.ideal_budget -= static_cast<unsigned>(n);
  ctx_.ideal_busy_words += n;
  a.op->prod_elems = a.elems_rx;
  if (v.traffic == axi::Traffic::index) {
    *ctx_.hot.ideal_index_bytes += n * 4;
  } else {
    *ctx_.hot.ideal_read_bytes += n * 4;
  }
}

void LoadUnit::tick(sim::Cycle now) {
  if (ctx_.cfg.mode == VlsuMode::ideal) {
    tick_ideal(now);
  } else {
    tick_issue(now);
    tick_receive(now);
    tick_retry(now);
    tick_timeout(now);
  }
  // Retire the front op once fully received.
  while (!q_.empty() && q_.front().elems_rx >= q_.front().op->op.vl) {
    ctx_.mem_latency.record(now - q_.front().accept_cycle);
    ctx_.retire(q_.front().op);
    q_.pop_front();
  }
}

// --------------------------------------------------------------- StoreUnit

void StoreUnit::accept(const OpRef& op, sim::Cycle now) {
  assert(can_accept());
  Active a;
  a.op = op;
  a.accept_cycle = now + 1;  // as LoadUnit::accept
  const VecOp& v = op->op;
  const unsigned bus = ctx_.cfg.bus_bytes;
  if (ctx_.cfg.mode != VlsuMode::ideal) {
    switch (v.kind) {
      case OpKind::vse:
        a.bursts = axi::split_contiguous(v.addr, std::uint64_t{v.vl} * 4, bus);
        break;
      case OpKind::vsse:
        if (ctx_.cfg.mode == VlsuMode::pack && !ctx_.degraded) {
          a.bursts =
              axi::split_pack_strided(v.addr, v.stride, kElemBytes, v.vl, bus);
        }
        break;
      case OpKind::vsimxei:
        assert(ctx_.cfg.mode == VlsuMode::pack);
        if (!ctx_.degraded) {
          a.bursts = axi::split_pack_indirect(v.addr, v.idx_addr, 32,
                                              kElemBytes, v.vl, bus);
        }
        break;  // degraded: per-element scatter, core resolves the indices
      case OpKind::vsuxei:
        break;
      default:
        assert(false && "not a store op");
    }
    // Publish this op's W-beat obligation for load-after-store ordering.
    if (!a.bursts.empty()) {
      for (const axi::AxiAw& aw : a.bursts) {
        ctx_.store_w_beats_left += aw.beats();
      }
    } else {
      ctx_.store_w_beats_left += v.vl;  // one narrow W beat per element
    }
  }
  q_.push_back(std::move(a));
}

std::uint64_t StoreUnit::elem_addr(const Active& a, std::uint64_t i) const {
  const VecOp& v = a.op->op;
  switch (v.kind) {
    case OpKind::vse:
      return v.addr + 4 * i;
    case OpKind::vsse:
      return v.addr + static_cast<std::uint64_t>(
                          static_cast<std::int64_t>(i) * v.stride);
    case OpKind::vsuxei: {
      const std::uint64_t idx = ctx_.vrf.read_u32(v.vidx,
                                                  static_cast<std::uint32_t>(i));
      return v.addr + 4 * idx;
    }
    case OpKind::vsimxei: {
      const std::uint64_t idx = ctx_.store->read_u32(v.idx_addr + 4 * i);
      return v.addr + 4 * idx;
    }
    default:
      assert(false);
      return 0;
  }
}

std::uint32_t StoreUnit::read_elem(const Active& a, std::uint64_t i) const {
  return ctx_.vrf.read_u32(a.op->op.vs2, static_cast<std::uint32_t>(i));
}

std::uint64_t StoreUnit::w_total(const Active& a) {
  if (a.bursts.empty()) return a.op->op.vl;
  std::uint64_t beats = 0;
  for (const axi::AxiAw& aw : a.bursts) beats += aw.beats();
  return beats;
}

std::uint64_t StoreUnit::w_sent(const Active& a) {
  if (a.bursts.empty()) return a.elems_tx;
  std::uint64_t beats = a.w_beat_in_burst;
  for (std::size_t i = 0; i < a.w_burst; ++i) beats += a.bursts[i].beats();
  return beats;
}

void StoreUnit::tick_issue_aw(sim::Cycle now) {
  for (Active& a : q_) {
    const VecOp& v = a.op->op;
    // A faulted op blocks further AW issue until its attempt drains (W data
    // for already-issued AWs keeps flowing — the slave is owed those beats).
    if (a.fault || now < a.backoff_until) return;
    if (!a.bursts.empty()) {
      if (a.next_burst >= a.bursts.size()) continue;
      if (outstanding_b_ >= kStoreMaxOutstandingB) return;
      if (!port_->aw.try_push(a.bursts[a.next_burst])) return;
      ++a.next_burst;
      ++outstanding_b_;
      ++*ctx_.hot.vlsu_aw;
      last_progress_ = now;
      return;
    }
    // Per-element narrow writes (base-mode strided / indexed stores), paced
    // at kBaseStoreElemInterval cycles per element.
    if (a.next_burst >= v.vl) continue;
    if (elem_issue_at_ > elem_due_at_ + 1) {
      elem_issue_at_ += now - elem_due_at_ - 1;
    }
    elem_due_at_ = now;
    if (now < elem_issue_at_) return;
    if (outstanding_b_ >= kStoreMaxOutstandingB) return;
    if (!port_->aw.can_push()) return;
    if (v.kind == OpKind::vsuxei &&
        ctx_.avail_elems(v.vidx) <= a.next_burst) {
      return;
    }
    elem_issue_at_ = now + kBaseStoreElemInterval;
    axi::AxiAw aw;
    aw.addr = elem_addr(a, a.next_burst);
    aw.len = 0;
    aw.size = 2;
    aw.burst = axi::BurstType::incr;
    port_->aw.push(aw);
    ++a.next_burst;
    ++outstanding_b_;
    ++*ctx_.hot.vlsu_aw;
    last_progress_ = now;
    return;
  }
}

void StoreUnit::tick_issue_w() {
  // W data follows AW order; find the first op with unsent W beats.
  for (Active& a : q_) {
    const VecOp& v = a.op->op;
    if (a.all_w_sent) continue;
    if (!port_->w.can_push()) return;
    axi::AxiW beat;
    if (!a.bursts.empty()) {
      if (a.w_burst >= a.next_burst) return;  // AW not yet issued
      const axi::AxiAw& aw = a.bursts[a.w_burst];
      std::uint64_t cnt;
      unsigned lane;
      if (aw.pack.has_value()) {
        lane = 0;
        const std::uint64_t epb = ctx_.cfg.bus_bytes / 4;
        const std::uint64_t elems_before =
            a.w_beat_in_burst * epb;  // within this burst
        cnt = std::min<std::uint64_t>(epb,
                                      aw.pack->num_elems - elems_before);
      } else {
        const std::uint64_t cur = v.addr + 4 * a.elems_tx;
        lane = static_cast<unsigned>(cur & (ctx_.cfg.bus_bytes - 1));
        cnt = std::min<std::uint64_t>((ctx_.cfg.bus_bytes - lane) / 4,
                                      v.vl - a.elems_tx);
      }
      if (ctx_.avail_elems(v.vs2) < a.elems_tx + cnt) return;  // chain wait
      for (std::uint64_t e = 0; e < cnt; ++e) {
        const std::uint32_t value = read_elem(a, a.elems_tx + e);
        axi::place_bytes(beat.data, lane + static_cast<unsigned>(4 * e),
                         reinterpret_cast<const std::uint8_t*>(&value), 4);
      }
      beat.strb = axi::strb_mask(lane, static_cast<unsigned>(4 * cnt));
      beat.useful_bytes = static_cast<std::uint16_t>(4 * cnt);
      a.elems_tx += cnt;
      ++a.w_beat_in_burst;
      beat.last = a.w_beat_in_burst == aw.beats();
      if (beat.last) {
        ++a.w_burst;
        a.w_beat_in_burst = 0;
        if (a.w_burst == a.bursts.size()) {
          a.all_w_sent = true;
          --ctx_.stores_pending_w;
        }
      }
    } else {
      // Per-element store: one narrow W beat per AW.
      if (a.elems_tx >= a.next_burst) return;  // wait for matching AW
      if (ctx_.avail_elems(v.vs2) <= a.elems_tx) return;
      const std::uint64_t cur = elem_addr(a, a.elems_tx);
      const unsigned lane = static_cast<unsigned>(cur & (ctx_.cfg.bus_bytes - 1));
      const std::uint32_t value = read_elem(a, a.elems_tx);
      axi::place_bytes(beat.data, lane,
                       reinterpret_cast<const std::uint8_t*>(&value), 4);
      beat.strb = axi::strb_mask(lane, 4);
      beat.useful_bytes = 4;
      beat.last = true;
      ++a.elems_tx;
      if (a.elems_tx == v.vl) {
        a.all_w_sent = true;
        --ctx_.stores_pending_w;
      }
    }
    a.op->prod_elems = a.elems_tx;  // stores "produce" consumed elements
    port_->w.push(beat);
    assert(ctx_.store_w_beats_left > 0);
    --ctx_.store_w_beats_left;
    ++*ctx_.hot.vlsu_beats_tx;
    *ctx_.hot.vlsu_bytes_tx += beat.useful_bytes;
    return;
  }
}

void StoreUnit::tick_receive_b(sim::Cycle now) {
  if (!port_->b.can_pop()) return;
  const axi::AxiB b = port_->b.pop();
  assert(outstanding_b_ > 0);
  --outstanding_b_;
  last_progress_ = now;
  if (stale_b_ > 0) {
    --stale_b_;  // response of a timed-out, already-abandoned attempt
    return;
  }
  for (Active& a : q_) {
    const std::uint64_t expect =
        a.bursts.empty() ? a.op->op.vl : a.bursts.size();
    if (a.b_received < expect) {
      ++a.b_received;
      if (b.resp != axi::kRespOkay) {
        a.fault = true;
        if (b.resp == axi::kRespDecErr) a.fatal = true;
      }
      return;
    }
  }
  assert(false && "B with no expecting store op");
}

void StoreUnit::tick_retry(sim::Cycle now) {
  // Resolve faulted stores only once every B (including stale ones) has
  // drained, so replayed AWs cannot interleave with in-flight responses.
  if (outstanding_b_ != 0 || stale_b_ != 0) return;
  const sim::RetryConfig& rc = ctx_.cfg.retry;
  for (Active& a : q_) {
    if (!a.fault) continue;
    const VecOp& v = a.op->op;
    const bool pack_op = !a.bursts.empty() && a.bursts[0].pack.has_value();
    // With no Bs outstanding, every issued AW's W data has been sent and
    // acknowledged — the attempt is fully drained.
    ++a.attempts;
    if (pack_op) ctx_.note_pack_fault();
    if (rc.gives_up(a.attempts, a.fatal)) {
      ++ctx_.retry_stats.failed_ops;
      a.fault = false;
      // Cancel the unsent W obligation and force-complete.
      const std::uint64_t owed = w_total(a) - w_sent(a);
      assert(ctx_.store_w_beats_left >= owed);
      ctx_.store_w_beats_left -= owed;
      if (!a.all_w_sent) {
        a.all_w_sent = true;
        --ctx_.stores_pending_w;
      }
      a.next_burst = a.bursts.empty() ? v.vl : a.bursts.size();
      a.b_received = static_cast<unsigned>(
          a.bursts.empty() ? v.vl : a.bursts.size());
      a.elems_tx = v.vl;
      a.op->prod_elems = v.vl;
      continue;
    }
    ++ctx_.retry_stats.retries;
    a.fault = false;
    // Stores are idempotent: re-add the full W obligation and replay every
    // AW/W of the op (a degraded replan switches to the per-element path).
    const std::uint64_t owed_old = w_total(a) - w_sent(a);
    assert(ctx_.store_w_beats_left >= owed_old);
    ctx_.store_w_beats_left -= owed_old;
    if (a.all_w_sent) {
      a.all_w_sent = false;
      ++ctx_.stores_pending_w;
    }
    if (ctx_.degraded && pack_op &&
        (v.kind == OpKind::vsse || v.kind == OpKind::vsimxei)) {
      a.bursts.clear();
    }
    a.next_burst = 0;
    a.w_burst = 0;
    a.w_beat_in_burst = 0;
    a.elems_tx = 0;
    a.b_received = 0;
    a.op->prod_elems = 0;
    ctx_.store_w_beats_left += w_total(a);
    a.backoff_until = now + rc.backoff_after(a.attempts);
  }
}

void StoreUnit::tick_timeout(sim::Cycle now) {
  if (outstanding_b_ == 0 ||
      !ctx_.cfg.retry.watchdog_expired(now, last_progress_)) {
    return;
  }
  ++ctx_.retry_stats.timeouts;
  for (Active& a : q_) {
    const std::uint64_t issued = a.next_burst;
    const std::uint64_t w_done =
        a.bursts.empty() ? a.elems_tx : a.w_burst;
    if (a.b_received < issued && w_done >= issued) {
      // Waiting only on B responses: abandon them (drained as stale) and
      // retry. An attempt still owing W data cannot be aborted safely —
      // the slave is owed those beats — so it just keeps the fault flag off
      // and waits for W-channel progress.
      stale_b_ += issued - a.b_received;
      a.b_received = static_cast<unsigned>(issued);
      a.fault = true;
    }
  }
  last_progress_ = now;
}

void StoreUnit::tick_ideal(sim::Cycle now) {
  if (q_.empty()) return;
  Active& a = q_.front();
  const VecOp& v = a.op->op;
  if (!a.started) {
    a.started = true;
    a.start_cycle = now;
  }
  if (now < a.start_cycle + kIdealLatency) return;
  std::uint64_t limit = std::min<std::uint64_t>(v.vl,
                                                ctx_.avail_elems(v.vs2));
  if (v.kind == OpKind::vsuxei) {
    limit = std::min<std::uint64_t>(limit, ctx_.avail_elems(v.vidx));
  }
  const std::uint64_t n = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(ctx_.ideal_budget),
      limit > a.elems_tx ? limit - a.elems_tx : 0);
  for (std::uint64_t e = 0; e < n; ++e) {
    ctx_.store->write_u32(elem_addr(a, a.elems_tx), read_elem(a, a.elems_tx));
    ++a.elems_tx;
  }
  ctx_.ideal_budget -= static_cast<unsigned>(n);
  ctx_.ideal_busy_words += n;
  *ctx_.hot.ideal_write_bytes += n * 4;
  if (a.elems_tx == v.vl && a.b_received == 0) {
    a.b_received = 1;  // mark complete
    --ctx_.stores_pending_w;
  }
}

void StoreUnit::tick(sim::Cycle now) {
  if (ctx_.cfg.mode == VlsuMode::ideal) {
    tick_ideal(now);
    while (!q_.empty() && q_.front().elems_tx >= q_.front().op->op.vl &&
           q_.front().b_received > 0) {
      ctx_.mem_latency.record(now - q_.front().accept_cycle);
      ctx_.retire(q_.front().op);
      q_.pop_front();
    }
  } else {
    tick_receive_b(now);
    tick_issue_aw(now);
    tick_issue_w();
    tick_retry(now);
    tick_timeout(now);
    while (!q_.empty()) {
      Active& a = q_.front();
      const std::uint64_t expect =
          a.bursts.empty() ? a.op->op.vl : a.bursts.size();
      // A faulted op may have its full B count (the error response is a B
      // too) — it must stay queued until tick_retry resolves it.
      if (a.fault || !a.all_w_sent || a.b_received < expect) break;
      ctx_.mem_latency.record(now - a.accept_cycle);
      ctx_.retire(a.op);
      q_.pop_front();
    }
  }
}

}  // namespace axipack::vproc
