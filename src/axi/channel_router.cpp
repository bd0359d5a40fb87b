#include "axi/channel_router.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "axi/burst.hpp"

namespace axipack::axi {

namespace {

unsigned log2_exact(std::uint64_t v) {
  unsigned s = 0;
  while ((std::uint64_t{1} << s) < v) ++s;
  return s;
}

}  // namespace

ChannelRouter::ChannelRouter(sim::Kernel& k, AxiPort& upstream,
                             const ChannelRouteConfig& cfg,
                             const std::string& name)
    : up_(upstream), cfg_(cfg) {
  assert(cfg_.channels >= 2 && cfg_.channels <= 64);
  assert((cfg_.channels & (cfg_.channels - 1)) == 0);
  assert(cfg_.granule > 0 && (cfg_.granule & (cfg_.granule - 1)) == 0);
  log2c_ = log2_exact(cfg_.channels);
  gran_log2_ = log2_exact(cfg_.granule);
  down_.reserve(cfg_.channels);
  for (unsigned c = 0; c < cfg_.channels; ++c) {
    down_.push_back(
        std::make_unique<AxiPort>(k, 2, name + ".ch" + std::to_string(c)));
  }
  r_expect_.resize(cfg_.channels);
  b_expect_.resize(cfg_.channels);
  k.add(*this);
  k.subscribe(*this, up_.ar);
  k.subscribe(*this, up_.aw);
  k.subscribe(*this, up_.w);
  for (auto& p : down_) {
    k.subscribe(*this, p->r);
    k.subscribe(*this, p->b);
  }
}

std::vector<ChannelRouter::Sub> ChannelRouter::split(const AxiAx& ax) const {
  std::vector<Sub> subs;
  if (ax.pack.has_value() || ax.burst != BurstType::incr || ax.len == 0) {
    // Whole-routed (see file header): pack bursts anchor on their stream
    // base, everything else on the request address.
    Sub s;
    s.ax = ax;
    const std::uint64_t anchor =
        (ax.pack.has_value() && ax.pack->indir) ? ax.pack->index_base
                                                : ax.addr;
    s.channel = static_cast<std::uint8_t>(channel_of(anchor));
    subs.push_back(std::move(s));
    return subs;
  }
  // Multi-beat INCR: group consecutive beats by owning channel. The channel
  // can only change at an interleave-granule boundary, so a full-width
  // sequential stream yields granule-sized sub-bursts.
  unsigned first = 0;
  unsigned ch = channel_of(beat_addr(ax, 0));
  const auto emit = [&](unsigned begin, unsigned end, unsigned channel) {
    Sub s;
    s.ax = ax;
    s.ax.addr = beat_addr(ax, begin);
    s.ax.len = static_cast<std::uint16_t>(end - begin - 1);
    s.channel = static_cast<std::uint8_t>(channel);
    subs.push_back(std::move(s));
  };
  for (unsigned i = 1; i < ax.beats(); ++i) {
    const unsigned c = channel_of(beat_addr(ax, i));
    if (c == ch) continue;
    emit(first, i, ch);
    first = i;
    ch = c;
  }
  emit(first, ax.beats(), ch);
  return subs;
}

void ChannelRouter::tick() {
  // R before AR: a poison raised while forwarding is observed by the AR
  // emitter in the same cycle, so no sub-burst of a dead transaction is
  // emitted after its error already went upstream.
  tick_r();
  tick_b();
  tick_ar();
  tick_aw();
  tick_w();
}

ChannelRouter::ReadTxn* ChannelRouter::find_read(std::uint64_t seq) {
  for (ReadTxn& t : r_plan_) {
    if (t.seq == seq) return &t;
  }
  return nullptr;
}

ChannelRouter::WriteTxn* ChannelRouter::find_write(std::uint64_t seq) {
  for (WriteTxn& t : b_plan_) {
    if (t.seq == seq) return &t;
  }
  return nullptr;
}

void ChannelRouter::drain_r() {
  // Always pop every visible beat (the deadlock break, see file header):
  // per channel, this master's sub-bursts return in emission order, so
  // the expect queue names the owning sub of every arriving beat.
  for (unsigned c = 0; c < cfg_.channels; ++c) {
    sim::Fifo<AxiR>& src = down_[c]->r;
    while (src.can_pop()) {
      assert(!r_expect_[c].empty() && "R beat with no expecting sub-burst");
      const RSlot slot = r_expect_[c].front();
      ReadTxn* txn = find_read(slot.seq);
      assert(txn != nullptr);
      Sub& sub = txn->subs[slot.sub];
      const AxiR beat = src.pop();
      assert(beat.id == txn->id &&
             "single-ID masters only: R reassembly is AR-ordered");
      sub.buf.push_back(beat);
      if (beat.last) {
        sub.complete = true;
        r_expect_[c].pop_front();
      }
    }
  }
}

void ChannelRouter::reap_poisoned() {
  while (!r_plan_.empty()) {
    ReadTxn& txn = r_plan_.front();
    if (!txn.poisoned) return;
    // The error already terminated the burst upstream: discard whatever
    // the remaining subs returned, skip cancelled (never-emitted) ones,
    // and wait for emitted stragglers still owing beats.
    while (txn.cur < txn.subs.size()) {
      Sub& s = txn.subs[txn.cur];
      if (!s.emitted) {
        ++txn.cur;
        continue;
      }
      s.buf.clear();
      if (!s.complete) break;
      ++txn.cur;
    }
    if (txn.cur < txn.subs.size()) return;
    // Fully drained. Leave it for the emitter to retire if its upstream
    // AR is still being split (single-entry plan).
    if (ar_splitting_ && r_plan_.size() == 1) return;
    r_plan_.pop_front();
  }
}

void ChannelRouter::tick_r() {
  drain_r();
  reap_poisoned();
  if (r_plan_.empty() || !up_.r.can_push()) return;
  ReadTxn& txn = r_plan_.front();
  if (txn.poisoned || txn.cur >= txn.subs.size()) return;
  Sub& sub = txn.subs[txn.cur];
  if (sub.buf.empty()) return;
  AxiR beat = sub.buf.front();
  sub.buf.pop_front();
  ++txn.beats_seen;
  const bool final_sub = txn.cur + 1 == txn.subs.size();
  if (!beat.last) {
    up_.r.push(beat);
    return;
  }
  const bool truncated = txn.beats_seen < sub.ax.beats();
  if (final_sub || truncated) {
    // Either the true end of the original burst or an error-terminated
    // sub-burst: in both shapes upstream sees the burst end here (the
    // truncated case reproduces exactly what a truncating link does).
    up_.r.push(beat);
    if (truncated && !final_sub) {
      txn.poisoned = true;
      ++txn.cur;
      txn.beats_seen = 0;
      reap_poisoned();  // stragglers may already be buffered
      return;
    }
    r_plan_.pop_front();
  } else {
    // Seam between sub-bursts inside the original burst: hide it.
    beat.last = false;
    up_.r.push(beat);
    ++txn.cur;
    txn.beats_seen = 0;
  }
}

void ChannelRouter::drain_b() {
  for (unsigned c = 0; c < cfg_.channels; ++c) {
    sim::Fifo<AxiB>& src = down_[c]->b;
    while (src.can_pop()) {
      assert(!b_expect_[c].empty() && "B with no expecting write txn");
      WriteTxn* txn = find_write(b_expect_[c].front());
      b_expect_[c].pop_front();
      const AxiB b = src.pop();
      assert(txn != nullptr && b.id == txn->id);
      txn->resp = worst_resp(txn->resp, b.resp);
      ++txn->received;
    }
  }
}

void ChannelRouter::tick_b() {
  drain_b();
  if (b_plan_.empty() || !up_.b.can_push()) return;
  WriteTxn& txn = b_plan_.front();
  if (txn.received < txn.sub_channels.size()) return;
  up_.b.push(AxiB{txn.id, txn.resp});
  b_plan_.pop_front();
}

bool ChannelRouter::quiescent() const {
  // Buffered responses act without a new push (the master freeing the
  // upstream R/B fifo is a pop, not a wake event): stay awake until the
  // reorder buffers are flushed. Request-side work is input-anchored.
  for (const ReadTxn& t : r_plan_) {
    for (const Sub& s : t.subs) {
      if (!s.buf.empty()) return false;
    }
  }
  for (const WriteTxn& t : b_plan_) {
    if (t.received == t.sub_channels.size()) return false;
  }
  return true;
}

void ChannelRouter::tick_ar() {
  if (!ar_splitting_) {
    if (!up_.ar.can_pop()) return;
    ReadTxn txn;
    txn.subs = split(up_.ar.front());
    txn.seq = next_seq_++;
    txn.id = up_.ar.front().id;
    // The plan entry exists from split time so tick_r can forward early
    // subs' beats while later subs are still blocked on full AR fifos.
    r_plan_.push_back(std::move(txn));
    ar_splitting_ = true;
    ar_next_sub_ = 0;
  }
  ReadTxn& txn = r_plan_.back();
  if (txn.poisoned) {
    // The transaction already error-terminated upstream; cancel the
    // un-emitted remainder.
    up_.ar.pop();
    ar_splitting_ = false;
    return;
  }
  while (ar_next_sub_ < txn.subs.size()) {
    Sub& s = txn.subs[ar_next_sub_];
    if (!down_[s.channel]->ar.try_push(s.ax)) break;
    s.emitted = true;
    r_expect_[s.channel].push_back(RSlot{txn.seq, ar_next_sub_});
    ++ar_next_sub_;
  }
  if (ar_next_sub_ == txn.subs.size()) {
    up_.ar.pop();
    ar_splitting_ = false;
  }
}

void ChannelRouter::tick_aw() {
  if (!aw_splitting_) {
    if (!up_.aw.can_pop()) return;
    aw_subs_ = split(up_.aw.front());
    WriteTxn txn;
    txn.seq = next_seq_++;
    txn.id = up_.aw.front().id;
    for (const Sub& s : aw_subs_) txn.sub_channels.push_back(s.channel);
    b_plan_.push_back(std::move(txn));
    aw_splitting_ = true;
    aw_next_sub_ = 0;
  }
  while (aw_next_sub_ < aw_subs_.size()) {
    const Sub& s = aw_subs_[aw_next_sub_];
    if (!down_[s.channel]->aw.try_push(s.ax)) break;
    // W beats follow sub-AW acceptance order, one route entry per sub.
    w_route_.push_back(WRoute{s.channel, s.ax.beats()});
    b_expect_[s.channel].push_back(b_plan_.back().seq);
    ++aw_next_sub_;
  }
  if (aw_next_sub_ == aw_subs_.size()) {
    up_.aw.pop();
    aw_splitting_ = false;
  }
}

void ChannelRouter::tick_w() {
  if (w_route_.empty()) return;
  WRoute& rt = w_route_.front();
  sim::Fifo<AxiW>& dst = down_[rt.channel]->w;
  if (!dst.can_push() || !up_.w.can_pop()) return;
  AxiW beat = up_.w.pop();
  beat.last = rt.beats_left == 1;  // per-sub last; the seam is re-cut here
  dst.push(beat);
  if (--rt.beats_left == 0) w_route_.pop_front();
}

}  // namespace axipack::axi
