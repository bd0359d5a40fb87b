#include "traffic/driver.hpp"

#include <algorithm>
#include <cassert>

#include "dma/descriptor.hpp"

namespace axipack::traffic {

namespace {

constexpr std::uint64_t kAlign = 64;

// The stream's fixed shape. The engine prefetches the next ring slot
// (double buffering).
constexpr unsigned kRingSlots = 64;     ///< descriptor-ring size
constexpr unsigned kElemsPerReq = 64;   ///< words gathered per request
constexpr unsigned kPoolReqs = 256;     ///< distinct index/dst groups
constexpr std::uint64_t kDataWords = 1ull << 16;  ///< gather footprint

constexpr std::uint64_t round_up(std::uint64_t n) {
  return (n + kAlign - 1) / kAlign * kAlign;
}

/// splitmix64, for deterministic pool/data contents.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

constexpr std::uint64_t kRingBytes =
    round_up(std::uint64_t{kRingSlots} * dma::kDescriptorBytes);
constexpr std::uint64_t kPoolBytes =
    round_up(std::uint64_t{kPoolReqs} * kElemsPerReq * 4);

}  // namespace

std::uint64_t footprint_bytes() {
  return kRingBytes + 2 * kPoolBytes + round_up(kDataWords * 4);
}

OpenLoopDriver::OpenLoopDriver(sim::Kernel& k, dma::DmaEngine& engine,
                               mem::BackingStore& store,
                               const TrafficConfig& cfg,
                               std::uint64_t region_base)
    : engine_(engine),
      store_(store),
      cfg_(cfg),
      arrivals_(cfg.arrival),
      slot_arrival_(kRingSlots, 0) {
  assert(region_base % kAlign == 0);
  assert(store_.contains(region_base, footprint_bytes()));

  ring_base_ = region_base;
  idx_base_ = ring_base_ + kRingBytes;
  dst_base_ = idx_base_ + kPoolBytes;
  data_base_ = dst_base_ + kPoolBytes;

  // Deterministic data region and index pool. Indices are uniform over the
  // data region; row locality is whatever the coalescer can find, exactly
  // like the closed-loop indirect kernels.
  for (std::uint64_t w = 0; w < kDataWords; ++w) {
    store_.write_u32(data_base_ + w * 4,
                     static_cast<std::uint32_t>(mix(w ^ 0xDA7Aull)));
  }
  const std::uint64_t total_idx =
      std::uint64_t{kPoolReqs} * kElemsPerReq;
  for (std::uint64_t i = 0; i < total_idx; ++i) {
    const std::uint32_t idx = static_cast<std::uint32_t>(
        mix(cfg_.arrival.seed ^ (i * 0xc2b2ae3d27d4eb4full)) %
        kDataWords);
    store_.write_u32(idx_base_ + i * 4, idx);
  }

  engine_.set_completion(
      [this](std::uint64_t ordinal, bool ok) { on_complete(ordinal, ok); });

  k.add(*this);
}

sim::Cycle OpenLoopDriver::arrival_at(std::uint64_t ordinal) const {
  return start_ + arrivals_.arrival_cycle(ordinal);
}

bool OpenLoopDriver::generating(sim::Cycle /*now*/) const {
  return armed_ && arrivals_.enabled() &&
         arrival_at(next_ordinal_) < stop_;
}

void OpenLoopDriver::arm(sim::Cycle stop_at) {
  assert(!armed_ && "driver armed twice");
  start_ = now();
  warmup_end_ = start_ + kWarmupCycles;
  stop_ = stop_at;
  assert(stop_ > start_);
  stats_.window_cycles = stop_ > warmup_end_ ? stop_ - warmup_end_ : 0;
  armed_ = true;
  engine_.start_ring(ring_base_);
  wake_self();
}

bool OpenLoopDriver::verify(std::string& error) const {
  const std::uint64_t groups =
      std::min<std::uint64_t>(next_ordinal_, kPoolReqs);
  for (std::uint64_t g = 0; g < groups; ++g) {
    for (std::uint64_t e = 0; e < kElemsPerReq; ++e) {
      const std::uint64_t off = (g * kElemsPerReq + e) * 4;
      const std::uint32_t idx = store_.read_u32(idx_base_ + off);
      const std::uint32_t want = store_.read_u32(data_base_ + idx * 4ull);
      const std::uint32_t got = store_.read_u32(dst_base_ + off);
      if (got != want) {
        error = "open-loop gather mismatch: group " + std::to_string(g) +
                " elem " + std::to_string(e) + " got " + std::to_string(got) +
                " want " + std::to_string(want);
        return false;
      }
    }
  }
  return true;
}

bool OpenLoopDriver::drained() const {
  // Backlog empty implies published_ == next_ordinal_, so all generated
  // requests completed iff the completion count caught up.
  return !armed_ ||
         (backlog_arrival_.empty() && completed_ == next_ordinal_);
}

void OpenLoopDriver::clear_measurements() {
  stats_ = Stats{};
  latency_.clear();
}

double OpenLoopDriver::offered_rate() const {
  if (stats_.window_cycles == 0) return 0.0;
  return static_cast<double>(stats_.window_arrivals) * 100000.0 /
         static_cast<double>(stats_.window_cycles);
}

double OpenLoopDriver::achieved_rate() const {
  if (stats_.window_cycles == 0) return 0.0;
  return static_cast<double>(stats_.window_completions) * 100000.0 /
         static_cast<double>(stats_.window_cycles);
}

void OpenLoopDriver::write_slot(std::uint64_t ordinal) {
  const std::uint64_t slot = ordinal % kRingSlots;
  const std::uint64_t group = ordinal % kPoolReqs;
  const std::uint64_t req_bytes =
      std::uint64_t{kElemsPerReq} * 4;
  dma::Descriptor d;
  d.src = dma::Pattern::indirect(data_base_, idx_base_ + group * req_bytes);
  d.dst = dma::Pattern::contiguous(dst_base_ + group * req_bytes);
  d.elem_bytes = 4;
  d.num_elems = kElemsPerReq;
  d.next = ring_base_ +
           ((slot + 1) % kRingSlots) * dma::kDescriptorBytes;
  dma::write_descriptor(store_, ring_base_ + slot * dma::kDescriptorBytes,
                        d);
}

void OpenLoopDriver::publish_ready() {
  while (!backlog_arrival_.empty() &&
         published_ - completed_ < kRingSlots) {
    const std::uint64_t ordinal = published_;
    write_slot(ordinal);
    slot_arrival_[ordinal % kRingSlots] = backlog_arrival_.front();
    backlog_arrival_.pop_front();
    ++published_;
    engine_.publish(1);
  }
}

void OpenLoopDriver::on_complete(std::uint64_t ordinal, bool ok) {
  const sim::Cycle now = Component::now();
  const sim::Cycle arrival = slot_arrival_[ordinal % kRingSlots];
  ++completed_;
  ++stats_.completed;
  if (!ok) ++stats_.failed;
  if (now >= warmup_end_ && now < stop_) ++stats_.window_completions;
  if (ok && arrival >= warmup_end_ && arrival < stop_) {
    latency_.record(now - arrival);
  }
  // A freed slot may unblock the backlog; publish from our own tick so
  // behaviour does not depend on where in the engine's tick this fired.
  wake_self();
}

void OpenLoopDriver::tick() {
  if (!armed_) return;
  const sim::Cycle now = Component::now();
  while (generating(now) && arrival_at(next_ordinal_) <= now) {
    const sim::Cycle arrival = arrival_at(next_ordinal_);
    ++next_ordinal_;
    ++stats_.arrivals;
    if (arrival >= warmup_end_ && arrival < stop_) ++stats_.window_arrivals;
    backlog_arrival_.push_back(arrival);
  }
  publish_ready();
  const std::uint64_t in_system =
      backlog_arrival_.size() + (published_ - completed_);
  stats_.queue_peak = std::max(stats_.queue_peak, in_system);
}

// A backlog waiting on a ring slot is published when a completion wakes
// the driver; arrivals still wake it on their own cycle, so the in-system
// peak is sampled where the naive kernel samples it.
bool OpenLoopDriver::quiescent() const {
  if (!armed_) return true;
  const sim::Cycle now = Component::now();
  return !(generating(now) && arrival_at(next_ordinal_) <= now);
}

sim::Cycle OpenLoopDriver::wake_hint() const {
  if (!armed_ || !generating(now())) return sim::kNeverCycle;
  return arrival_at(next_ordinal_);
}

}  // namespace axipack::traffic
