#include "sim/kernel.hpp"

#include <algorithm>

namespace axipack::sim {

void Kernel::add(Component& c) {
  assert(c.kernel_ == nullptr && "component registered twice");
  c.kernel_ = this;
  c.comp_id_ = static_cast<std::uint32_t>(components_.size());
  components_.push_back(&c);
  awake_.push_back(1);
  next_wake_.push_back(kNever);
  sleep_check_at_.push_back(0);
  sleep_backoff_.push_back(0);
  slept_at_.push_back(0);
  ticks_.push_back(0);
  sleeps_.push_back(0);
  ++awake_count_;
  subs_.emplace_back();
}

void Kernel::add(FifoBase& f) {
  assert(f.kernel_ == nullptr && "fifo registered twice");
  f.kernel_ = this;
}

void Kernel::subscribe(Component& c, FifoBase& f) {
  assert(c.kernel_ == this && f.kernel_ == this);
  subs_[c.comp_id_].push_back(&f);
  f.subscribers_.push_back(c.comp_id_);
}

void Kernel::wake(Component& c) {
  assert(c.kernel_ == this);
  wake_id(c.comp_id_);
}

void Kernel::set_gating(bool on) {
  if (gating_ == on) return;
  gating_ = on;
  if (!on) {
    // Naive mode ticks everything; make the awake set reflect that so a
    // later re-enable starts from a conservative (all-awake) state.
    for (std::uint32_t i = 0; i < awake_.size(); ++i) wake_id(i);
  }
}

void Kernel::try_sleep(std::uint32_t i) {
  Component* c = components_[i];
  if (!c->quiescent()) {
    defer_sleep_check(i);
    return;
  }
  const std::vector<FifoBase*>& subs = subs_[i];
  Cycle next_wake = kNever;
  const Cycle timed = c->wake_hint();
  if (timed > cycle_) {
    // The component vouches its tick() is a no-op until `timed` even with
    // visible subscribed input (a timing window, with the visibility of
    // every already-enqueued item folded into the hint) — sleep through
    // it. New pushes while asleep still wake earlier via notify_push.
    next_wake = timed;
  } else {
    for (const FifoBase* f : subs) {
      if (f->size_ == 0) continue;
      if (f->head_visible_ <= cycle_) {  // visible work: stay awake
        defer_sleep_check(i);
        return;
      }
      next_wake = std::min(next_wake, f->head_visible_);
    }
  }
  // A sleep/wake round-trip has real cost (subscription counters, wake
  // heap); napping through a short latency window is a net loss, so stay
  // awake and no-op-tick through it, exactly like the naive kernel.
  if (next_wake != kNever && next_wake - cycle_ < kMinSleepCycles) {
    defer_sleep_check(i);
    return;
  }
  // The backoff survives the nap: wake_id() resets it after a long one and
  // grows it after a short one.
  awake_[i] = 0;
  --awake_count_;
  next_wake_[i] = kNever;
  slept_at_[i] = cycle_;
  ++sleeps_[i];
  for (FifoBase* f : subs) ++f->asleep_subscribers_;
  if (next_wake != kNever) schedule_wake(i, next_wake);
}

void Kernel::step() {
  if (gating_) {
    service_wakes();
    const std::size_t n = components_.size();
    for (std::uint32_t i = 0; i < n; ++i) {
      if (!awake_[i]) continue;
      components_[i]->tick();
      ++ticks_[i];
      // Backoff gate inline: busy components skip the sleep attempt cheaply.
      if (cycle_ >= sleep_check_at_[i]) try_sleep(i);
    }
  } else {
    for (std::size_t i = 0; i < components_.size(); ++i) {
      components_[i]->tick();
      ++ticks_[i];
    }
  }
  ++cycle_;
}

bool Kernel::fast_forward(Cycle limit) {
  if (!gating_ || awake_count_ > 0) return false;
  service_wakes();
  if (awake_count_ > 0) return false;
  // Everyone is asleep: nothing can happen before the next scheduled wake,
  // so the skipped cycles are exactly the no-op cycles the naive kernel
  // would have spun through.
  cycle_ = wakes_.empty() ? limit : std::min(limit, wakes_.top().first);
  return true;
}

void Kernel::run(Cycle n) {
  const Cycle end = cycle_ + n;
  while (cycle_ < end) {
    if (fast_forward(end)) continue;
    step();
  }
}

RunStatus Kernel::run_until(const std::function<bool()>& done,
                            Cycle max_cycles, PredKind kind) {
  const Cycle start = cycle_;
  const Cycle deadline = cycle_ + max_cycles;
  // Evaluate once per cycle: before the first step and after each step.
  bool completed = done();
  while (!completed && cycle_ < deadline) {
    if (kind == PredKind::pure && fast_forward(deadline)) {
      // A pure predicate cannot change over skipped (fully-asleep) cycles.
      continue;
    }
    step();
    completed = done();
  }
  return RunStatus{completed, cycle_ - start};
}

}  // namespace axipack::sim
