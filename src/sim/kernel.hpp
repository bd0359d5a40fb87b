// Cycle-driven simulation kernel with activity gating.
//
// Model of computation
// --------------------
// The simulated hardware is a set of Components connected by Fifo channels.
// Each cycle the kernel calls tick() on every *awake* component (in
// registration order) and then commit() on every channel touched this cycle.
// Channels have *registered* semantics:
//
//  * an item pushed in cycle t becomes visible to poppers in cycle t+latency
//    (latency >= 1, default 1, i.e. a register stage);
//  * space freed by a pop in cycle t becomes usable by pushers in cycle t+1.
//
// Because pushes and pops within a cycle never observe each other, simulation
// results are independent of component tick order — the same property a
// synchronous netlist has. A depth-1 Fifo therefore sustains only one item
// every two cycles (like a hardware FIFO without a skid buffer); use depth
// >= 2 on full-throughput paths.
//
// Activity gating (the quiescence protocol)
// -----------------------------------------
// Ticking every component and committing every Fifo each cycle is wasted
// work when most of the fabric is idle, so the kernel gates both:
//
//  * Fifos need no end-of-cycle commit walk at all: the pop count that
//    delays freed space to the next cycle is kept per-Fifo together with
//    the cycle it was observed in, so it lapses lazily instead of being
//    reset by a per-channel commit() call every cycle.
//  * A component that (a) returns true from quiescent() and (b) has no
//    *visible* item in any Fifo it subscribed to is put to sleep and not
//    ticked again until it is woken — by an item becoming visible on a
//    subscribed Fifo, or by an explicit Kernel::wake() (see below).
//  * A component whose idleness is bounded by *time* rather than by input
//    (a DRAM bank waiting out tRCD/tRP/tRFC with requests already queued)
//    can additionally publish a wake_hint(): a future cycle before which
//    its tick() is a no-op even though subscribed input is visible. The
//    kernel then sleeps it through the window and wakes it at the hint;
//    pushes that arrive while it sleeps still wake it earlier.
//  * When every component is asleep and only Fifo latency timers are
//    pending, run()/run_until() fast-forward the clock to the next
//    scheduled wake-up instead of stepping through dead cycles.
//
// Gating is cycle-identical to naive full-netlist ticking *provided*
// components keep the protocol:
//
//  1. quiescent() must return true only when tick() would be a no-op now
//     and on every future cycle until new input arrives. Any internal
//     pending state — in-flight bursts, countdown timers, data waiting to
//     be pushed into a full output Fifo — means "not quiescent".
//  2. A component must subscribe() to every Fifo it pops from (or whose
//     visible data can otherwise re-activate it).
//  3. Any non-tick entry point that creates new work for a component
//     (Processor::run, DmaEngine::push, Converter::accept_ar, ...) must
//     call wake_self() / Kernel::wake().
//  4. A component reads time from now(), never from a count of its own
//     ticks: a sleeping component is not ticked, so only the kernel's
//     cycle keeps its stamps, timeouts and backoffs exact.
//  5. Visible input a component cannot use yet (a response held until an
//     older one arrives, as a beat packer consuming its lanes in beat
//     order does) goes into its wake_hint(): the earliest cycle the held
//     input, together with every stored item behind it, can let tick()
//     act. Without the hint the kernel keeps any component with visible
//     input awake, and it no-op-ticks until the rest arrives.
//
// The kernel keeps two rules of its own:
//
//  6. A nap that ends within kMinSleepCycles counts as a failed sleep
//     attempt: the wake doubles the component's sleep backoff instead of
//     resetting it. A consumer that ticks before the producer refilling
//     it would otherwise sleep and wake on nearly every cycle.
//  7. try_sleep() runs right after the component's own tick, in the same
//     cycle. A hint computed in tick() (DramMemory's) then covers exactly
//     the pushes that landed before it, and every later push of the cycle
//     finds the component asleep and schedules its wake. An attempt put
//     off to the end of the cycle would trust a hint that misses the
//     pushes landing in between.
//
// The default quiescent() returns false, so unconverted components are
// simply ticked every cycle, exactly as before. set_gating(false) restores
// the naive kernel wholesale (used by the equivalence tests and as the
// perf-harness baseline).
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

namespace axipack::sim {

using Cycle = std::uint64_t;

/// "No scheduled event": the far-future sentinel used by wake hints and the
/// kernel's wake bookkeeping.
inline constexpr Cycle kNeverCycle = std::numeric_limits<Cycle>::max();

class Kernel;
class FifoBase;

/// Anything the kernel ticks once per cycle.
class Component {
 public:
  virtual ~Component() = default;
  /// Advance one cycle: consume from input Fifos, produce into output Fifos.
  virtual void tick() = 0;
  /// Activity hook: true iff tick() is a no-op now and stays one until new
  /// input arrives (see the quiescence protocol in the file header).
  virtual bool quiescent() const { return false; }
  /// Timed-idleness hook, consulted only when quiescent() is true. A value
  /// `h` greater than the current cycle vouches that tick() is a no-op on
  /// every cycle < h *even if subscribed Fifos hold visible items* — the
  /// component has folded all its already-enqueued work (including the
  /// visibility times of in-flight subscribed items) into the hint, and
  /// only the passage of time or a *new* push can change its behaviour
  /// before h. The kernel may then sleep it until min(h, next new push).
  /// kNeverCycle means "no timed work at all: sleep until a push". The
  /// default 0 opts out: sleep is governed by visible input alone.
  virtual Cycle wake_hint() const { return 0; }

 protected:
  /// Marks this component runnable again; call from any non-tick entry
  /// point that hands it new work. Safe before registration (no-op).
  void wake_self();
  /// The kernel's current cycle (rule 4 above). Between steps it is the
  /// cycle the next step simulates. Requires registration.
  Cycle now() const;

 private:
  friend class Kernel;
  Kernel* kernel_ = nullptr;
  std::uint32_t comp_id_ = 0;
};

/// Non-template channel base so the kernel can track occupancy/visibility
/// without virtual dispatch.
class FifoBase {
 public:
  virtual ~FifoBase() = default;

  /// True if a visible (poppable) item exists at cycle `now`.
  bool has_visible(Cycle now) const {
    return size_ > 0 && head_visible_ <= now;
  }

  /// Activity tap: every push also ORs `1 << bit` into `*word` (pass
  /// nullptr to detach). Consumers that mux many Fifos (the adapter's
  /// bank-port mux) point a group of channels at one bitmask word and scan
  /// only flagged groups instead of polling every channel every cycle.
  /// Purely an observer — occupancy and visibility are unaffected, so
  /// gated and naive scheduling stay cycle-identical.
  void set_push_flag(std::uint64_t* word, unsigned bit) {
    push_flag_word_ = word;
    push_flag_mask_ = std::uint64_t{1} << bit;
  }

 protected:
  // Called by Fifo<T>; defined inline after Kernel.
  void notify_push(Cycle visible_at);

  std::size_t size_ = 0;       ///< items stored (visible or in flight)
  Cycle head_visible_ = 0;     ///< visible_at of the head item (if size_>0)
  Kernel* kernel_ = nullptr;
  std::uint64_t* push_flag_word_ = nullptr;  ///< see set_push_flag
  std::uint64_t push_flag_mask_ = 0;

 private:
  friend class Kernel;
  /// Subscribers currently asleep. Pushes only notify the kernel when this
  /// is nonzero, so the steady-state (all consumers awake) push pays one
  /// integer test; the count is maintained at sleep/wake transitions.
  std::uint32_t asleep_subscribers_ = 0;
  std::vector<std::uint32_t> subscribers_;   ///< component ids to wake on push
};

/// Completion + duration of a bounded run (see Kernel::run_until).
struct RunStatus {
  bool completed = false;  ///< the predicate fired before the deadline
  Cycle cycles = 0;        ///< cycles consumed by this call
  operator bool() const { return completed; }  // NOLINT: drop-in for bool
};

/// Owns the clock; ticks components, then commits channels.
class Kernel {
 public:
  Cycle now() const { return cycle_; }

  /// Registers a component (non-owning). Tick order = registration order.
  void add(Component& c);
  /// Binds a channel to this kernel's clock (non-owning; no per-channel
  /// state is kept — commit walks are gone, visibility is per item).
  void add(FifoBase& f);

  /// Declares that `c` consumes from `f`: a sleeping `c` is woken when an
  /// item pushed into `f` becomes visible. Both must be registered here.
  void subscribe(Component& c, FifoBase& f);

  /// Marks `c` runnable (idempotent). See Component::wake_self().
  void wake(Component& c);

  /// Times `c`'s tick() has run so far (every cycle under naive ticking,
  /// only its awake cycles under gating).
  std::uint64_t ticks(const Component& c) const {
    assert(c.kernel_ == this);
    return ticks_[c.comp_id_];
  }
  /// Times the gated kernel has put `c` to sleep so far (0 under naive
  /// ticking).
  std::uint64_t sleeps(const Component& c) const {
    assert(c.kernel_ == this);
    return sleeps_[c.comp_id_];
  }

  /// Disables/enables activity gating. With gating off the kernel ticks
  /// every component and commits every Fifo each cycle (the naive, pre-
  /// gating behaviour); results are cycle-identical either way.
  void set_gating(bool on);
  bool gating() const { return gating_; }

  /// Advances exactly one cycle.
  void step();

  /// Advances `n` cycles (fast-forwarding through fully-asleep stretches).
  void run(Cycle n);

  /// How the run_until predicate interacts with the simulation.
  enum class PredKind {
    /// The predicate may drive the system (push/pop ports); it is invoked
    /// once per cycle and idle fast-forward is disabled.
    driving,
    /// The predicate only observes simulator state; its value can change
    /// only when a component runs, so fully-asleep stretches are skipped.
    pure,
  };

  /// Runs until `done()` returns true or `max_cycles` elapse from now.
  /// `done` is evaluated before the first step and after every step — never
  /// twice for the same cycle. Returns completion plus cycles consumed.
  RunStatus run_until(const std::function<bool()>& done,
                      Cycle max_cycles = 100'000'000,
                      PredKind kind = PredKind::driving);

 private:
  friend class Component;
  friend class FifoBase;

  static constexpr Cycle kNever = kNeverCycle;

  void wake_id(std::uint32_t id) {
    if (awake_[id]) return;
    awake_[id] = 1;
    ++awake_count_;
    next_wake_[id] = kNever;
    if (cycle_ - slept_at_[id] < kMinSleepCycles) {
      // Rule 6: a nap shorter than the minimum did not pay for its
      // bookkeeping, so it counts as a failed attempt.
      defer_sleep_check(id);
    } else {
      sleep_backoff_[id] = 0;
      sleep_check_at_[id] = 0;
    }
    for (FifoBase* f : subs_[id]) --f->asleep_subscribers_;
  }

  /// Schedules a timed wake for a sleeping component, deduplicated: a wake
  /// at or before `t` is already pending, or the component re-schedules
  /// from its subscriptions when it goes back to sleep after that wake.
  void schedule_wake(std::uint32_t id, Cycle t) {
    if (awake_[id] || next_wake_[id] <= t) return;
    wakes_.emplace(t, id);
    next_wake_[id] = t;
  }

  /// Processes timed wake-ups due at the current cycle.
  void service_wakes() {
    while (!wakes_.empty() && wakes_.top().first <= cycle_) {
      wake_id(wakes_.top().second);
      wakes_.pop();
    }
  }

  /// Sleeps component `i` if the protocol allows; schedules its next timed
  /// wake from the pending (not-yet-visible) items on its subscriptions.
  void try_sleep(std::uint32_t i);

  /// Backs off the next sleep attempt after a failed one (1, 2, 4, ...
  /// up to kMaxSleepBackoff cycles). Purely an overhead bound; a component
  /// that stays awake longer just no-op-ticks like the naive kernel.
  static constexpr Cycle kMaxSleepBackoff = 64;
  /// Minimum nap length worth the sleep/wake bookkeeping.
  static constexpr Cycle kMinSleepCycles = 8;
  void defer_sleep_check(std::uint32_t i) {
    const Cycle b = sleep_backoff_[i];
    sleep_backoff_[i] = b == 0 ? 1 : (b < kMaxSleepBackoff ? b * 2 : b);
    sleep_check_at_[i] = cycle_ + 1 + sleep_backoff_[i];
  }

  /// On-push notification from a subscribed Fifo.
  void on_push(const std::vector<std::uint32_t>& subscribers,
               Cycle visible_at) {
    for (const std::uint32_t id : subscribers) {
      schedule_wake(id, visible_at);
    }
  }

  /// If everyone is asleep, jumps the clock to the next scheduled wake (or
  /// `limit`) and returns true; returns false if any component is runnable.
  bool fast_forward(Cycle limit);

  Cycle cycle_ = 0;
  bool gating_ = true;
  std::vector<Component*> components_;
  std::vector<std::uint8_t> awake_;               ///< parallel to components_
  std::vector<Cycle> next_wake_;                  ///< earliest pending wake
  std::vector<Cycle> sleep_check_at_;             ///< next sleep attempt
  std::vector<Cycle> sleep_backoff_;              ///< current backoff length
  std::vector<Cycle> slept_at_;                   ///< cycle of the last sleep
  std::vector<std::uint64_t> ticks_;              ///< tick() calls so far
  std::vector<std::uint64_t> sleeps_;             ///< times put to sleep
  std::size_t awake_count_ = 0;
  std::vector<std::vector<FifoBase*>> subs_;      ///< per-component inputs
  std::priority_queue<std::pair<Cycle, std::uint32_t>,
                      std::vector<std::pair<Cycle, std::uint32_t>>,
                      std::greater<>>
      wakes_;
};

inline void Component::wake_self() {
  if (kernel_ != nullptr) kernel_->wake(*this);
}

inline Cycle Component::now() const { return kernel_->now(); }

inline void FifoBase::notify_push(Cycle visible_at) {
  if (push_flag_word_ != nullptr) *push_flag_word_ |= push_flag_mask_;
  if (asleep_subscribers_ != 0) {
    kernel_->on_push(subscribers_, visible_at);
  }
}

/// Bounded FIFO channel with registered push/pop semantics (see file header).
///
/// `latency` models pipeline stages between producer and consumer: an item is
/// poppable `latency` cycles after the push. Capacity counts *all* items in
/// flight, including those still inside the latency window.
///
/// Storage is a power-of-two ring buffer, so steady-state pushes never
/// allocate; it starts small and doubles (amortized O(1)) only while the
/// high-water mark is still growing toward `capacity`.
template <typename T>
class Fifo : public FifoBase {
 public:
  explicit Fifo(Kernel& k, std::size_t capacity, Cycle latency = 1,
                std::string name = {})
      : capacity_(capacity), latency_(latency), name_(std::move(name)) {
    assert(capacity_ > 0);
    assert(latency_ >= 1);
    storage_ = round_up_pow2(capacity_ < kInitialStorage ? capacity_
                                                         : kInitialStorage);
    ring_ = std::make_unique<Slot[]>(storage_);
    k.add(*this);
  }

  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;

  /// True if a push is allowed this cycle. Space freed by pops this cycle is
  /// NOT counted (it becomes available next cycle).
  bool can_push() const {
    return size_ + popped_this_cycle() < capacity_;
  }

  void push(T item) { push_in(std::move(item), latency_); }

  /// push() with a per-item latency override: the item becomes visible
  /// `delay` cycles from now (delay >= 1) instead of after the channel's
  /// construction-time latency. Delivery order is still FIFO — an item
  /// pushed behind a slower one waits for it — which is exactly the
  /// in-order-per-port contract variable-latency memories (DRAM row hits
  /// vs misses) need from their response channels.
  void push_in(T item, Cycle delay) {
    assert(can_push());
    assert(delay >= 1);
    if (size_ == storage_) grow();
    const Cycle visible_at = now_() + delay;
    Slot& s = ring_[(head_ + size_) & (storage_ - 1)];
    s.item = std::move(item);
    s.visible_at = visible_at;
    if (size_ == 0) head_visible_ = visible_at;
    ++size_;
    notify_push(visible_at);
  }

  /// push() iff can_push(); returns whether the item was accepted.
  bool try_push(T item) {
    if (!can_push()) return false;
    push(std::move(item));
    return true;
  }

  /// True if the head item is visible this cycle.
  bool can_pop() const { return has_visible(now_()); }

  const T& front() const {
    assert(can_pop());
    return ring_[head_].item;
  }

  T pop() {
    assert(can_pop());
    T item = std::move(ring_[head_].item);
    head_ = (head_ + 1) & (storage_ - 1);
    --size_;
    head_visible_ = size_ > 0 ? ring_[head_].visible_at : 0;
    const Cycle now = now_();
    if (last_pop_cycle_ == now) {
      ++pops_at_last_cycle_;
    } else {
      last_pop_cycle_ = now;
      pops_at_last_cycle_ = 1;
    }
    return item;
  }

  /// pop() iff can_pop(); disengaged when nothing is visible.
  std::optional<T> try_pop() {
    if (!can_pop()) return std::nullopt;
    return pop();
  }

  /// Read-only access to the i-th stored item counted from the head
  /// (peek(0) == front()). Does not consume; `i` must be < size(). Callers
  /// that care about visibility bound `i` by visible_count() — lookahead
  /// schedulers (the DRAM row-batching window) peek past the head without
  /// disturbing FIFO order.
  const T& peek(std::size_t i) const {
    assert(i < size_);
    return ring_[(head_ + i) & (storage_ - 1)].item;
  }

  /// Cycle the i-th stored item (counted from the head, like peek) becomes
  /// poppable; `i` must be < size(). Lets lookahead schedulers compute
  /// exact wake horizons — "when does the next in-flight request land?" —
  /// without a visibility scan.
  Cycle item_visible_at(std::size_t i) const {
    assert(i < size_);
    return ring_[(head_ + i) & (storage_ - 1)].visible_at;
  }

  /// Number of items visible (poppable, in FIFO order) at cycle `now`.
  /// Delivery is FIFO even under per-item latency (push_in), so the visible
  /// items are exactly the longest head prefix whose every member has
  /// visible_at <= now; the scan stops at the first in-flight item.
  std::size_t visible_count(Cycle now) const {
    std::size_t n = 0;
    while (n < size_ &&
           ring_[(head_ + n) & (storage_ - 1)].visible_at <= now) {
      ++n;
    }
    return n;
  }

  /// Number of items currently stored (visible or not).
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return capacity_; }
  const std::string& name() const { return name_; }

 private:
  static constexpr std::size_t kInitialStorage = 8;

  struct Slot {
    T item;
    Cycle visible_at;
  };

  static std::size_t round_up_pow2(std::size_t v) {
    std::size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  Cycle now_() const;  // defined below (needs Kernel)

  /// Space freed by a pop only becomes pushable the next cycle; the count
  /// lapses lazily when the clock moves on (no per-cycle commit walk).
  std::size_t popped_this_cycle() const {
    return last_pop_cycle_ == now_() ? pops_at_last_cycle_ : 0;
  }

  void grow() {
    const std::size_t bigger = storage_ * 2;
    auto fresh = std::make_unique<Slot[]>(bigger);
    for (std::size_t i = 0; i < size_; ++i) {
      fresh[i] = std::move(ring_[(head_ + i) & (storage_ - 1)]);
    }
    ring_ = std::move(fresh);
    storage_ = bigger;
    head_ = 0;
  }

  std::size_t capacity_;
  Cycle latency_;
  std::string name_;
  std::unique_ptr<Slot[]> ring_;
  std::size_t storage_ = 0;  ///< allocated slots (power of two)
  std::size_t head_ = 0;
  Cycle last_pop_cycle_ = std::numeric_limits<Cycle>::max();
  std::size_t pops_at_last_cycle_ = 0;
};

template <typename T>
inline Cycle Fifo<T>::now_() const {
  return kernel_->now();
}

/// Convenience: an effectively unbounded Fifo (for response paths whose
/// occupancy is regulated elsewhere, e.g. by a request regulator).
template <typename T>
class UnboundedFifo : public Fifo<T> {
 public:
  explicit UnboundedFifo(Kernel& k, Cycle latency = 1, std::string name = {})
      : Fifo<T>(k, std::numeric_limits<std::size_t>::max() / 2, latency,
                std::move(name)) {}
};

}  // namespace axipack::sim
