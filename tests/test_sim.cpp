// Tests of the simulation kernel's registered-FIFO semantics — everything
// downstream (bus modeling, bank conflicts) relies on these properties —
// plus the ring-buffer storage (randomized against a reference deque
// model) and the activity-gating machinery (sleep/wake, fast-forward).
#include "test_common.hpp"

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/probe.hpp"
#include "util/rng.hpp"

namespace axipack::sim {
namespace {

TEST(Fifo, PushNotVisibleSameCycle) {
  Kernel k;
  Fifo<int> f(k, 4);
  EXPECT_FALSE(f.can_pop());
  f.push(1);
  EXPECT_FALSE(f.can_pop());  // registered: visible next cycle
  k.step();
  ASSERT_TRUE(f.can_pop());
  EXPECT_EQ(f.front(), 1);
}

TEST(Fifo, LatencyDelaysVisibility) {
  Kernel k;
  Fifo<int> f(k, 8, 3);
  f.push(42);
  k.step();
  EXPECT_FALSE(f.can_pop());
  k.step();
  EXPECT_FALSE(f.can_pop());
  k.step();
  ASSERT_TRUE(f.can_pop());
  EXPECT_EQ(f.pop(), 42);
}

TEST(Fifo, PopFreesSpaceNextCycle) {
  Kernel k;
  Fifo<int> f(k, 1);
  f.push(1);
  k.step();
  EXPECT_FALSE(f.can_push());  // full
  EXPECT_EQ(f.pop(), 1);
  // Space freed by the pop is not available in the same cycle.
  EXPECT_FALSE(f.can_push());
  k.step();
  EXPECT_TRUE(f.can_push());
}

TEST(Fifo, DepthTwoSustainsFullThroughput) {
  // A depth-2 FIFO must sustain one item per cycle in steady state.
  Kernel k;
  Fifo<int> f(k, 2);
  int pushed = 0;
  int popped = 0;
  for (int cycle = 0; cycle < 100; ++cycle) {
    if (f.can_pop()) {
      f.pop();
      ++popped;
    }
    if (f.can_push()) {
      f.push(pushed++);
    }
    k.step();
  }
  EXPECT_GE(popped, 97);  // minus pipeline fill
}

TEST(Fifo, DepthOneHalvesThroughput) {
  Kernel k;
  Fifo<int> f(k, 1);
  int popped = 0;
  for (int cycle = 0; cycle < 100; ++cycle) {
    if (f.can_pop()) {
      f.pop();
      ++popped;
    }
    if (f.can_push()) f.push(cycle);
    k.step();
  }
  EXPECT_LE(popped, 51);
  EXPECT_GE(popped, 48);
}

TEST(Fifo, FifoOrderPreserved) {
  Kernel k;
  Fifo<int> f(k, 16);
  for (int i = 0; i < 10; ++i) f.push(i);
  k.step();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(f.pop(), i);
}

TEST(Fifo, PeekReadsPastTheHeadWithoutConsuming) {
  Kernel k;
  Fifo<int> f(k, 8);
  for (int i = 0; i < 5; ++i) f.push(10 + i);
  k.step();
  ASSERT_EQ(f.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(f.peek(i), 10 + static_cast<int>(i));
  }
  EXPECT_EQ(f.front(), 10);  // nothing consumed
  EXPECT_EQ(f.pop(), 10);
  EXPECT_EQ(f.peek(0), 11);  // peek tracks the head after pops
}

TEST(Fifo, VisibleCountIsTheVisibleHeadPrefix) {
  Kernel k;
  Fifo<int> f(k, 8);
  EXPECT_EQ(f.visible_count(k.now()), 0u);
  f.push(1);
  f.push(2);
  EXPECT_EQ(f.visible_count(k.now()), 0u);  // registered: next cycle
  k.step();
  EXPECT_EQ(f.visible_count(k.now()), 2u);
  // A slow item gates everything pushed behind it (FIFO delivery), even
  // items whose own latency has already elapsed.
  f.push_in(3, 5);
  f.push_in(4, 1);
  k.step();
  EXPECT_EQ(f.visible_count(k.now()), 2u);
  k.run(4);
  EXPECT_EQ(f.visible_count(k.now()), 4u);
  // Pops shrink the visible prefix from the front.
  f.pop();
  EXPECT_EQ(f.visible_count(k.now()), 3u);
  EXPECT_EQ(f.peek(2), 4);
}

TEST(Fifo, TryPushTryPop) {
  Kernel k;
  Fifo<int> f(k, 2);
  EXPECT_TRUE(f.try_push(7));
  EXPECT_TRUE(f.try_push(8));
  EXPECT_FALSE(f.try_push(9));  // full
  EXPECT_FALSE(f.try_pop().has_value());  // nothing visible yet
  k.step();
  const auto a = f.try_pop();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, 7);
  EXPECT_FALSE(f.try_push(9));  // space freed by pop arrives next cycle
  k.step();
  EXPECT_TRUE(f.try_push(9));
  EXPECT_EQ(f.pop(), 8);
}

TEST(Fifo, UnboundedGrowsBeyondInitialStorage) {
  Kernel k;
  UnboundedFifo<int> f(k);
  for (int i = 0; i < 1000; ++i) f.push(i);
  EXPECT_EQ(f.size(), 1000u);
  k.step();
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(f.pop(), i);
  EXPECT_TRUE(f.empty());
}

// Reference model of the registered-FIFO semantics, backed by a deque —
// the pre-ring-buffer implementation, kept as the oracle.
class RefFifo {
 public:
  RefFifo(std::size_t capacity, Cycle latency)
      : capacity_(capacity), latency_(latency) {}

  bool can_push() const { return q_.size() + popped_ < capacity_; }
  void push(int v) { q_.push_back({v, now_ + latency_}); }
  bool can_pop() const { return !q_.empty() && q_.front().vis <= now_; }
  int front() const { return q_.front().v; }
  int pop() {
    const int v = q_.front().v;
    q_.pop_front();
    ++popped_;
    return v;
  }
  std::size_t size() const { return q_.size(); }
  void step() {
    popped_ = 0;
    ++now_;
  }

 private:
  struct Item {
    int v;
    Cycle vis;
  };
  std::size_t capacity_;
  Cycle latency_;
  std::deque<Item> q_;
  std::size_t popped_ = 0;
  Cycle now_ = 0;
};

TEST(Fifo, RandomizedStressAgainstDequeModel) {
  util::Rng rng(0xF1F0);
  const std::size_t caps[] = {1, 2, 3, 5, 8, 64};
  const Cycle lats[] = {1, 2, 3, 7};
  for (const std::size_t cap : caps) {
    for (const Cycle lat : lats) {
      Kernel k;
      Fifo<int> dut(k, cap, lat);
      RefFifo ref(cap, lat);
      int next = 0;
      for (int cycle = 0; cycle < 500; ++cycle) {
        // Random interleave of pushes and pops within the cycle.
        for (int op = 0; op < 4; ++op) {
          ASSERT_EQ(dut.can_push(), ref.can_push())
              << "cap " << cap << " lat " << lat << " cycle " << cycle;
          ASSERT_EQ(dut.can_pop(), ref.can_pop());
          ASSERT_EQ(dut.size(), ref.size());
          if (rng.below(2) == 0 && ref.can_push()) {
            dut.push(next);
            ref.push(next);
            ++next;
          }
          if (rng.below(2) == 0 && ref.can_pop()) {
            ASSERT_EQ(dut.front(), ref.front());
            ASSERT_EQ(dut.pop(), ref.pop());
          }
        }
        k.step();
        ref.step();
      }
    }
  }
}

TEST(Kernel, RunUntilPredicate) {
  Kernel k;
  const bool fired = k.run_until([&] { return k.now() == 10; }, 100);
  EXPECT_TRUE(fired);
  EXPECT_EQ(k.now(), 10u);
}

TEST(Kernel, RunUntilTimeout) {
  Kernel k;
  const bool fired = k.run_until([] { return false; }, 50);
  EXPECT_FALSE(fired);
  EXPECT_EQ(k.now(), 50u);
}

class TickCounter final : public Component {
 public:
  int ticks = 0;
  void tick() override { ++ticks; }
};

TEST(Kernel, TicksComponentsEachCycle) {
  Kernel k;
  TickCounter c;
  k.add(c);
  k.run(25);
  EXPECT_EQ(c.ticks, 25);
}

TEST(Counters, DiffAndGet) {
  Counters a;
  a.add("x", 5);
  a.add("y");
  Counters snapshot = a;
  a.add("x", 3);
  const Counters d = a.diff(snapshot);
  EXPECT_EQ(d.get("x"), 3u);
  EXPECT_EQ(d.get("y"), 0u);
  EXPECT_EQ(d.get("missing"), 0u);
}

// Order-independence: two producer/consumer chains registered in opposite
// orders must produce identical timing.
class Producer final : public Component {
 public:
  Producer(Fifo<int>& out) : out_(out) {}
  void tick() override {
    if (out_.can_push()) out_.push(n_++);
  }

 private:
  Fifo<int>& out_;
  int n_ = 0;
};

class Consumer final : public Component {
 public:
  Consumer(Fifo<int>& in) : in_(in) {}
  void tick() override {
    if (in_.can_pop()) {
      in_.pop();
      ++received;
    }
  }
  int received = 0;

 private:
  Fifo<int>& in_;
};

TEST(Kernel, RunUntilReportsCyclesConsumed) {
  Kernel k;
  const RunStatus hit = k.run_until([&] { return k.now() == 10; }, 100);
  EXPECT_TRUE(hit.completed);
  EXPECT_EQ(hit.cycles, 10u);
  const RunStatus timeout = k.run_until([] { return false; }, 25);
  EXPECT_FALSE(timeout.completed);
  EXPECT_EQ(timeout.cycles, 25u);
  EXPECT_EQ(k.now(), 35u);
}

// A gate-aware producer/consumer pair: the producer emits a fixed schedule
// then goes quiescent; the consumer sleeps between arrivals.
class SleepyConsumer final : public Component {
 public:
  SleepyConsumer(Kernel& k, Fifo<int>& in) : in_(in) {
    k.add(*this);
    k.subscribe(*this, in);
  }
  void tick() override {
    while (in_.can_pop()) {
      in_.pop();
      ++received;
    }
  }
  bool quiescent() const override { return true; }
  int received = 0;

 private:
  Fifo<int>& in_;
};

TEST(Kernel, GatedMatchesNaiveWithSleepingConsumer) {
  // The same schedule must complete in the same number of cycles whether
  // the consumer sleeps through the latency windows or naive-ticks.
  auto run_mode = [](bool gating) {
    Kernel k;
    Fifo<int> f(k, 8, /*latency=*/25);
    k.set_gating(gating);
    SleepyConsumer consumer(k, f);
    f.push(1);
    f.push(2);
    const RunStatus status = k.run_until(
        [&] { return consumer.received == 2; }, 1'000,
        Kernel::PredKind::pure);
    EXPECT_TRUE(status.completed);
    return status.cycles;
  };
  const Cycle gated = run_mode(true);
  const Cycle naive = run_mode(false);
  EXPECT_EQ(gated, naive);
  // The latency window itself is fast-forwarded, not spun through, but the
  // *simulated* completion time must still be latency + 1.
  EXPECT_EQ(gated, 26u);
}

TEST(Kernel, FastForwardSkipsDeadCyclesInRun) {
  Kernel k;
  Fifo<int> f(k, 4, /*latency=*/40);
  SleepyConsumer consumer(k, f);
  f.push(5);
  k.run(100);  // internally fast-forwards; externally 100 cycles elapse
  EXPECT_EQ(k.now(), 100u);
  EXPECT_EQ(consumer.received, 1);
}

TEST(Kernel, CountsTicksPerComponent) {
  Kernel k;
  Fifo<int> f(k, 4, /*latency=*/40);
  SleepyConsumer consumer(k, f);
  TickCounter busy;  // never quiescent: ticked every cycle
  k.add(busy);
  f.push(5);
  k.run(100);
  EXPECT_EQ(k.ticks(busy), 100u);
  // Once at cycle 0 before it sleeps, once when the item becomes visible.
  EXPECT_EQ(k.ticks(consumer), 2u);
  k.set_gating(false);
  k.run(10);
  EXPECT_EQ(k.ticks(consumer), 12u);
  EXPECT_EQ(k.ticks(busy), 110u);
}

TEST(Kernel, ShortNapsBackOffLikeFailedSleeps) {
  // The consumer ticks before the producer that pushes every cycle, so
  // after each tick it finds nothing visible, sleeps, and is woken by the
  // next push one cycle later. Each such nap counts as a failed attempt:
  // the backoff grows to its cap and the consumer sleeps about once per
  // kMaxSleepBackoff cycles instead of once per cycle, while receiving
  // exactly what the naive kernel's consumer receives, cycle for cycle.
  constexpr int kCycles = 2000;
  const auto run_mode = [](bool gating, std::uint64_t* sleeps) {
    Kernel k;
    k.set_gating(gating);
    Fifo<int> f(k, 4);
    SleepyConsumer consumer(k, f);
    Producer producer(f);
    k.add(producer);
    std::vector<int> received;
    for (int i = 0; i < kCycles; ++i) {
      k.step();
      received.push_back(consumer.received);
    }
    *sleeps = k.sleeps(consumer);
    return received;
  };
  std::uint64_t gated_sleeps = 0;
  std::uint64_t naive_sleeps = 0;
  const std::vector<int> gated = run_mode(true, &gated_sleeps);
  const std::vector<int> naive = run_mode(false, &naive_sleeps);
  EXPECT_EQ(gated, naive);
  EXPECT_EQ(gated.back(), kCycles - 1);
  EXPECT_EQ(naive_sleeps, 0u);
  EXPECT_GT(gated_sleeps, 0u);
  EXPECT_LE(gated_sleeps, 50u);  // 1,999 when every nap resets the backoff
}

TEST(Kernel, TickOrderIndependent) {
  int received_a;
  int received_b;
  {
    Kernel k;
    Fifo<int> f(k, 2);
    Producer p(f);
    Consumer c(f);
    k.add(p);
    k.add(c);
    k.run(50);
    received_a = c.received;
  }
  {
    Kernel k;
    Fifo<int> f(k, 2);
    Producer p(f);
    Consumer c(f);
    k.add(c);  // consumer ticked first this time
    k.add(p);
    k.run(50);
    received_b = c.received;
  }
  EXPECT_EQ(received_a, received_b);
}

}  // namespace
}  // namespace axipack::sim
