// Open-loop traffic subsystem: arrival-process determinism, the
// scatter-gather descriptor-ring DMA mode (continuous operation,
// completion events, data equality against the one-shot path), and the
// OpenLoopDriver / System::run_open_loop surface.
#include "test_common.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dma/descriptor.hpp"
#include "dma/engine.hpp"
#include "systems/scenario.hpp"
#include "systems/system.hpp"
#include "traffic/arrival.hpp"
#include "traffic/driver.hpp"

namespace axipack {
namespace {

using traffic::ArrivalConfig;
using traffic::ArrivalKind;
using traffic::ArrivalProcess;

// ---------------------------------------------------------------- arrivals

TEST(ArrivalProcess, FixedRateIsAMetronome) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::fixed;
  cfg.rate_per_100k = 100;  // mean gap 1000 cycles
  const ArrivalProcess p(cfg);
  ASSERT_TRUE(p.enabled());
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(p.arrival_cycle(i), (i + 1) * 1000);
  }
}

TEST(ArrivalProcess, FixedRateRoundsPerArrivalNotPerGap) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::fixed;
  cfg.rate_per_100k = 33;  // mean gap 3030.303...
  const ArrivalProcess p(cfg);
  // Per-arrival rounding of i * gap keeps the long-run rate exact instead
  // of accumulating the per-gap rounding error.
  EXPECT_EQ(p.arrival_cycle(32), 100000u);
}

TEST(ArrivalProcess, ZeroRateIsDisabled) {
  ArrivalConfig cfg;
  cfg.rate_per_100k = 0;
  EXPECT_FALSE(ArrivalProcess(cfg).enabled());
}

TEST(ArrivalProcess, PoissonIsDeterministicAndMonotone) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::poisson;
  cfg.rate_per_100k = 50;
  cfg.seed = 7;
  const ArrivalProcess a(cfg);
  const ArrivalProcess b(cfg);
  sim::Cycle prev = 0;
  for (std::uint64_t i = 0; i < 512; ++i) {
    const sim::Cycle c = a.arrival_cycle(i);
    EXPECT_EQ(c, b.arrival_cycle(i)) << "ordinal " << i;
    EXPECT_GE(c, prev) << "ordinal " << i;
    prev = c;
  }
}

TEST(ArrivalProcess, PoissonRandomAccessMatchesSequential) {
  // The memo fills lazily in ordinal order; jumping ahead first must give
  // the same schedule as walking sequentially.
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::poisson;
  cfg.rate_per_100k = 80;
  const ArrivalProcess jumped(cfg);
  const sim::Cycle at100 = jumped.arrival_cycle(100);
  const ArrivalProcess walked(cfg);
  for (std::uint64_t i = 0; i <= 100; ++i) walked.arrival_cycle(i);
  EXPECT_EQ(at100, walked.arrival_cycle(100));
  EXPECT_EQ(jumped.arrival_cycle(3), walked.arrival_cycle(3));
}

TEST(ArrivalProcess, PoissonMeanTracksTheConfiguredRate) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::poisson;
  cfg.rate_per_100k = 50;  // mean gap 2000
  const ArrivalProcess p(cfg);
  const std::uint64_t n = 4000;
  const double mean_gap =
      static_cast<double>(p.arrival_cycle(n - 1)) / static_cast<double>(n);
  EXPECT_NEAR(mean_gap, 2000.0, 200.0);  // 10% over 4000 draws
}

TEST(ArrivalProcess, PoissonSeedChangesTheSchedule) {
  ArrivalConfig a;
  a.kind = ArrivalKind::poisson;
  a.rate_per_100k = 50;
  ArrivalConfig b = a;
  b.seed = a.seed + 1;
  unsigned differs = 0;
  const ArrivalProcess pa(a), pb(b);
  for (std::uint64_t i = 0; i < 64; ++i) {
    differs += pa.arrival_cycle(i) != pb.arrival_cycle(i);
  }
  EXPECT_GT(differs, 32u);
}

TEST(ArrivalProcess, BurstyCompressesWithinBurstsKeepsTheMean) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::bursty;
  cfg.rate_per_100k = 40;  // mean gap 2500
  cfg.burst_len = 8;
  cfg.burst_speedup = 8;
  const ArrivalProcess p(cfg);
  // Within a burst: back-to-back at gap/speedup.
  const sim::Cycle within = p.arrival_cycle(1) - p.arrival_cycle(0);
  EXPECT_LE(within, 2500u / 8 + 1);
  // Long-run mean: bursts * burst_len requests in bursts * burst_len * gap
  // cycles.
  const std::uint64_t n = 8 * 100;
  const double mean_gap =
      static_cast<double>(p.arrival_cycle(n - 1)) / static_cast<double>(n);
  EXPECT_NEAR(mean_gap, 2500.0, 2500.0 * 0.05);
}

// ------------------------------------------------------- descriptor rings

/// One-DMA bare fabric (no monitor hop), identical store layout across
/// instances so ring and one-shot runs can be diffed byte-for-byte.
struct DmaHarness {
  std::unique_ptr<sys::System> system;
  dma::DmaEngine* engine = nullptr;
  mem::BackingStore* store = nullptr;

  explicit DmaHarness(bool use_pack = true, bool naive = false) {
    sys::SystemBuilder b;
    b.bus_bits(256)
        .mem_region(0x8000'0000ull, 64ull << 20)
        .queue_depth(4)
        .monitor(false)
        .naive_kernel(naive);
    dma::DmaConfig dc;
    dc.use_pack = use_pack;
    b.attach_dma(dc);
    system = b.build();
    engine = &system->dma(0);
    store = &system->store();
  }
};

/// A deterministic mixed-pattern descriptor set: contiguous, strided and
/// indirect sources, each into its own contiguous destination. Returns
/// the descriptors and the destination bases for verification.
std::vector<dma::Descriptor> make_descriptors(mem::BackingStore& store,
                                              unsigned n,
                                              std::uint64_t elems) {
  std::vector<dma::Descriptor> out;
  const std::uint64_t data_words = 4096;
  const std::uint64_t data = store.alloc(data_words * 4, 64);
  for (std::uint64_t w = 0; w < data_words; ++w) {
    store.write_u32(data + w * 4, 0x5EED'0000u + static_cast<std::uint32_t>(w));
  }
  for (unsigned i = 0; i < n; ++i) {
    dma::Descriptor d;
    const std::uint64_t dst = store.alloc(elems * 4, 64);
    switch (i % 3) {
      case 0:
        d.src = dma::Pattern::contiguous(data + (i % 7) * 64);
        break;
      case 1:
        d.src = dma::Pattern::strided(data + (i % 5) * 4, 36);
        break;
      default: {
        const std::uint64_t idx = store.alloc(elems * 4, 64);
        for (std::uint64_t e = 0; e < elems; ++e) {
          store.write_u32(idx + e * 4,
                          static_cast<std::uint32_t>((e * 37 + i * 11) %
                                                     data_words));
        }
        d.src = dma::Pattern::indirect(data, idx);
        break;
      }
    }
    d.dst = dma::Pattern::contiguous(dst);
    d.elem_bytes = 4;
    d.num_elems = elems;
    out.push_back(d);
  }
  return out;
}

/// Writes `descs` as a circular ring (slot i links to slot i+1 mod n).
std::uint64_t write_ring(mem::BackingStore& store,
                         std::vector<dma::Descriptor> descs) {
  const std::uint64_t base =
      store.alloc(descs.size() * dma::kDescriptorBytes, 64);
  for (std::size_t i = 0; i < descs.size(); ++i) {
    descs[i].next =
        base + ((i + 1) % descs.size()) * dma::kDescriptorBytes;
    dma::write_descriptor(store, base + i * dma::kDescriptorBytes, descs[i]);
  }
  return base;
}

TEST(DescriptorRing, RunsA96SlotRingWithCompletionEvents) {
  // A >= 64-descriptor ring consumed continuously; every slot completes
  // exactly once, in order, with ok = true.
  DmaHarness h;
  const auto descs = make_descriptors(*h.store, 96, 64);
  const std::uint64_t ring = write_ring(*h.store, descs);
  std::vector<std::pair<std::uint64_t, bool>> events;
  h.engine->set_completion([&](std::uint64_t ordinal, bool ok) {
    events.emplace_back(ordinal, ok);
  });
  h.engine->start_ring(ring);
  EXPECT_TRUE(h.engine->ring_active());
  h.engine->publish(96);
  ASSERT_TRUE(h.system->run_until_drained(5'000'000));
  EXPECT_EQ(h.engine->ring_completed(), 96u);
  ASSERT_EQ(events.size(), 96u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].first, i);
    EXPECT_TRUE(events[i].second) << "ordinal " << i;
  }
  h.engine->stop_ring();
  EXPECT_FALSE(h.engine->ring_active());
  EXPECT_TRUE(h.engine->idle());
}

TEST(DescriptorRing, RingMatchesOneShotByteForByte) {
  // The same descriptor set through the ring fetch path and through
  // one-shot push() must land identical bytes — the data-equality
  // differential the one-shot path is already validated by.
  for (const bool use_pack : {true, false}) {
    DmaHarness ring_h(use_pack);
    DmaHarness shot_h(use_pack);
    const auto ring_descs = make_descriptors(*ring_h.store, 66, 48);
    const auto shot_descs = make_descriptors(*shot_h.store, 66, 48);
    const std::uint64_t ring = write_ring(*ring_h.store, ring_descs);
    ring_h.engine->start_ring(ring);
    ring_h.engine->publish(66);
    ASSERT_TRUE(ring_h.system->run_until_drained(5'000'000));
    for (const auto& d : shot_descs) shot_h.engine->push(d);
    ASSERT_TRUE(shot_h.system->run_until_drained(5'000'000));
    for (std::size_t i = 0; i < ring_descs.size(); ++i) {
      const std::uint64_t a = ring_descs[i].dst.addr;
      const std::uint64_t b = shot_descs[i].dst.addr;
      ASSERT_EQ(a, b);  // identical alloc order -> identical layout
      for (std::uint64_t e = 0; e < 48; ++e) {
        ASSERT_EQ(ring_h.store->read_u32(a + e * 4),
                  shot_h.store->read_u32(b + e * 4))
            << (use_pack ? "pack" : "narrow") << " desc " << i << " elem "
            << e;
      }
    }
  }
}

TEST(DescriptorRing, SingleBufferMatchesDoubleBufferAndIsNotFaster) {
  // Publishing the whole ring up front lets the engine prefetch each next
  // descriptor while the current transfer drains (double buffering). A
  // producer that publishes a slot only when the previous one completes
  // leaves nothing to prefetch, so fetch and transfer serialize as on a
  // single-buffered engine. Both must land the same bytes.
  DmaHarness dbl;
  DmaHarness sgl;
  const auto dbl_descs = make_descriptors(*dbl.store, 64, 64);
  const auto sgl_descs = make_descriptors(*sgl.store, 64, 64);
  dbl.engine->start_ring(write_ring(*dbl.store, dbl_descs));
  sgl.engine->start_ring(write_ring(*sgl.store, sgl_descs));
  sgl.engine->set_completion([&](std::uint64_t ordinal, bool) {
    if (ordinal + 1 < sgl_descs.size()) sgl.engine->publish(1);
  });
  dbl.engine->publish(64);
  sgl.engine->publish(1);
  const auto dbl_status = dbl.system->run_until_drained(5'000'000);
  const auto sgl_status = sgl.system->run_until_drained(5'000'000);
  ASSERT_TRUE(dbl_status);
  ASSERT_TRUE(sgl_status);
  for (std::size_t i = 0; i < dbl_descs.size(); ++i) {
    for (std::uint64_t e = 0; e < 64; ++e) {
      ASSERT_EQ(dbl.store->read_u32(dbl_descs[i].dst.addr + e * 4),
                sgl.store->read_u32(sgl_descs[i].dst.addr + e * 4));
    }
  }
  // Prefetching the next descriptor while the transfer drains can only
  // help: the double-buffered ring must never be slower.
  EXPECT_LE(dbl_status.cycles, sgl_status.cycles);
  // And it must actually overlap something on this workload (non-vacuous).
  EXPECT_LT(dbl_status.cycles, sgl_status.cycles);
}

TEST(DescriptorRing, SlotsAreReusedAcrossPublishWaves) {
  // An 8-slot ring carrying 32 requests: the producer rewrites slots as
  // they free and publishes in waves — the ring never stops.
  DmaHarness h;
  const unsigned kSlots = 8;
  const std::uint64_t elems = 32;
  const auto all = make_descriptors(*h.store, 32, elems);
  const std::uint64_t ring =
      h.store->alloc(kSlots * dma::kDescriptorBytes, 64);
  const auto write_slot = [&](std::uint64_t ordinal) {
    dma::Descriptor d = all[ordinal];
    d.next = ring + ((ordinal + 1) % kSlots) * dma::kDescriptorBytes;
    dma::write_descriptor(*h.store,
                          ring + (ordinal % kSlots) * dma::kDescriptorBytes,
                          d);
  };
  std::uint64_t completed = 0;
  std::uint64_t published = 0;
  h.engine->set_completion([&](std::uint64_t ordinal, bool ok) {
    EXPECT_EQ(ordinal, completed);
    EXPECT_TRUE(ok);
    ++completed;
  });
  h.engine->start_ring(ring);
  while (completed < all.size()) {
    while (published < all.size() && published - completed < kSlots) {
      write_slot(published);
      h.engine->publish(1);
      ++published;
    }
    h.system->kernel().run(64);
    ASSERT_TRUE(h.system->kernel().now() < 5'000'000) << "ring stalled";
  }
  EXPECT_EQ(h.engine->ring_completed(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::uint64_t e = 0; e < elems; ++e) {
      const std::uint32_t got = h.store->read_u32(all[i].dst.addr + e * 4);
      std::uint32_t want = 0;
      switch (i % 3) {
        case 0:
          want = h.store->read_u32(all[i].src.addr + e * 4);
          break;
        case 1:
          want = h.store->read_u32(all[i].src.addr + e * 36);
          break;
        default: {
          const std::uint32_t idx =
              h.store->read_u32(all[i].src.index_base + e * 4);
          want = h.store->read_u32(all[i].src.addr + idx * 4ull);
          break;
        }
      }
      ASSERT_EQ(got, want) << "desc " << i << " elem " << e;
    }
  }
}

// ------------------------------------------------- open-loop driver + SoC

TEST(OpenLoop, ScenarioRunReportsSaneLatencyAndRates) {
  auto system =
      sys::ScenarioRegistry::instance().builder("pack-256-dram-p80").build();
  ASSERT_NE(system->traffic_driver(), nullptr);
  const sys::RunResult r = system->run_open_loop(100'000, 10'000'000);
  ASSERT_TRUE(r.correct) << r.error;
  EXPECT_GE(r.cycles, 100'000u);
  ASSERT_TRUE(r.latency.count() > 0);
  const double p50 = r.latency.percentile(50);
  const double p95 = r.latency.percentile(95);
  const double p99 = r.latency.percentile(99);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, static_cast<double>(r.latency.max()));
  EXPECT_GT(r.offered_rate, 0.0);
  EXPECT_GT(r.achieved_rate, 0.0);
  // At rate 80 the PACK DRAM SoC is far from saturation: everything
  // offered inside the window completes inside or shortly after it.
  EXPECT_NEAR(r.achieved_rate, r.offered_rate, r.offered_rate * 0.1);
  EXPECT_GE(r.queue_peak, 1u);
  const auto& stats = system->traffic_driver()->stats();
  EXPECT_EQ(stats.arrivals, stats.completed);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_TRUE(system->traffic_driver()->drained());
}

TEST(OpenLoop, RunsAreDeterministic) {
  sys::RunResult r[2];
  for (int i = 0; i < 2; ++i) {
    auto system =
        sys::ScenarioRegistry::instance().builder("base-256-dram-p40").build();
    r[i] = system->run_open_loop(60'000, 10'000'000);
  }
  EXPECT_EQ(r[0].cycles, r[1].cycles);
  EXPECT_EQ(r[0].latency.count(), r[1].latency.count());
  EXPECT_EQ(r[0].latency.percentile(99), r[1].latency.percentile(99));
  EXPECT_EQ(r[0].offered_rate, r[1].offered_rate);
  EXPECT_EQ(r[0].queue_peak, r[1].queue_peak);
}

TEST(OpenLoop, ZeroRateBehavesLikeClosedLoop) {
  sys::SystemBuilder b =
      sys::ScenarioRegistry::instance().builder("pack-256-dram");
  traffic::TrafficConfig tc;
  tc.arrival.rate_per_100k = 0;
  b.traffic(tc);
  auto system = b.build();
  const sys::RunResult r = system->run_open_loop(20'000, 1'000'000);
  EXPECT_TRUE(r.correct) << r.error;
  EXPECT_EQ(r.latency.count(), 0u);
  EXPECT_EQ(r.offered_rate, 0.0);
  EXPECT_EQ(r.achieved_rate, 0.0);
  EXPECT_EQ(system->traffic_driver()->stats().arrivals, 0u);
}

TEST(OpenLoop, BurstyKnobRaisesTailLatencyAtEqualMeanRate) {
  auto smooth =
      sys::ScenarioRegistry::instance().builder("base-256-dram-p80").build();
  auto bursty =
      sys::ScenarioRegistry::instance().builder("base-256-dram-p80-b16").build();
  const sys::RunResult rs = smooth->run_open_loop(120'000, 10'000'000);
  const sys::RunResult rb = bursty->run_open_loop(120'000, 10'000'000);
  ASSERT_TRUE(rs.correct) << rs.error;
  ASSERT_TRUE(rb.correct) << rb.error;
  // Same mean rate, but 16-deep bursts queue behind each other: the tail
  // must be visibly worse than the smooth stream's.
  EXPECT_GT(rb.latency.percentile(99), rs.latency.percentile(99) * 1.5);
}

TEST(OpenLoop, BuilderCarvesTheFootprintInsideTheRegion) {
  traffic::TrafficConfig tc;
  tc.arrival.rate_per_100k = 10;
  EXPECT_EQ(traffic::footprint_bytes() % 64, 0u);
  // The driver region must stay inside the memory window.
  sys::SystemBuilder b;
  b.bus_bits(256).mem_region(0x8000'0000ull, 8ull << 20);
  b.attach_dma();
  b.traffic(tc);
  auto system = b.build();
  EXPECT_NE(system->traffic_driver(), nullptr);
  EXPECT_TRUE(system->drained());
}

TEST(OpenLoop, BackloggedPeakMatchesTheNaiveKernel) {
  // Past the BASE knee the ring fills and arrivals wait in the backlog.
  // The gated driver must still wake on each arrival, or it samples the
  // in-system peak later than the naive kernel does.
  std::string json[2];
  for (const bool naive : {false, true}) {
    sys::SystemBuilder b = *sys::parse_scenario("base-256-dram-p248-b64");
    b.naive_kernel(naive);
    const sys::RunResult r = b.build()->run_open_loop(30'000, 5'000'000);
    ASSERT_TRUE(r.correct) << r.error;
    json[naive ? 1 : 0] = r.to_json();
  }
  EXPECT_EQ(json[0], json[1]);
}

TEST(OpenLoop, CoalescerSeesTheDriversRingSlotRewrites) {
  // The driver rewrites a ring slot in memory directly when it reuses it.
  // A large pending table still retains the slot's previous descriptor
  // words from the last fetch; serving them would replay the old request.
  const sys::RunResult r = sys::ScenarioRegistry::instance()
                               .build("pack-256-dram-x4096-p300")
                               ->run_open_loop(30'000, 5'000'000);
  EXPECT_TRUE(r.correct) << r.error;
}

TEST(OpenLoop, FaultInjectionRecoversUnderLoad) {
  // Open-loop stream over the fault plan: injected faults are retried by
  // the sg engine and the stream still verifies.
  auto system = sys::ScenarioRegistry::instance()
                    .builder("pack-256-dram-f50-r4-p80")
                    .build();
  const sys::RunResult r = system->run_open_loop(120'000, 10'000'000);
  ASSERT_TRUE(r.correct) << r.error;
  EXPECT_GT(r.faults_injected, 0u);
  EXPECT_GT(r.retries, 0u);
  EXPECT_EQ(r.failed_ops, 0u);
}

}  // namespace
}  // namespace axipack
