// DMA engine tests: descriptor wire format, gather/scatter correctness in
// pack and narrow modes, in-memory descriptor chains, streaming overlap,
// and the "pack never slower" property.
#include "test_common.hpp"

#include <cstring>
#include <memory>
#include <numeric>
#include <ostream>
#include <tuple>
#include <vector>

#include "dma/descriptor.hpp"
#include "dma/engine.hpp"
#include "mem/backing_store.hpp"
#include "sim/fault.hpp"
#include "systems/builder.hpp"
#include "systems/system.hpp"

namespace axipack {
namespace {

using dma::Descriptor;
using dma::DmaConfig;
using dma::DmaEngine;
using dma::Pattern;

constexpr std::uint64_t kMemBase = 0x8000'0000ull;

// ------------------------------------------------------------ wire format

class DescriptorRoundTrip
    : public ::testing::TestWithParam<std::tuple<Pattern::Kind,
                                                 Pattern::Kind>> {};

TEST_P(DescriptorRoundTrip, SurvivesMemorySerialization) {
  const auto [src_kind, dst_kind] = GetParam();
  mem::BackingStore store(kMemBase, 1 << 20);

  auto make_pattern = [](Pattern::Kind kind, std::uint64_t salt) {
    switch (kind) {
      case Pattern::Kind::contiguous:
        return Pattern::contiguous(kMemBase + 0x1000 + salt);
      case Pattern::Kind::strided:
        return Pattern::strided(kMemBase + 0x2000 + salt, -48);
      case Pattern::Kind::indirect:
        return Pattern::indirect(kMemBase + 0x3000 + salt,
                                 kMemBase + 0x4000 + salt, 16);
    }
    return Pattern{};
  };

  Descriptor d;
  d.src = make_pattern(src_kind, 4);
  d.dst = make_pattern(dst_kind, 512);
  d.elem_bytes = 8;
  d.num_elems = 12345;
  d.next = kMemBase + 0x8000;

  const std::uint64_t addr = store.alloc(dma::kDescriptorBytes, 64);
  dma::write_descriptor(store, addr, d);
  std::uint8_t raw[dma::kDescriptorBytes];
  store.read(addr, raw, sizeof raw);
  const auto back = dma::parse_descriptor(raw);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, d);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, DescriptorRoundTrip,
    ::testing::Combine(::testing::Values(Pattern::Kind::contiguous,
                                         Pattern::Kind::strided,
                                         Pattern::Kind::indirect),
                       ::testing::Values(Pattern::Kind::contiguous,
                                         Pattern::Kind::strided,
                                         Pattern::Kind::indirect)));

TEST(DescriptorFormat, MalformedFlagsRejected) {
  std::uint8_t raw[dma::kDescriptorBytes] = {};
  std::uint32_t flags = 0x3;  // src kind 3: invalid
  std::memcpy(raw, &flags, 4);
  EXPECT_FALSE(dma::parse_descriptor(raw).has_value());

  flags = 0x0;  // elem_bytes code 0 (= 1 byte): below the 4-byte minimum
  std::memcpy(raw, &flags, 4);
  EXPECT_FALSE(dma::parse_descriptor(raw).has_value());
}

TEST(DescriptorFormat, ChainLinksInOrder) {
  mem::BackingStore store(kMemBase, 1 << 20);
  std::vector<Descriptor> descs(3);
  for (std::size_t i = 0; i < 3; ++i) {
    descs[i].src = Pattern::contiguous(kMemBase + 0x100 * i);
    descs[i].dst = Pattern::contiguous(kMemBase + 0x10000 + 0x100 * i);
    descs[i].elem_bytes = 4;
    descs[i].num_elems = 8 + i;
  }
  const std::uint64_t head = dma::build_chain(store, descs);

  std::uint64_t addr = head;
  for (std::size_t i = 0; i < 3; ++i) {
    std::uint8_t raw[dma::kDescriptorBytes];
    store.read(addr, raw, sizeof raw);
    const auto d = dma::parse_descriptor(raw);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->num_elems, 8 + i);
    if (i + 1 < 3) {
      ASSERT_NE(d->next, 0u);
      addr = d->next;
    } else {
      EXPECT_EQ(d->next, 0u);
    }
  }
}

// ------------------------------------------------------------ end-to-end

/// DMA engine -> AXI-Pack adapter -> banked memory (bare fabric, no
/// monitor hop), assembled through SystemBuilder.
class DmaHarness {
 public:
  explicit DmaHarness(bool use_pack, unsigned bus_bytes = 32,
                      unsigned banks = 17)
      : DmaHarness(make_config(use_pack, bus_bytes), banks) {}

  explicit DmaHarness(const DmaConfig& dc, unsigned banks = 17) {
    sys::SystemBuilder b;
    b.bus_bits(dc.bus_bytes * 8)
        .mem_region(kMemBase, 16 << 20)
        .banks(banks)
        .queue_depth(4)
        .monitor(false);
    b.attach_dma(dc);
    system_ = b.build();
  }

  static DmaConfig make_config(bool use_pack, unsigned bus_bytes) {
    DmaConfig dc;
    dc.bus_bytes = bus_bytes;
    dc.use_pack = use_pack;
    return dc;
  }

  mem::BackingStore& store() { return system_->store(); }
  DmaEngine& engine() { return system_->dma(0); }

  /// Runs until the engine and adapter drain; returns elapsed cycles.
  std::uint64_t run(std::uint64_t max_cycles = 1'000'000) {
    const std::uint64_t start = system_->kernel().now();
    const bool ok = system_->run_until_drained(max_cycles);
    EXPECT_TRUE(ok) << "DMA did not drain";
    return system_->kernel().now() - start;
  }

 private:
  std::unique_ptr<sys::System> system_;
};

/// Fills [addr, addr + n*4) with distinct u32 values derived from `seed`.
void fill_words(mem::BackingStore& store, std::uint64_t addr, std::uint64_t n,
                std::uint32_t seed) {
  for (std::uint64_t i = 0; i < n; ++i) {
    store.write_u32(addr + 4 * i, seed * 0x9E3779B9u + std::uint32_t(i));
  }
}

TEST(DmaEngine, ContiguousCopy) {
  DmaHarness h(/*use_pack=*/true);
  const std::uint64_t src = h.store().alloc(4096);
  const std::uint64_t dst = h.store().alloc(4096);
  fill_words(h.store(), src, 1024, 7);

  Descriptor d;
  d.src = Pattern::contiguous(src);
  d.dst = Pattern::contiguous(dst);
  d.elem_bytes = 4;
  d.num_elems = 1024;
  h.engine().push(d);
  h.run();

  for (std::uint64_t i = 0; i < 1024; ++i) {
    ASSERT_EQ(h.store().read_u32(dst + 4 * i), h.store().read_u32(src + 4 * i))
        << "word " << i;
  }
  EXPECT_EQ(h.engine().stats().descriptors_done, 1u);
  EXPECT_EQ(h.engine().stats().bytes_moved, 4096u);
}

TEST(DmaEngine, StreamsThroughBoundedBuffer) {
  // The staging buffer (64 words) is far smaller than the transfer (4096
  // words): completion proves writes drain the buffer while reads still
  // stream, i.e. the engine pipelines rather than load-all-then-store-all.
  // The copy is bank-bandwidth-bound (reads and writes share the n word
  // ports), so the cycle floor is ~2 cycles/beat; allow modest slack.
  DmaConfig dc = DmaHarness::make_config(/*use_pack=*/true, 32);
  dc.buffer_words = 64;
  DmaHarness h(dc);
  const std::uint64_t words = 4096;
  const std::uint64_t src = h.store().alloc(words * 4, 64);
  const std::uint64_t dst = h.store().alloc(words * 4, 64);
  fill_words(h.store(), src, words, 3);

  Descriptor d;
  d.src = Pattern::contiguous(src);
  d.dst = Pattern::contiguous(dst);
  d.elem_bytes = 4;
  d.num_elems = words;
  h.engine().push(d);
  const std::uint64_t cycles = h.run();

  for (std::uint64_t i = 0; i < words; ++i) {
    ASSERT_EQ(h.store().read_u32(dst + 4 * i), h.store().read_u32(src + 4 * i));
  }
  const std::uint64_t beats = words / 8;  // 256-bit bus
  EXPECT_LT(cycles, beats * 5 / 2) << "streaming collapsed";
}

TEST(DmaEngine, StridedGatherToContiguous) {
  for (const bool use_pack : {true, false}) {
    DmaHarness h(use_pack);
    const std::uint64_t n = 256;
    const std::int64_t stride = 40;  // 10 words
    const std::uint64_t src = h.store().alloc(n * stride, 64);
    const std::uint64_t dst = h.store().alloc(n * 4, 64);
    for (std::uint64_t i = 0; i < n; ++i) {
      h.store().write_u32(src + i * stride, 0xA000'0000u + std::uint32_t(i));
    }

    Descriptor d;
    d.src = Pattern::strided(src, stride);
    d.dst = Pattern::contiguous(dst);
    d.elem_bytes = 4;
    d.num_elems = n;
    h.engine().push(d);
    h.run();

    for (std::uint64_t i = 0; i < n; ++i) {
      ASSERT_EQ(h.store().read_u32(dst + 4 * i), 0xA000'0000u + i)
          << (use_pack ? "pack" : "narrow") << " element " << i;
    }
  }
}

TEST(DmaEngine, ContiguousToStridedScatter) {
  for (const bool use_pack : {true, false}) {
    DmaHarness h(use_pack);
    const std::uint64_t n = 128;
    const std::int64_t stride = 24;
    const std::uint64_t src = h.store().alloc(n * 4, 64);
    const std::uint64_t dst = h.store().alloc(n * stride, 64);
    fill_words(h.store(), src, n, 11);

    Descriptor d;
    d.src = Pattern::contiguous(src);
    d.dst = Pattern::strided(dst, stride);
    d.elem_bytes = 4;
    d.num_elems = n;
    h.engine().push(d);
    h.run();

    for (std::uint64_t i = 0; i < n; ++i) {
      ASSERT_EQ(h.store().read_u32(dst + i * stride),
                h.store().read_u32(src + 4 * i))
          << (use_pack ? "pack" : "narrow") << " element " << i;
    }
  }
}

TEST(DmaEngine, NegativeStrideGather) {
  DmaHarness h(/*use_pack=*/true);
  const std::uint64_t n = 64;
  const std::uint64_t src = h.store().alloc(n * 8, 64);
  const std::uint64_t dst = h.store().alloc(n * 4, 64);
  for (std::uint64_t i = 0; i < n; ++i) {
    h.store().write_u32(src + i * 8, std::uint32_t(1000 + i));
  }

  Descriptor d;
  // Walk the array backwards from its last element.
  d.src = Pattern::strided(src + (n - 1) * 8, -8);
  d.dst = Pattern::contiguous(dst);
  d.elem_bytes = 4;
  d.num_elems = n;
  h.engine().push(d);
  h.run();

  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(h.store().read_u32(dst + 4 * i), 1000 + (n - 1 - i));
  }
}

TEST(DmaEngine, WideElementGather) {
  // 16-byte elements move intact through the packed datapath.
  DmaHarness h(/*use_pack=*/true);
  const std::uint64_t n = 64;
  const unsigned es = 16;
  const std::int64_t stride = 48;
  const std::uint64_t src = h.store().alloc(n * stride, 64);
  const std::uint64_t dst = h.store().alloc(n * es, 64);
  for (std::uint64_t i = 0; i < n; ++i) {
    for (unsigned w = 0; w < es / 4; ++w) {
      h.store().write_u32(src + i * stride + 4 * w,
                          std::uint32_t(i * 16 + w));
    }
  }

  Descriptor d;
  d.src = Pattern::strided(src, stride);
  d.dst = Pattern::contiguous(dst);
  d.elem_bytes = es;
  d.num_elems = n;
  h.engine().push(d);
  h.run();

  for (std::uint64_t i = 0; i < n; ++i) {
    for (unsigned w = 0; w < es / 4; ++w) {
      ASSERT_EQ(h.store().read_u32(dst + i * es + 4 * w), i * 16 + w)
          << "element " << i << " word " << w;
    }
  }
}

class DmaIndirectBySize : public ::testing::TestWithParam<unsigned> {};

TEST_P(DmaIndirectBySize, GatherUsesIndexArray) {
  const unsigned index_bits = GetParam();
  for (const bool use_pack : {true, false}) {
    DmaHarness h(use_pack);
    const std::uint64_t n = 96;
    const std::uint64_t table = h.store().alloc(256 * 4, 64);
    const std::uint64_t idx = h.store().alloc(n * 4, 64);
    const std::uint64_t dst = h.store().alloc(n * 4, 64);
    fill_words(h.store(), table, 256, 23);
    std::vector<std::uint32_t> indices(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      indices[i] = std::uint32_t((i * 37 + 11) % 200);
    }
    const unsigned ib = index_bits / 8;
    for (std::uint64_t i = 0; i < n; ++i) {
      std::uint8_t raw[4] = {};
      std::memcpy(raw, &indices[i], ib);
      h.store().write(idx + i * ib, raw, ib);
    }

    Descriptor d;
    d.src = Pattern::indirect(table, idx, index_bits);
    d.dst = Pattern::contiguous(dst);
    d.elem_bytes = 4;
    d.num_elems = n;
    h.engine().push(d);
    h.run();

    for (std::uint64_t i = 0; i < n; ++i) {
      ASSERT_EQ(h.store().read_u32(dst + 4 * i),
                h.store().read_u32(table + 4ull * indices[i]))
          << (use_pack ? "pack" : "narrow") << " idx_bits=" << index_bits
          << " element " << i;
    }
    if (!use_pack) {
      // Narrow mode stages the whole index array through the engine.
      EXPECT_EQ(h.engine().stats().index_fetch_bytes, n * ib);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(IndexSizes, DmaIndirectBySize,
                         ::testing::Values(8u, 16u, 32u));

TEST(DmaEngine, IndirectScatter) {
  for (const bool use_pack : {true, false}) {
    DmaHarness h(use_pack);
    const std::uint64_t n = 64;
    const std::uint64_t src = h.store().alloc(n * 4, 64);
    const std::uint64_t idx = h.store().alloc(n * 4, 64);
    const std::uint64_t table = h.store().alloc(512 * 4, 64);
    fill_words(h.store(), src, n, 31);
    // Distinct scatter targets.
    for (std::uint64_t i = 0; i < n; ++i) {
      h.store().write_u32(idx + 4 * i, std::uint32_t(i * 7 % 448));
    }

    Descriptor d;
    d.src = Pattern::contiguous(src);
    d.dst = Pattern::indirect(table, idx, 32);
    d.elem_bytes = 4;
    d.num_elems = n;
    h.engine().push(d);
    h.run();

    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t target = table + 4ull * (i * 7 % 448);
      ASSERT_EQ(h.store().read_u32(target), h.store().read_u32(src + 4 * i))
          << (use_pack ? "pack" : "narrow") << " element " << i;
    }
  }
}

TEST(DmaEngine, ZeroLengthDescriptorCompletes) {
  DmaHarness h(/*use_pack=*/true);
  Descriptor d;
  d.src = Pattern::contiguous(kMemBase);
  d.dst = Pattern::contiguous(kMemBase + 0x1000);
  d.elem_bytes = 4;
  d.num_elems = 0;
  h.engine().push(d);
  h.run(1000);
  EXPECT_EQ(h.engine().stats().descriptors_done, 1u);
  EXPECT_EQ(h.engine().stats().bytes_moved, 0u);
}

TEST(DmaEngine, InMemoryChainExecutesAllLinks) {
  DmaHarness h(/*use_pack=*/true);
  const std::uint64_t n = 64;
  std::vector<Descriptor> descs(3);
  std::vector<std::uint64_t> srcs(3), dsts(3);
  for (std::size_t k = 0; k < 3; ++k) {
    srcs[k] = h.store().alloc(n * 4, 64);
    dsts[k] = h.store().alloc(n * 4, 64);
    fill_words(h.store(), srcs[k], n, std::uint32_t(100 + k));
    descs[k].src = Pattern::contiguous(srcs[k]);
    descs[k].dst = Pattern::contiguous(dsts[k]);
    descs[k].elem_bytes = 4;
    descs[k].num_elems = n;
  }
  const std::uint64_t head = dma::build_chain(h.store(), descs);
  h.engine().start_chain(head);
  h.run();

  EXPECT_EQ(h.engine().stats().descriptors_done, 3u);
  EXPECT_GT(h.engine().stats().desc_fetch_bytes, 0u);
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::uint64_t i = 0; i < n; ++i) {
      ASSERT_EQ(h.store().read_u32(dsts[k] + 4 * i),
                h.store().read_u32(srcs[k] + 4 * i))
          << "link " << k << " word " << i;
    }
  }
}

TEST(DmaEngine, RegisterDescriptorWithNextContinuesInMemory) {
  DmaHarness h(/*use_pack=*/true);
  const std::uint64_t n = 32;
  const std::uint64_t src1 = h.store().alloc(n * 4, 64);
  const std::uint64_t dst1 = h.store().alloc(n * 4, 64);
  const std::uint64_t src2 = h.store().alloc(n * 4, 64);
  const std::uint64_t dst2 = h.store().alloc(n * 4, 64);
  fill_words(h.store(), src1, n, 1);
  fill_words(h.store(), src2, n, 2);

  Descriptor tail;
  tail.src = Pattern::contiguous(src2);
  tail.dst = Pattern::contiguous(dst2);
  tail.elem_bytes = 4;
  tail.num_elems = n;
  const std::uint64_t tail_addr =
      h.store().alloc(dma::kDescriptorBytes, 64);
  dma::write_descriptor(h.store(), tail_addr, tail);

  Descriptor headd;
  headd.src = Pattern::contiguous(src1);
  headd.dst = Pattern::contiguous(dst1);
  headd.elem_bytes = 4;
  headd.num_elems = n;
  headd.next = tail_addr;
  h.engine().push(headd);
  h.run();

  EXPECT_EQ(h.engine().stats().descriptors_done, 2u);
  EXPECT_EQ(h.store().read_u32(dst2 + 4), h.store().read_u32(src2 + 4));
}

// --------------------------------------------------- pack-vs-narrow cycles

struct StrideCase {
  std::int64_t stride;
};

class PackNeverSlower : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(PackNeverSlower, GatherCyclesPackLeqNarrow) {
  const std::int64_t stride = GetParam();
  const std::uint64_t n = 128;
  std::uint64_t cycles_pack = 0;
  std::uint64_t cycles_narrow = 0;
  for (const bool use_pack : {true, false}) {
    DmaHarness h(use_pack);
    const std::uint64_t src = h.store().alloc(n * std::uint64_t(stride) + 64,
                                              64);
    const std::uint64_t dst = h.store().alloc(n * 4, 64);
    for (std::uint64_t i = 0; i < n; ++i) {
      h.store().write_u32(src + i * std::uint64_t(stride),
                          std::uint32_t(i ^ 0x55));
    }
    Descriptor d;
    d.src = Pattern::strided(src, stride);
    d.dst = Pattern::contiguous(dst);
    d.elem_bytes = 4;
    d.num_elems = n;
    h.engine().push(d);
    const std::uint64_t cycles = h.run();
    for (std::uint64_t i = 0; i < n; ++i) {
      ASSERT_EQ(h.store().read_u32(dst + 4 * i), (i ^ 0x55));
    }
    (use_pack ? cycles_pack : cycles_narrow) = cycles;
  }
  EXPECT_LE(cycles_pack, cycles_narrow)
      << "AXI-Pack gather slower than narrow per-element at stride "
      << stride;
}

INSTANTIATE_TEST_SUITE_P(Strides, PackNeverSlower,
                         ::testing::Values(4, 8, 12, 20, 32, 36, 64, 68,
                                           128, 256));

// ----------------------------------------------------------- robustness

TEST(DmaRobustness, MalformedInMemoryDescriptorErrorsTheChain) {
  // A chain whose second link is garbage: the first transfer completes,
  // the fetch of the malformed link is counted as an error completion
  // (never executed, never followed), and the engine drains cleanly.
  DmaHarness h(/*use_pack=*/true);
  const std::uint64_t n = 64;
  const std::uint64_t src = h.store().alloc(n * 4, 64);
  const std::uint64_t dst = h.store().alloc(n * 4, 64);
  fill_words(h.store(), src, n, 7);

  const std::uint64_t bad_addr = h.store().alloc(dma::kDescriptorBytes, 64);
  for (std::uint64_t i = 0; i < dma::kDescriptorBytes; i += 4) {
    h.store().write_u32(bad_addr + i, 0xDEADBEEFu);  // flags word invalid
  }

  Descriptor head;
  head.src = Pattern::contiguous(src);
  head.dst = Pattern::contiguous(dst);
  head.elem_bytes = 4;
  head.num_elems = n;
  head.next = bad_addr;
  h.engine().push(head);
  h.run();

  EXPECT_EQ(h.engine().stats().descriptors_done, 1u);
  EXPECT_EQ(h.engine().stats().malformed_descriptors, 1u);
  EXPECT_EQ(h.engine().stats().error_descriptors, 1u);
  EXPECT_EQ(h.engine().retry_stats().failed_ops, 1u);
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(h.store().read_u32(dst + 4 * i), h.store().read_u32(src + 4 * i))
        << "word " << i;
  }
}

TEST(DmaRobustness, DramReadFaultIsRetriedTransparently) {
  // An uncorrectable DRAM read fault mid-transfer: the engine drains the
  // attempt, backs off and replays — the moved data is bit-identical.
  sys::SystemBuilder b;
  DmaConfig dc;
  dc.use_pack = true;
  dc.retry.max_attempts = 4;
  dc.retry.timeout_cycles = 50'000;
  dc.retry.backoff = 16;
  b.bus_bits(256).mem_region(kMemBase, 16 << 20).queue_depth(4);
  b.memory(mem::MemoryKind::dram);
  b.faults(sim::FaultConfig{});
  b.attach_dma(dc);
  auto system = b.build();
  system->fault_plan()->force(sim::FaultSite::dram_read, 9, 2);

  const std::uint64_t n = 96;
  const std::int64_t stride = 36;
  const std::uint64_t src =
      system->store().alloc(n * static_cast<std::uint64_t>(stride) + 64, 64);
  const std::uint64_t dst = system->store().alloc(n * 4, 64);
  for (std::uint64_t i = 0; i < n; ++i) {
    system->store().write_u32(src + i * static_cast<std::uint64_t>(stride),
                              0xABC000u + std::uint32_t(i));
  }
  Descriptor d;
  d.src = Pattern::strided(src, stride);
  d.dst = Pattern::contiguous(dst);
  d.elem_bytes = 4;
  d.num_elems = n;
  system->dma(0).push(d);
  EXPECT_TRUE(system->run_until_drained(1'000'000));

  EXPECT_EQ(system->fault_plan()->stats().dram_uncorrectable, 1u);
  EXPECT_GE(system->dma(0).retry_stats().retries, 1u);
  EXPECT_EQ(system->dma(0).retry_stats().failed_ops, 0u);
  EXPECT_EQ(system->dma(0).stats().descriptors_done, 1u);
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(system->store().read_u32(dst + 4 * i), 0xABC000u + i)
        << "word " << i;
  }
}

TEST(DmaRobustness, DecodeErrorFailsTheDescriptorWithoutRetry) {
  // A source outside the decoded memory window: the crossbar synthesizes
  // DECERR, which is fatal — no retry attempts are burned, the descriptor
  // completes as an error and the engine goes idle instead of crashing.
  sys::SystemBuilder b;
  DmaConfig dc;
  dc.use_pack = false;
  dc.retry.max_attempts = 4;
  dc.retry.timeout_cycles = 50'000;
  b.bus_bits(256).mem_region(kMemBase, 16 << 20).queue_depth(4);
  b.faults(sim::FaultConfig{});
  b.attach_dma(dc);
  b.attach_port("idle");  // second master forces a decoding crossbar
  auto system = b.build();

  const std::uint64_t n = 32;
  const std::uint64_t dst = system->store().alloc(n * 4, 64);
  Descriptor d;
  d.src = Pattern::contiguous(kMemBase - 0x10000);  // below the window
  d.dst = Pattern::contiguous(dst);
  d.elem_bytes = 4;
  d.num_elems = n;
  system->dma(0).push(d);
  EXPECT_TRUE(system->run_until_drained(1'000'000));

  EXPECT_EQ(system->dma(0).stats().error_descriptors, 1u);
  EXPECT_EQ(system->dma(0).retry_stats().failed_ops, 1u);
  EXPECT_EQ(system->dma(0).retry_stats().retries, 0u);
  EXPECT_EQ(system->dma(0).stats().descriptors_done, 0u);
}

// ------------------------------------------------------- latency stamps
//
// The engine stamps each register or chain descriptor when it is queued and
// records queue-entry -> completion at the end of the completing cycle. The
// values below were read off the engine and pin those stamps: an
// off-by-one in the clock the engine reads moves every one of them.

/// The engine's latency histogram after one phase of a run.
struct LatencyPin {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;  ///< mean = sum / count, exactly
  std::uint64_t max = 0;
  bool operator==(const LatencyPin&) const = default;
};

std::ostream& operator<<(std::ostream& os, const LatencyPin& p) {
  return os << "{" << p.count << ", " << p.sum << ", " << p.max << "}";
}

LatencyPin pin_of(const DmaEngine& e) {
  const util::Histogram& h = e.latency_hist();
  return LatencyPin{h.count(), h.sum(), h.max()};
}

Descriptor contiguous_copy(mem::BackingStore& store, std::uint64_t n,
                           std::uint32_t seed) {
  const std::uint64_t src = store.alloc(n * 4, 64);
  fill_words(store, src, n, seed);
  Descriptor d;
  d.src = Pattern::contiguous(src);
  d.dst = Pattern::contiguous(store.alloc(n * 4, 64));
  d.num_elems = n;
  return d;
}

Descriptor strided_gather(mem::BackingStore& store, std::uint64_t n,
                          std::int64_t stride) {
  const std::uint64_t src =
      store.alloc(n * static_cast<std::uint64_t>(stride) + 64, 64);
  for (std::uint64_t i = 0; i < n; ++i) {
    store.write_u32(src + i * static_cast<std::uint64_t>(stride),
                    0xABC000u + std::uint32_t(i));
  }
  Descriptor d;
  d.src = Pattern::strided(src, stride);
  d.dst = Pattern::contiguous(store.alloc(n * 4, 64));
  d.num_elems = n;
  return d;
}

/// Every register and chain descriptor source through one engine on banked
/// SRAM; returns the histogram after each phase.
std::vector<LatencyPin> descriptor_source_phases(bool naive) {
  sys::SystemBuilder b;
  b.bus_bits(256).mem_region(kMemBase, 16 << 20).queue_depth(4);
  b.naive_kernel(naive);
  b.attach_dma();
  auto system = b.build();
  mem::BackingStore& store = system->store();
  DmaEngine& e = system->dma(0);
  std::vector<LatencyPin> pins;
  const auto drain = [&] {
    EXPECT_TRUE(system->run_until_drained(1'000'000));
    pins.push_back(pin_of(e));
  };

  // One descriptor at the start, and one queued while it is in flight.
  e.push(contiguous_copy(store, 256, 1));
  system->kernel().run(20);
  e.push(strided_gather(store, 96, 36));
  drain();

  // An idle gap (the engine sleeps on the gated kernel), then an indirect
  // gather.
  system->kernel().run(500);
  const std::uint64_t n = 64;
  const std::uint64_t data = store.alloc(4096, 64);
  const std::uint64_t idx = store.alloc(n * 4, 64);
  fill_words(store, data, 1024, 3);
  for (std::uint64_t i = 0; i < n; ++i) {
    store.write_u32(idx + 4 * i, std::uint32_t((i * 37) % 1024));
  }
  Descriptor gather;
  gather.src = Pattern::indirect(data, idx);
  gather.dst = Pattern::contiguous(store.alloc(n * 4, 64));
  gather.num_elems = n;
  e.push(gather);
  drain();

  // A zero-length descriptor completes in the cycle it starts.
  Descriptor empty = contiguous_copy(store, 0, 0);
  e.push(empty);
  drain();

  // An in-memory chain of three.
  e.start_chain(dma::build_chain(
      store, {contiguous_copy(store, 64, 4), strided_gather(store, 32, 20),
              contiguous_copy(store, 48, 5)}));
  drain();

  // A register descriptor continuing into memory.
  Descriptor tail = contiguous_copy(store, 32, 6);
  const std::uint64_t tail_addr = store.alloc(dma::kDescriptorBytes, 64);
  dma::write_descriptor(store, tail_addr, tail);
  Descriptor head = contiguous_copy(store, 32, 7);
  head.next = tail_addr;
  e.push(head);
  drain();

  // A chain whose second link is malformed: only the head is recorded.
  const std::uint64_t bad = store.alloc(dma::kDescriptorBytes, 64);
  for (std::uint64_t i = 0; i < dma::kDescriptorBytes; i += 4) {
    store.write_u32(bad + i, 0xDEADBEEFu);
  }
  Descriptor to_bad = contiguous_copy(store, 64, 8);
  to_bad.next = bad;
  e.push(to_bad);
  drain();

  EXPECT_EQ(e.stats().descriptors_done, 10u);
  EXPECT_EQ(e.stats().malformed_descriptors, 1u);
  return pins;
}

TEST(DmaLatency, EveryDescriptorSourceIsStampedExactly) {
  const std::vector<LatencyPin> expected = {
      {2, 176, 98}, {3, 221, 98}, {4, 222, 98},
      {7, 353, 98}, {9, 421, 98}, {10, 453, 98},
  };
  for (const bool naive : {false, true}) {
    const std::vector<LatencyPin> got = descriptor_source_phases(naive);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]) << "phase " << i << " naive " << naive;
    }
  }
}

/// Outcome of one faulted DMA run on DRAM.
struct FaultedDmaRun {
  sim::Cycle cycles = 0;
  sim::RetryStats retry;
  LatencyPin latency;
};

/// A strided gather on DRAM with one pinned fault, retries on (4 attempts,
/// backoff 16) and a 200-cycle watchdog.
FaultedDmaRun faulted_gather(bool naive, sim::FaultSite site,
                             std::uint64_t nth, int kind,
                             unsigned breaker_threshold = 0) {
  sys::SystemBuilder b;
  b.bus_bits(256).mem_region(kMemBase, 16 << 20).queue_depth(4);
  b.memory(mem::MemoryKind::dram);
  b.naive_kernel(naive);
  sim::FaultConfig fc;
  fc.link_stall_cycles = 600;
  b.faults(fc);
  DmaConfig dc;
  dc.retry.max_attempts = 4;
  dc.retry.timeout_cycles = 200;
  dc.retry.backoff = 16;
  dc.retry.breaker_threshold = breaker_threshold;
  b.attach_dma(dc);
  auto system = b.build();
  system->fault_plan()->force(site, nth, kind);

  const Descriptor d = strided_gather(system->store(), 96, 36);
  system->dma(0).push(d);
  const sim::RunStatus status = system->run_until_drained(1'000'000);
  EXPECT_TRUE(status.completed);
  EXPECT_EQ(system->dma(0).stats().descriptors_done, 1u);
  for (std::uint64_t i = 0; i < d.num_elems; ++i) {
    EXPECT_EQ(system->store().read_u32(d.dst.addr + 4 * i), 0xABC000u + i);
  }
  return FaultedDmaRun{status.cycles, system->dma(0).retry_stats(),
                       pin_of(system->dma(0))};
}

TEST(DmaLatency, FaultedTransfersReplayOnTheWatchdogAndBackoff) {
  for (const bool naive : {false, true}) {
    // An uncorrectable DRAM read: drain, back off 16 cycles, replay.
    const FaultedDmaRun ecc =
        faulted_gather(naive, sim::FaultSite::dram_read, 9, 2);
    EXPECT_EQ(ecc.cycles, 154u);
    EXPECT_EQ(ecc.retry.retries, 1u);
    EXPECT_EQ(ecc.retry.timeouts, 0u);
    EXPECT_EQ(ecc.latency, (LatencyPin{1, 154, 154}));

    // The same fault trips a one-attempt breaker: the replay runs narrow.
    const FaultedDmaRun breaker =
        faulted_gather(naive, sim::FaultSite::dram_read, 9, 2, 1);
    EXPECT_TRUE(breaker.retry.degraded);
    EXPECT_EQ(breaker.cycles, 386u);
    EXPECT_EQ(breaker.retry.retries, 1u);
    EXPECT_EQ(breaker.latency, (LatencyPin{1, 386, 386}));

    // A 600-cycle link stall outlasts the 200-cycle watchdog twice: the
    // engine aborts, waits out the stall for the late beats, backs off and
    // replays.
    const FaultedDmaRun stall =
        faulted_gather(naive, sim::FaultSite::link_r, 5, 3);
    EXPECT_EQ(stall.cycles, 734u);
    EXPECT_EQ(stall.retry.retries, 1u);
    EXPECT_EQ(stall.retry.timeouts, 2u);
    EXPECT_EQ(stall.latency, (LatencyPin{1, 734, 734}));
  }
}

}  // namespace
}  // namespace axipack
