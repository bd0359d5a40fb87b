// AXI-Pack adapter tests: functional correctness of all five converters
// (regular bursts, strided gather/scatter, indirect gather/scatter with all
// index sizes), ordering across converters, and randomized property sweeps
// comparing packed payloads against reference gathers.
#include "test_common.hpp"

#include <algorithm>
#include <cstring>
#include <tuple>
#include <vector>

#include "adapter_harness.hpp"
#include "axi/burst.hpp"
#include "mem/ideal_memory.hpp"
#include "pack/port_mux.hpp"
#include "util/rng.hpp"

namespace axipack {
namespace {

using testing::AdapterHarness;
using testing::AdapterHarnessConfig;

constexpr std::uint64_t kBase = 0x8000'0000ull;

std::vector<std::uint8_t> bytes_of_u32s(const std::vector<std::uint32_t>& v) {
  std::vector<std::uint8_t> out(v.size() * 4);
  std::memcpy(out.data(), v.data(), out.size());
  return out;
}

void fill_pattern(mem::BackingStore& store, std::uint64_t addr,
                  std::uint32_t words) {
  for (std::uint32_t i = 0; i < words; ++i) {
    store.write_u32(addr + 4ull * i, 0x1000'0000u + i);
  }
}

TEST(BaseConverterTest, FullWidthReadBurst) {
  AdapterHarness h;
  fill_pattern(h.store(), kBase, 64);
  const auto bursts = axi::split_contiguous(kBase, 64 * 4, 32);
  ASSERT_EQ(bursts.size(), 1u);
  const auto data = h.read_burst(bursts[0]);
  ASSERT_EQ(data.size(), 64u * 4);
  std::vector<std::uint32_t> words(64);
  std::memcpy(words.data(), data.data(), data.size());
  for (std::uint32_t i = 0; i < 64; ++i) EXPECT_EQ(words[i], 0x1000'0000u + i);
}

/// Word at the natural byte lane of `addr` within a beat.
std::uint32_t lane_word(const axi::AxiR& beat, std::uint64_t addr,
                        unsigned bus_bytes = 32) {
  std::uint32_t value = 0;
  axi::extract_bytes(beat.data, static_cast<unsigned>(addr % bus_bytes),
                     reinterpret_cast<std::uint8_t*>(&value), 4);
  return value;
}

TEST(BaseConverterTest, NarrowSingleBeatRead) {
  AdapterHarness h;
  fill_pattern(h.store(), kBase, 64);
  axi::AxiAr ar;
  ar.addr = kBase + 4 * 13;
  ar.size = 2;
  ar.len = 0;
  const auto beats = h.read_burst_beats(ar);
  ASSERT_EQ(beats.size(), 1u);
  // Narrow beats carry data at the address's natural byte lanes.
  EXPECT_EQ(lane_word(beats[0], ar.addr), 0x1000'0000u + 13);
}

TEST(BaseConverterTest, NarrowMultiBeatReadWalksLanes) {
  AdapterHarness h;
  fill_pattern(h.store(), kBase, 64);
  axi::AxiAr ar;
  ar.addr = kBase + 4 * 5;
  ar.size = 2;   // 4-byte beats on the 32-byte bus
  ar.len = 11;   // 12 beats crossing a bus-line boundary
  const auto beats = h.read_burst_beats(ar);
  ASSERT_EQ(beats.size(), 12u);
  for (unsigned i = 0; i < 12; ++i) {
    EXPECT_EQ(lane_word(beats[i], ar.addr + 4ull * i), 0x1000'0000u + 5 + i)
        << "beat " << i;
  }
}

TEST(BaseConverterTest, UnalignedFullWidthRead) {
  AdapterHarness h;
  fill_pattern(h.store(), kBase, 64);
  axi::AxiAr ar;
  ar.addr = kBase + 4 * 3;  // mid-line start
  ar.size = 5;              // full 32-byte beats
  ar.len = 2;
  const auto beats = h.read_burst_beats(ar);
  ASSERT_EQ(beats.size(), 3u);
  // First beat: data from the start address to the end of its line.
  EXPECT_EQ(beats[0].useful_bytes, 32u - (4 * 3) % 32);
  EXPECT_EQ(lane_word(beats[0], ar.addr), 0x1000'0000u + 3);
  // Later beats are line-aligned (standard AXI INCR alignment).
  EXPECT_EQ(lane_word(beats[1], kBase + 32), 0x1000'0000u + 8);
  EXPECT_EQ(lane_word(beats[2], kBase + 64), 0x1000'0000u + 16);
}

TEST(BaseConverterTest, FixedReadBurstPollsOneAddress) {
  AdapterHarness h;
  fill_pattern(h.store(), kBase, 8);
  axi::AxiAr ar;
  ar.addr = kBase + 4 * 6;
  ar.size = 2;
  ar.len = 3;  // four polls
  ar.burst = axi::BurstType::fixed;
  const auto beats = h.read_burst_beats(ar);
  ASSERT_EQ(beats.size(), 4u);
  for (const auto& beat : beats) {
    EXPECT_EQ(lane_word(beat, ar.addr), 0x1000'0000u + 6);
  }
}

TEST(BaseConverterTest, WrapReadBurstWrapsAtBoundary) {
  // Critical-word-first cache-line fill: a 4-beat wrapping burst starting
  // mid-line returns the line from the requested word, wrapping at the
  // 16-byte boundary.
  AdapterHarness h;
  fill_pattern(h.store(), kBase, 16);
  axi::AxiAr ar;
  ar.addr = kBase + 4 * 2;  // third word of the wrap-4 container
  ar.size = 2;
  ar.len = 3;
  ar.burst = axi::BurstType::wrap;
  const auto beats = h.read_burst_beats(ar);
  ASSERT_EQ(beats.size(), 4u);
  const std::uint64_t addrs[] = {kBase + 8, kBase + 12, kBase + 0, kBase + 4};
  const std::uint32_t expect[] = {0x1000'0002u, 0x1000'0003u, 0x1000'0000u,
                                  0x1000'0001u};
  for (unsigned i = 0; i < 4; ++i) {
    EXPECT_EQ(lane_word(beats[i], addrs[i]), expect[i]) << "beat " << i;
  }
}

TEST(BaseConverterTest, FixedWriteBurstLastBeatWins) {
  AdapterHarness h;
  h.store().write_u32(kBase + 64, 0);
  axi::AxiAw aw;
  aw.addr = kBase + 64;
  aw.size = 2;
  aw.len = 3;
  aw.burst = axi::BurstType::fixed;
  const unsigned lane = 64 % 32;
  h.write_burst_beats(aw, [&](unsigned i) {
    axi::AxiW beat;
    const std::uint32_t value = 0xF1F0'0000u + i;
    axi::place_bytes(beat.data, lane,
                     reinterpret_cast<const std::uint8_t*>(&value), 4);
    beat.strb = axi::strb_mask(lane, 4);
    beat.useful_bytes = 4;
    return beat;
  });
  EXPECT_EQ(h.store().read_u32(kBase + 64), 0xF1F0'0003u);
}

TEST(BaseConverterTest, SubWordWriteStrobesSpareNeighbors) {
  // A one-byte write (AxSIZE = 0) must only touch its strobed lane.
  AdapterHarness h;
  h.store().write_u32(kBase + 4 * 7, 0xAABB'CCDDu);
  axi::AxiAw aw;
  aw.addr = kBase + 4 * 7 + 2;  // third byte of the word
  aw.size = 0;
  aw.len = 0;
  const unsigned lane = static_cast<unsigned>(aw.addr % 32);
  h.write_burst_beats(aw, [&](unsigned) {
    axi::AxiW beat;
    const std::uint8_t value = 0xEE;
    axi::place_bytes(beat.data, lane, &value, 1);
    beat.strb = axi::strb_mask(lane, 1);
    beat.useful_bytes = 1;
    return beat;
  });
  EXPECT_EQ(h.store().read_u32(kBase + 4 * 7), 0xAAEE'CCDDu);
}

TEST(BaseConverterTest, NarrowWriteReadBack) {
  AdapterHarness h;
  axi::AxiAw aw;
  aw.addr = kBase + 4 * 9;
  aw.size = 2;
  aw.len = 0;
  // Build the narrow W beat manually at the right lane.
  bool aw_pushed = false;
  bool w_pushed = false;
  bool done = false;
  h.kernel().run_until(
      [&] {
        if (!aw_pushed && h.port().aw.can_push()) {
          h.port().aw.push(aw);
          aw_pushed = true;
        }
        if (aw_pushed && !w_pushed && h.port().w.can_push()) {
          axi::AxiW beat;
          const std::uint32_t value = 0xA5A5'5A5A;
          const unsigned lane = (4 * 9) % 32;
          axi::place_bytes(beat.data, lane,
                           reinterpret_cast<const std::uint8_t*>(&value), 4);
          beat.strb = axi::strb_mask(lane, 4);
          beat.useful_bytes = 4;
          beat.last = true;
          h.port().w.push(beat);
          w_pushed = true;
        }
        if (h.port().b.can_pop()) {
          h.port().b.pop();
          done = true;
        }
        return done;
      },
      10'000);
  ASSERT_TRUE(done);
  EXPECT_EQ(h.store().read_u32(kBase + 4 * 9), 0xA5A5'5A5Au);
}

TEST(BaseConverterTest, ConcurrentReadsAndWritesDoNotCrossLanes) {
  // Reads and writes of concurrent bursts interleave on the shared word
  // lanes; the packer must never consume a write acknowledgement as read
  // data (regression: with deep queues this corrupted data and then
  // deadlocked ack collection).
  AdapterHarnessConfig hc;
  hc.queue_depth = 8;
  AdapterHarness h(hc);
  fill_pattern(h.store(), kBase, 512);
  const std::uint64_t dst = kBase + 0x10000;

  // One long write burst and one long read burst in flight together.
  const auto wbursts = axi::split_contiguous(dst, 128 * 4, 32);
  const auto rbursts = axi::split_contiguous(kBase, 128 * 4, 32);
  ASSERT_EQ(wbursts.size(), 1u);
  ASSERT_EQ(rbursts.size(), 1u);

  bool aw_pushed = false;
  bool ar_pushed = false;
  unsigned w_sent = 0;
  std::vector<std::uint32_t> got;
  bool b_seen = false;
  bool r_done = false;
  const bool ok = h.kernel().run_until(
      [&] {
        if (!aw_pushed && h.port().aw.can_push()) {
          h.port().aw.push(wbursts[0]);
          aw_pushed = true;
        }
        if (!ar_pushed && h.port().ar.can_push()) {
          h.port().ar.push(rbursts[0]);
          ar_pushed = true;
        }
        if (aw_pushed && w_sent < wbursts[0].beats() &&
            h.port().w.can_push()) {
          axi::AxiW beat;
          for (unsigned e = 0; e < 8; ++e) {
            const std::uint32_t v = 0xC0DE'0000u + w_sent * 8 + e;
            axi::place_bytes(beat.data, 4 * e,
                             reinterpret_cast<const std::uint8_t*>(&v), 4);
          }
          beat.strb = axi::strb_mask(0, 32);
          beat.useful_bytes = 32;
          ++w_sent;
          beat.last = w_sent == wbursts[0].beats();
          h.port().w.push(beat);
        }
        while (h.port().r.can_pop()) {
          const axi::AxiR beat = h.port().r.pop();
          for (unsigned e = 0; e < beat.useful_bytes / 4; ++e) {
            std::uint32_t v;
            axi::extract_bytes(beat.data, 4 * e,
                               reinterpret_cast<std::uint8_t*>(&v), 4);
            got.push_back(v);
          }
          if (beat.last) r_done = true;
        }
        if (h.port().b.can_pop()) {
          h.port().b.pop();
          b_seen = true;
        }
        return r_done && b_seen;
      },
      50'000);
  ASSERT_TRUE(ok) << "concurrent read+write did not drain";

  ASSERT_EQ(got.size(), 128u);
  for (std::uint32_t i = 0; i < 128; ++i) {
    EXPECT_EQ(got[i], 0x1000'0000u + i) << "read word " << i;
  }
  for (std::uint32_t i = 0; i < 128; ++i) {
    EXPECT_EQ(h.store().read_u32(dst + 4 * i), 0xC0DE'0000u + i)
        << "written word " << i;
  }
}

TEST(StridedReadTest, GathersStride) {
  AdapterHarness h;
  fill_pattern(h.store(), kBase, 4096);
  const std::int64_t stride = 5 * 4;  // the paper Fig. 1 example: stride 5
  const auto bursts = axi::split_pack_strided(kBase, stride, 4, 20, 32);
  ASSERT_EQ(bursts.size(), 1u);
  const auto data = h.read_burst(bursts[0]);
  ASSERT_EQ(data.size(), 20u * 4);
  std::vector<std::uint32_t> words(20);
  std::memcpy(words.data(), data.data(), data.size());
  for (std::uint32_t i = 0; i < 20; ++i) {
    EXPECT_EQ(words[i], 0x1000'0000u + 5 * i) << "element " << i;
  }
}

TEST(StridedReadTest, NegativeStride) {
  AdapterHarness h;
  fill_pattern(h.store(), kBase, 256);
  const auto bursts =
      axi::split_pack_strided(kBase + 255 * 4, -4, 4, 17, 32);
  const auto data = h.read_burst(bursts[0]);
  std::vector<std::uint32_t> words(17);
  std::memcpy(words.data(), data.data(), data.size());
  for (std::uint32_t i = 0; i < 17; ++i) {
    EXPECT_EQ(words[i], 0x1000'0000u + 255 - i);
  }
}

TEST(StridedReadTest, WideElements64Bit) {
  AdapterHarness h;
  fill_pattern(h.store(), kBase, 4096);
  // 8-byte elements, stride 24 bytes: element i = words {6i, 6i+1}.
  const auto bursts = axi::split_pack_strided(kBase, 24, 8, 10, 32);
  const auto data = h.read_burst(bursts[0]);
  ASSERT_EQ(data.size(), 10u * 8);
  std::vector<std::uint32_t> words(20);
  std::memcpy(words.data(), data.data(), data.size());
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(words[2 * i], 0x1000'0000u + 6 * i);
    EXPECT_EQ(words[2 * i + 1], 0x1000'0000u + 6 * i + 1);
  }
}

TEST(StridedReadTest, PartialLastBeat) {
  AdapterHarness h;
  fill_pattern(h.store(), kBase, 256);
  const auto bursts = axi::split_pack_strided(kBase, 8, 4, 11, 32);
  ASSERT_EQ(bursts[0].beats(), 2u);  // 8 + 3
  const auto data = h.read_burst(bursts[0]);
  ASSERT_EQ(data.size(), 11u * 4);
  std::vector<std::uint32_t> words(11);
  std::memcpy(words.data(), data.data(), data.size());
  for (std::uint32_t i = 0; i < 11; ++i) {
    EXPECT_EQ(words[i], 0x1000'0000u + 2 * i);
  }
}

TEST(StridedWriteTest, ScattersStride) {
  AdapterHarness h;
  std::vector<std::uint32_t> payload(20);
  for (std::uint32_t i = 0; i < 20; ++i) payload[i] = 0xBEEF'0000 + i;
  const auto aws = axi::split_pack_strided(kBase, 12, 4, 20, 32);
  ASSERT_EQ(aws.size(), 1u);
  h.write_burst(aws[0], bytes_of_u32s(payload));
  for (std::uint32_t i = 0; i < 20; ++i) {
    EXPECT_EQ(h.store().read_u32(kBase + 12ull * i), 0xBEEF'0000u + i);
  }
}

TEST(IndirectReadTest, GathersByIndex32) {
  AdapterHarness h;
  fill_pattern(h.store(), kBase, 4096);
  const std::uint64_t idx_base = kBase + 64 * 1024;
  const std::vector<std::uint32_t> indices = {4,  9,  14, 19, 24, 29, 34,
                                              39, 44, 49, 3,  1,  0,  2};
  h.store().write(idx_base, indices.data(), indices.size() * 4);
  const auto bursts = axi::split_pack_indirect(
      kBase, idx_base, 32, 4, indices.size(), 32);
  const auto data = h.read_burst(bursts[0]);
  ASSERT_EQ(data.size(), indices.size() * 4);
  std::vector<std::uint32_t> words(indices.size());
  std::memcpy(words.data(), data.data(), data.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(words[i], 0x1000'0000u + indices[i]) << "element " << i;
  }
}

TEST(IndirectReadTest, Index16And8) {
  for (const unsigned idx_bits : {16u, 8u}) {
    AdapterHarness h;
    fill_pattern(h.store(), kBase, 512);
    const std::uint64_t idx_base = kBase + 64 * 1024;
    const std::uint32_t n = 13;
    std::vector<std::uint8_t> raw;
    std::vector<std::uint32_t> expect;
    util::Rng rng(55);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t idx = static_cast<std::uint32_t>(rng.below(200));
      expect.push_back(idx);
      if (idx_bits == 16) {
        raw.push_back(static_cast<std::uint8_t>(idx & 0xFF));
        raw.push_back(static_cast<std::uint8_t>(idx >> 8));
      } else {
        raw.push_back(static_cast<std::uint8_t>(idx & 0xFF));
      }
    }
    h.store().write(idx_base, raw.data(), raw.size());
    const auto bursts =
        axi::split_pack_indirect(kBase, idx_base, idx_bits, 4, n, 32);
    const auto data = h.read_burst(bursts[0]);
    ASSERT_EQ(data.size(), n * 4u);
    std::vector<std::uint32_t> words(n);
    std::memcpy(words.data(), data.data(), data.size());
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t want =
          0x1000'0000u + (expect[i] & (idx_bits == 16 ? 0xFFFFu : 0xFFu));
      EXPECT_EQ(words[i], want) << "idx_bits=" << idx_bits << " elem " << i;
    }
  }
}

TEST(IndirectWriteTest, ScattersByIndex) {
  AdapterHarness h;
  const std::uint64_t idx_base = kBase + 64 * 1024;
  const std::vector<std::uint32_t> indices = {7, 3, 11, 200, 42, 0, 9};
  h.store().write(idx_base, indices.data(), indices.size() * 4);
  std::vector<std::uint32_t> payload(indices.size());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = 0xCAFE'0000u + static_cast<std::uint32_t>(i);
  }
  const auto aws = axi::split_pack_indirect(kBase, idx_base, 32, 4,
                                            indices.size(), 32);
  h.write_burst(aws[0], bytes_of_u32s(payload));
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(h.store().read_u32(kBase + 4ull * indices[i]),
              0xCAFE'0000u + i);
  }
}

TEST(AdapterTest, BackToBackMixedReads) {
  // A regular read between two strided reads: R bursts must come back in
  // AR order with correct data.
  AdapterHarness h;
  fill_pattern(h.store(), kBase, 4096);
  const auto s1 = axi::split_pack_strided(kBase, 8, 4, 16, 32)[0];
  const auto reg = axi::split_contiguous(kBase, 32 * 4, 32)[0];
  const auto s2 = axi::split_pack_strided(kBase + 4, 8, 4, 16, 32)[0];

  std::vector<std::vector<std::uint8_t>> results(3);
  std::size_t pushed = 0;
  std::size_t finished = 0;
  const std::vector<axi::AxiAr> ars = {s1, reg, s2};
  h.kernel().run_until(
      [&] {
        if (pushed < ars.size() && h.port().ar.can_push()) {
          h.port().ar.push(ars[pushed]);
          ++pushed;
        }
        while (h.port().r.can_pop()) {
          const axi::AxiR beat = h.port().r.pop();
          for (unsigned i = 0; i < beat.useful_bytes; ++i) {
            results[finished].push_back(beat.data[i]);
          }
          if (beat.last) ++finished;
        }
        return finished == 3;
      },
      100'000);
  ASSERT_EQ(finished, 3u);
  // First strided: words 0,2,4,...
  std::vector<std::uint32_t> w0(16);
  std::memcpy(w0.data(), results[0].data(), 64);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(w0[i], 0x1000'0000u + 2 * i);
  // Regular read: words 0..31.
  std::vector<std::uint32_t> w1(32);
  std::memcpy(w1.data(), results[1].data(), 128);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(w1[i], 0x1000'0000u + i);
  // Second strided: words 1,3,5,...
  std::vector<std::uint32_t> w2(16);
  std::memcpy(w2.data(), results[2].data(), 64);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(w2[i], 0x1000'0000u + 1 + 2 * i);
}

TEST(AdapterTest, StridedThroughputConflictFree) {
  // Stride = 17 words on 17 banks cycles all banks; a long burst should
  // stream near one beat per cycle.
  AdapterHarness h;
  fill_pattern(h.store(), kBase, 1u << 18);
  const auto bursts = axi::split_pack_strided(kBase, 4 * 4, 4, 2048, 32);
  const std::uint64_t start = h.kernel().now();
  for (const auto& ar : bursts) {
    h.read_burst(ar);
  }
  const std::uint64_t cycles = h.kernel().now() - start;
  const std::uint64_t beats = 2048 / 8;
  // Allow pipeline fill + inter-burst bubbles.
  EXPECT_LT(cycles, beats * 13 / 10 + 40);
}

/// Request streams sharing one memory port through a PortMux, by default
/// two armed with the coalesced adapter's sticky arbitration; records the
/// cycle of every grant per converter and the converters in grant order.
class MuxHarness {
 public:
  static constexpr std::size_t kQuantum = 64;
  static constexpr sim::Cycle kPatience = 32;

  /// `quantum` 0 is plain per-cycle round-robin.
  explicit MuxHarness(unsigned convs = 2, std::size_t quantum = kQuantum,
                      sim::Cycle patience = kPatience)
      : store_(kBase, 1 << 12),
        memory_(kernel_, store_, one_port()),
        mux_(kernel_, memory_, convs, 4, 128),
        pushed_(convs, 0),
        grants_(convs) {
    for (unsigned c = 0; c < convs; ++c) lanes_.push_back(mux_.lanes_of(c)[0]);
    mux_.set_sticky_quantum(quantum, patience);
  }

  sim::Cycle now() const { return kernel_.now(); }

  /// Queues one read for converter `conv` (visible next cycle); false when
  /// its lane Fifo is full.
  bool push(unsigned conv) {
    if (!lanes_[conv].req->can_push()) return false;
    mem::WordReq r;
    r.addr = kBase + 4 * conv;
    lanes_[conv].req->push(r);
    ++pushed_[conv];
    return true;
  }

  /// Advances one cycle, recording the converters granted in it.
  void step() {
    const sim::Cycle t = kernel_.now();
    kernel_.step();
    for (unsigned c = 0; c < lanes_.size(); ++c) {
      while (grants_[c].size() < pushed_[c] - lanes_[c].req->size()) {
        grants_[c].push_back(t);
        order_.push_back(c);
      }
      while (lanes_[c].resp->can_pop()) lanes_[c].resp->pop();
    }
  }

  /// Steps until converter `conv` holds `n` grants (at most 1000 cycles).
  void run_until_granted(unsigned conv, std::size_t n) {
    for (int i = 0; i < 1000 && grants_[conv].size() < n; ++i) step();
  }

  const std::vector<sim::Cycle>& grants(unsigned conv) const {
    return grants_[conv];
  }
  /// Every grant's converter, oldest first (one lane: one grant a cycle).
  const std::vector<unsigned>& order() const { return order_; }

 private:
  static mem::IdealMemoryConfig one_port() {
    mem::IdealMemoryConfig cfg;
    cfg.num_ports = 1;
    return cfg;
  }

  sim::Kernel kernel_;
  mem::BackingStore store_;
  mem::IdealMemory memory_;
  pack::PortMux mux_;
  std::vector<pack::LaneIO> lanes_;
  std::vector<std::size_t> pushed_;
  std::vector<std::vector<sim::Cycle>> grants_;
  std::vector<unsigned> order_;
};

TEST(PortMuxTest, RoundRobinSkipsEmptyConvertersAndWraps) {
  // Plain round-robin over six converters with 0, 2 and 5 empty: each
  // grant goes to the first converter with a request at or after the one
  // past the last grant, wrapping past converter 5 to 0.
  MuxHarness h(6, 0, 0);
  for (const unsigned c : {1u, 1u, 3u, 4u, 4u}) ASSERT_TRUE(h.push(c));
  // The pointer moves 0 -> 2 (between 1 and 3) -> 4 -> 5, wraps past 5
  // and 0 to 1, then skips 2 and the drained 3 to reach 4.
  for (int i = 0; i < 6; ++i) h.step();
  const std::vector<unsigned> first = {1, 3, 4, 1, 4};
  EXPECT_TRUE(h.order() == first);
  // The pointer is at 5: converter 5 goes first, then the scan wraps past
  // the last converter to 0 before it reaches 1.
  for (const unsigned c : {0u, 1u, 5u}) ASSERT_TRUE(h.push(c));
  for (int i = 0; i < 4; ++i) h.step();
  const std::vector<unsigned> all = {1, 3, 4, 1, 4, 5, 0, 1};
  EXPECT_TRUE(h.order() == all);
  for (unsigned c = 0; c < 6; ++c) {
    for (std::size_t i = 1; i < h.grants(c).size(); ++i) {
      EXPECT_LT(h.grants(c)[i - 1], h.grants(c)[i]) << "converter " << c;
    }
  }
}

TEST(PortMuxTest, StaleHolderYieldsOnCompetitorsFirstVisibleCycle) {
  // The holder's bubble is counted from its last grant: once it has been
  // idle for longer than the patience, a newly arriving stream takes the
  // lane at once instead of waiting out a fresh patience window.
  MuxHarness h;
  h.push(0);
  h.run_until_granted(0, 1);
  ASSERT_EQ(h.grants(0).size(), 1u);
  while (h.now() < h.grants(0)[0] + 3 * MuxHarness::kPatience) h.step();
  h.push(1);
  const sim::Cycle visible = h.now() + 1;
  h.run_until_granted(1, 1);
  ASSERT_EQ(h.grants(1).size(), 1u);
  EXPECT_EQ(h.grants(1)[0], visible);
}

TEST(PortMuxTest, ShortBubbleKeepsTheLaneWithTheHolder) {
  // A holder pausing for less than the patience keeps its lane: the
  // competitor arriving in the pause is denied until the holder has been
  // quiet for `patience` cycles after its last grant.
  MuxHarness h;
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(h.push(0));
  h.run_until_granted(0, 4);
  ASSERT_EQ(h.grants(0).size(), 4u);
  const sim::Cycle pause_end =
      h.grants(0).back() + MuxHarness::kPatience / 2;
  h.push(1);
  while (h.now() < pause_end) h.step();
  h.push(0);
  h.run_until_granted(0, 5);
  ASSERT_EQ(h.grants(0).size(), 5u);
  EXPECT_TRUE(h.grants(1).empty()) << "competitor granted inside the bubble";
  h.run_until_granted(1, 1);
  ASSERT_EQ(h.grants(1).size(), 1u);
  EXPECT_EQ(h.grants(1)[0],
            h.grants(0).back() + MuxHarness::kPatience + 1);
}

TEST(PortMuxTest, QuantumRotatesTheLaneBetweenBusyConverters) {
  // With both converters always pending, the lane alternates in runs of
  // exactly one quantum of back-to-back grants.
  MuxHarness h;
  const sim::Cycle end = 4 * MuxHarness::kQuantum + 10;
  while (h.now() < end) {
    while (h.push(0)) {
    }
    while (h.push(1)) {
    }
    h.step();
  }
  std::vector<std::pair<sim::Cycle, unsigned>> order;
  for (unsigned c = 0; c < 2; ++c) {
    for (const sim::Cycle t : h.grants(c)) order.emplace_back(t, c);
  }
  std::sort(order.begin(), order.end());
  std::vector<std::pair<unsigned, std::size_t>> runs;  // (owner, length)
  for (const auto& [t, c] : order) {
    if (runs.empty() || runs.back().first != c) runs.emplace_back(c, 0);
    ++runs.back().second;
  }
  ASSERT_TRUE(runs.size() >= 4u);
  for (std::size_t i = 0; i + 1 < runs.size(); ++i) {
    EXPECT_EQ(runs[i].second, MuxHarness::kQuantum) << "run " << i;
    EXPECT_NE(runs[i].first, runs[i + 1].first) << "run " << i;
  }
}

// Property sweep: random (stride, element size, length) gathers must equal
// the reference gather exactly.
class StridedProperty
    : public ::testing::TestWithParam<std::tuple<int, unsigned, unsigned>> {};

TEST_P(StridedProperty, MatchesReferenceGather) {
  const auto [stride_words, elem_bytes, num_elems] = GetParam();
  AdapterHarnessConfig cfg;
  cfg.banks = 17;
  AdapterHarness h(cfg);
  fill_pattern(h.store(), kBase, 1u << 16);
  const std::uint64_t base = kBase + (1u << 17);
  fill_pattern(h.store(), base, 1u << 14);
  const std::int64_t stride = std::int64_t{stride_words} * 4;
  const std::uint64_t start =
      stride >= 0 ? base : base - stride * (num_elems - 1);
  const auto bursts =
      axi::split_pack_strided(start, stride, elem_bytes, num_elems, 32);
  std::vector<std::uint8_t> got;
  for (const auto& ar : bursts) {
    const auto part = h.read_burst(ar);
    got.insert(got.end(), part.begin(), part.end());
  }
  ASSERT_EQ(got.size(), std::size_t{num_elems} * elem_bytes);
  for (std::uint32_t i = 0; i < num_elems; ++i) {
    for (unsigned b = 0; b < elem_bytes; ++b) {
      std::uint8_t want;
      h.store().read(start + static_cast<std::uint64_t>(
                                 static_cast<std::int64_t>(i) * stride) +
                         b,
                     &want, 1);
      EXPECT_EQ(got[std::size_t{i} * elem_bytes + b], want)
          << "elem " << i << " byte " << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StridedProperty,
    ::testing::Values(std::make_tuple(1, 4u, 64u), std::make_tuple(3, 4u, 33u),
                      std::make_tuple(17, 4u, 100u),
                      std::make_tuple(-2, 4u, 31u), std::make_tuple(0, 4u, 24u),
                      std::make_tuple(5, 8u, 40u), std::make_tuple(9, 16u, 20u),
                      std::make_tuple(2, 32u, 12u),
                      std::make_tuple(64, 4u, 513u),
                      std::make_tuple(7, 8u, 129u)));

// Property sweep over bank counts and queue depths: indirect gathers with
// random indices must match the reference for every memory configuration.
class IndirectProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(IndirectProperty, MatchesReferenceGather) {
  const auto [banks, depth] = GetParam();
  AdapterHarnessConfig cfg;
  cfg.banks = banks;
  cfg.queue_depth = depth;
  AdapterHarness h(cfg);
  fill_pattern(h.store(), kBase, 1u << 14);
  const std::uint64_t idx_base = kBase + (1u << 18);
  util::Rng rng(banks * 31 + depth);
  const std::uint32_t n = 200;
  std::vector<std::uint32_t> indices(n);
  for (auto& v : indices) v = static_cast<std::uint32_t>(rng.below(1u << 13));
  h.store().write(idx_base, indices.data(), indices.size() * 4);
  const auto bursts = axi::split_pack_indirect(kBase, idx_base, 32, 4, n, 32);
  std::vector<std::uint8_t> got;
  for (const auto& ar : bursts) {
    const auto part = h.read_burst(ar);
    got.insert(got.end(), part.begin(), part.end());
  }
  std::vector<std::uint32_t> words(n);
  std::memcpy(words.data(), got.data(), got.size());
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(words[i], 0x1000'0000u + indices[i]) << "elem " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IndirectProperty,
    ::testing::Combine(::testing::Values(0u, 8u, 11u, 16u, 17u, 31u, 32u),
                       ::testing::Values(1u, 4u, 32u)));

}  // namespace
}  // namespace axipack
