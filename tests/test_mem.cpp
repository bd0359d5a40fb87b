// Banked-memory tests: backing store semantics, interleaved bank mapping,
// conflict arbitration, fixed-latency ordering, ideal memory.
#include "test_common.hpp"

#include <memory>
#include <set>

#include "mem/backing_store.hpp"
#include "mem/bank.hpp"
#include "mem/banked_memory.hpp"
#include "mem/ideal_memory.hpp"

namespace axipack::mem {
namespace {

constexpr std::uint64_t kBase = 0x8000'0000ull;

TEST(BackingStore, ReadWriteRoundTrip) {
  BackingStore store(kBase, 1 << 20);
  store.write_u32(kBase + 64, 0xCAFEBABE);
  EXPECT_EQ(store.read_u32(kBase + 64), 0xCAFEBABEu);
  store.write_f32(kBase + 128, 3.5f);
  EXPECT_FLOAT_EQ(store.read_f32(kBase + 128), 3.5f);
}

TEST(BackingStore, StrobedWrite) {
  BackingStore store(kBase, 4096);
  store.write_u32(kBase, 0x11223344);
  store.write_word(kBase, 0xAABBCCDD, 0b0101);  // bytes 0 and 2
  EXPECT_EQ(store.read_u32(kBase), 0x11BB33DDu);
}

TEST(BackingStore, AllocAlignsAndAdvances) {
  BackingStore store(kBase, 1 << 16);
  const auto a = store.alloc(100, 64);
  const auto b = store.alloc(4, 64);
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 100);
}

TEST(BackingStore, Contains) {
  BackingStore store(kBase, 4096);
  EXPECT_TRUE(store.contains(kBase, 4096));
  EXPECT_FALSE(store.contains(kBase - 1));
  EXPECT_FALSE(store.contains(kBase + 4096));
  EXPECT_FALSE(store.contains(kBase + 4090, 8));
}

TEST(BankMap, Pow2UsesMaskShift) {
  BankMap map(16);
  EXPECT_TRUE(map.is_pow2());
  EXPECT_EQ(map.bank_of(17), 1u);
  EXPECT_EQ(map.row_of(17), 1u);
}

TEST(BankMap, PrimeUsesModDiv) {
  BankMap map(17);
  EXPECT_FALSE(map.is_pow2());
  EXPECT_EQ(map.bank_of(35), 1u);
  EXPECT_EQ(map.row_of(35), 2u);
}

TEST(BankMap, StridePathology) {
  // Word stride 16 on 16 banks always hits the same bank; on 17 banks it
  // cycles through all of them — the prime-bank advantage of Fig. 5b.
  BankMap pow2(16);
  BankMap prime(17);
  std::set<unsigned> pow2_banks;
  std::set<unsigned> prime_banks;
  for (std::uint64_t i = 0; i < 16; ++i) {
    pow2_banks.insert(pow2.bank_of(i * 16));
    prime_banks.insert(prime.bank_of(i * 16));
  }
  EXPECT_EQ(pow2_banks.size(), 1u);
  EXPECT_EQ(prime_banks.size(), 16u);
}

class BankedMemoryTest : public ::testing::Test {
 protected:
  BankedMemoryTest() : store_(kBase, 1 << 20) {
    BankedMemoryConfig cfg;
    cfg.num_ports = 4;
    cfg.num_banks = 7;
    memory_ = std::make_unique<BankedMemory>(kernel_, store_, cfg);
    for (std::uint32_t i = 0; i < 1024; ++i) {
      store_.write_u32(kBase + 4 * i, i * 3 + 1);
    }
  }

  sim::Kernel kernel_;
  BackingStore store_;
  std::unique_ptr<BankedMemory> memory_;
};

TEST_F(BankedMemoryTest, SingleReadRoundTrip) {
  WordReq req;
  req.addr = kBase + 40;
  req.tag = 9;
  memory_->port(0).req.push(req);
  kernel_.run(5);
  ASSERT_TRUE(memory_->port(0).resp.can_pop());
  const WordResp resp = memory_->port(0).resp.pop();
  EXPECT_EQ(resp.rdata, 10u * 3 + 1);
  EXPECT_EQ(resp.tag, 9u);
  EXPECT_FALSE(resp.was_write);
}

TEST_F(BankedMemoryTest, WriteThenReadBack) {
  WordReq wr;
  wr.addr = kBase + 100;
  wr.write = true;
  wr.wdata = 0x5555AAAA;
  wr.wstrb = 0xF;
  memory_->port(1).req.push(wr);
  kernel_.run(5);
  ASSERT_TRUE(memory_->port(1).resp.can_pop());
  EXPECT_TRUE(memory_->port(1).resp.pop().was_write);
  EXPECT_EQ(store_.read_u32(kBase + 100), 0x5555AAAAu);
}

TEST_F(BankedMemoryTest, ConflictSerializes) {
  // Both requests map to the same bank (same word address).
  WordReq r0;
  r0.addr = kBase;
  r0.tag = 0;
  WordReq r1;
  r1.addr = kBase;  // same bank
  r1.tag = 1;
  memory_->port(0).req.push(r0);
  memory_->port(1).req.push(r1);
  kernel_.run(2);
  // After 2 cycles only one can have been granted (resp latency 1).
  const int got = (memory_->port(0).resp.can_pop() ? 1 : 0) +
                  (memory_->port(1).resp.can_pop() ? 1 : 0);
  EXPECT_EQ(got, 1);
  kernel_.run(2);
  EXPECT_TRUE(memory_->port(0).resp.can_pop());
  EXPECT_TRUE(memory_->port(1).resp.can_pop());
  EXPECT_GE(memory_->activity().conflict_losses, 1u);
}

TEST_F(BankedMemoryTest, DistinctBanksParallel) {
  for (unsigned p = 0; p < 4; ++p) {
    WordReq req;
    req.addr = kBase + 4 * p;  // consecutive words -> distinct banks (7)
    req.tag = p;
    memory_->port(p).req.push(req);
  }
  kernel_.run(3);
  for (unsigned p = 0; p < 4; ++p) {
    EXPECT_TRUE(memory_->port(p).resp.can_pop()) << "port " << p;
  }
  EXPECT_EQ(memory_->activity().conflict_losses, 0u);
}

TEST_F(BankedMemoryTest, PerPortResponseOrder) {
  // Port 0 issues requests to different banks; responses must return in
  // request order regardless.
  for (int i = 0; i < 8; ++i) {
    kernel_.run_until([&] { return memory_->port(0).req.can_push(); }, 10);
    WordReq req;
    req.addr = kBase + 4ull * static_cast<std::uint64_t>(7 - i);
    req.tag = static_cast<std::uint32_t>(i);
    memory_->port(0).req.push(req);
    kernel_.step();
  }
  kernel_.run(10);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(memory_->port(0).resp.can_pop());
    EXPECT_EQ(memory_->port(0).resp.pop().tag, static_cast<std::uint32_t>(i));
  }
}

TEST_F(BankedMemoryTest, ThroughputOneWordPerBankPerCycle) {
  // Stream 100 words on one port: at one grant/cycle the port sustains
  // ~1 word/cycle when banks rotate.
  int sent = 0;
  int received = 0;
  std::uint64_t cycles = 0;
  while (received < 100 && cycles < 1000) {
    if (sent < 100 && memory_->port(2).req.can_push()) {
      WordReq req;
      req.addr = kBase + 4ull * static_cast<std::uint64_t>(sent);
      memory_->port(2).req.push(req);
      ++sent;
    }
    if (memory_->port(2).resp.can_pop()) {
      memory_->port(2).resp.pop();
      ++received;
    }
    kernel_.step();
    ++cycles;
  }
  EXPECT_EQ(received, 100);
  EXPECT_LE(cycles, 110u);
}

TEST(IdealMemory, AlwaysGrantsAllPorts) {
  sim::Kernel kernel;
  BackingStore store(kBase, 1 << 16);
  for (std::uint32_t i = 0; i < 64; ++i) store.write_u32(kBase + 4 * i, i);
  IdealMemoryConfig cfg;
  cfg.num_ports = 8;
  IdealMemory mem(kernel, store, cfg);
  // All 8 ports target the same word — no conflicts in ideal memory.
  for (unsigned p = 0; p < 8; ++p) {
    WordReq req;
    req.addr = kBase + 12;
    req.tag = p;
    mem.port(p).req.push(req);
  }
  kernel.run(3);
  for (unsigned p = 0; p < 8; ++p) {
    ASSERT_TRUE(mem.port(p).resp.can_pop());
    EXPECT_EQ(mem.port(p).resp.pop().rdata, 3u);
  }
}

}  // namespace
}  // namespace axipack::mem
