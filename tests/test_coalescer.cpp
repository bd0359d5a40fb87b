// Near-memory index coalescing unit, three layers of proof:
//
//   * unit tests driving a bare Coalescer with the test acting as memory —
//     duplicate merging fans one fetch out to every waiter with the data
//     and per-lane release order intact, even when memory answers lanes
//     wildly out of order;
//   * a cycle-by-cycle audit of the pending-table occupancy bound (the
//     MSHR table never exceeds `entries` live slots, and a full table
//     backpressures instead of dropping);
//   * system-level differentials — spmv/prank/sssp over the coalescer
//     on/off and across every coalesce setting and backend must stay
//     bit-correct against the workloads' golden scalar references.
#include "test_common.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "pack/coalescer.hpp"
#include "systems/runner.hpp"
#include "systems/scenario.hpp"

namespace axipack::pack {
namespace {

constexpr std::uint64_t kBase = 0x8000'0000ull;

/// Deterministic per-address payload the fake memory serves.
std::uint32_t pattern(std::uint64_t addr) {
  return static_cast<std::uint32_t>((addr >> 2) * 2654435761u ^ 0xA5A5u);
}

/// A bare coalescer between test-owned upstream pushes and a test-modelled
/// memory on the downstream lanes.
struct Harness {
  explicit Harness(const CoalescerConfig& cfg, unsigned lanes = 4,
                   std::size_t down_req_depth = 2)
      : lanes_n(lanes) {
    std::vector<LaneIO> down;
    for (unsigned l = 0; l < lanes; ++l) {
      down_req.push_back(std::make_unique<sim::Fifo<mem::WordReq>>(
          kernel, down_req_depth, 1));
      down_resp.push_back(
          std::make_unique<sim::Fifo<mem::WordResp>>(kernel, 64, 1));
      down.push_back({down_req.back().get(), down_resp.back().get()});
    }
    co = std::make_unique<Coalescer>(kernel, std::move(down), cfg);
    up = co->upstream_lanes();
    pending.resize(lanes);
    got.resize(lanes);
    expected.resize(lanes);
  }

  /// Queues one upstream request (lane-order release is per lane).
  void expect_read(unsigned lane, std::uint64_t addr, std::uint32_t tag) {
    mem::WordReq req;
    req.addr = addr;
    req.write = false;
    req.tag = tag;
    pending[lane].push_back(req);
    expected[lane].push_back(req);
  }

  /// Queues one upstream write (pass-through entry; response is a B-ack).
  void expect_write(unsigned lane, std::uint64_t addr, std::uint32_t tag,
                    std::uint32_t wdata, std::uint8_t wstrb = 0xF) {
    mem::WordReq req;
    req.addr = addr;
    req.write = true;
    req.wdata = wdata;
    req.wstrb = wstrb;
    req.tag = tag;
    pending[lane].push_back(req);
    expected[lane].push_back(req);
  }

  /// Current memory word: written value if any store landed, else the
  /// deterministic pattern.
  std::uint32_t word_at(std::uint64_t addr) const {
    const auto it = mem_words.find(addr);
    return it == mem_words.end() ? pattern(addr) : it->second;
  }

  /// One simulated cycle: feed upstream lanes, model memory with a fixed
  /// per-lane service delay (different per lane => cross-lane reorder),
  /// collect upstream responses, audit the occupancy bound.
  void cycle(std::size_t entries_bound) {
    for (unsigned l = 0; l < lanes_n; ++l) {
      if (!pending[l].empty() && up[l].req->can_push()) {
        up[l].req->push(pending[l].front());
        pending[l].pop_front();
      }
      if (memory_on && down_req[l]->can_pop()) {
        const mem::WordReq req = down_req[l]->pop();
        issued.push_back(req.addr);
        mem::WordResp resp;
        if (req.write) {
          ++stores;
          std::uint32_t w = word_at(req.addr);
          for (unsigned b = 0; b < 4; ++b) {
            if (req.wstrb & (1u << b)) {
              w = (w & ~(0xFFu << (8 * b))) |
                  (req.wdata & (0xFFu << (8 * b)));
            }
          }
          mem_words[req.addr] = w;
          resp.rdata = 0;
          resp.was_write = true;
        } else {
          ++fetches;
          resp.rdata = word_at(req.addr);
          resp.was_write = false;
        }
        resp.tag = req.tag;
        // Lane-dependent latency: lane 0 answers in 2 cycles, lane 3 in 23.
        down_resp[l]->push_in(resp, 2 + 7ull * l);
      }
      while (up[l].resp->can_pop()) {
        got[l].push_back(up[l].resp->pop());
      }
    }
    EXPECT_LE(co->live_entries(), entries_bound);
    EXPECT_LE(co->stats().peak_pending, entries_bound);
    kernel.step();
  }

  /// Runs until every expected response arrived (or the deadline trips).
  bool drain(std::size_t entries_bound, sim::Cycle max_cycles = 20'000) {
    const auto done = [&] {
      for (unsigned l = 0; l < lanes_n; ++l) {
        if (got[l].size() != expected[l].size()) return false;
      }
      return true;
    };
    for (sim::Cycle c = 0; c < max_cycles && !done(); ++c) {
      cycle(entries_bound);
    }
    return done();
  }

  /// Per-lane release order, restored tags and fan-out data all match the
  /// request stream.
  void check_releases() {
    for (unsigned l = 0; l < lanes_n; ++l) {
      ASSERT_EQ(got[l].size(), expected[l].size()) << "lane " << l;
      for (std::size_t i = 0; i < expected[l].size(); ++i) {
        EXPECT_EQ(got[l][i].tag, expected[l][i].tag)
            << "lane " << l << " resp " << i;
        EXPECT_EQ(got[l][i].rdata, pattern(expected[l][i].addr))
            << "lane " << l << " resp " << i;
        EXPECT_FALSE(got[l][i].was_write) << "lane " << l << " resp " << i;
      }
    }
  }

  sim::Kernel kernel;
  unsigned lanes_n;
  std::vector<std::unique_ptr<sim::Fifo<mem::WordReq>>> down_req;
  std::vector<std::unique_ptr<sim::Fifo<mem::WordResp>>> down_resp;
  std::unique_ptr<Coalescer> co;
  std::vector<LaneIO> up;
  std::vector<std::deque<mem::WordReq>> pending;   ///< not yet pushed
  std::vector<std::vector<mem::WordReq>> expected; ///< full per-lane stream
  std::vector<std::vector<mem::WordResp>> got;
  std::vector<std::uint64_t> issued;  ///< downstream addresses, in order
  std::uint64_t fetches = 0;  ///< downstream read words actually requested
  std::uint64_t stores = 0;   ///< downstream writes that reached memory
  std::unordered_map<std::uint64_t, std::uint32_t> mem_words;
  bool memory_on = true;
};

TEST(Coalescer, DuplicatesMergeIntoOneFetch) {
  CoalescerConfig cfg;
  cfg.entries = 8;
  cfg.window = 4;
  cfg.lane_fifo_depth = 8;
  Harness h(cfg);
  // Every lane asks for the same two words, interleaved with a private one:
  // 4 lanes x 3 requests but only 2 + 4 distinct addresses.
  const std::uint64_t shared_a = kBase + 4 * 100;
  const std::uint64_t shared_b = kBase + 4 * 200;
  for (unsigned l = 0; l < 4; ++l) {
    h.expect_read(l, shared_a, 10 + l);
    h.expect_read(l, kBase + 4 * (300 + l), 20 + l);
    h.expect_read(l, shared_b, 30 + l);
  }
  ASSERT_TRUE(h.drain(cfg.entries));
  h.check_releases();
  EXPECT_EQ(h.co->stats().unique + h.co->stats().merged, 12u);
  // At least the clearly-simultaneous duplicates merged (the first request
  // of each shared word allocates; later same-cycle arrivals merge).
  EXPECT_GT(h.co->stats().merged, 0u);
  EXPECT_EQ(h.fetches, h.co->stats().unique);
  EXPECT_LT(h.fetches, 12u);
  EXPECT_TRUE(h.co->idle());
}

TEST(Coalescer, SameWordFullFanOut) {
  // 32 requests for one word. Every request accepted while a fetch for the
  // word is in flight merges into it; an entry retires the moment its data
  // returns (MSHR semantics), so a late straggler refetches — the fetch
  // count equals the allocation count and stays a small fraction of 32,
  // and every waiter still gets the data.
  CoalescerConfig cfg;
  cfg.entries = 4;
  cfg.window = 2;
  cfg.lane_fifo_depth = 16;
  Harness h(cfg);
  const std::uint64_t addr = kBase + 4 * 4096;
  for (int i = 0; i < 32; ++i) {
    h.expect_read(i % 4u, addr, static_cast<std::uint32_t>(i));
  }
  ASSERT_TRUE(h.drain(cfg.entries));
  h.check_releases();
  EXPECT_EQ(h.co->stats().unique + h.co->stats().merged, 32u);
  EXPECT_GE(h.co->stats().merged, 24u);  // the bulk folds into the table
  EXPECT_EQ(h.fetches, h.co->stats().unique);
  EXPECT_TRUE(h.co->idle());
}

TEST(Coalescer, InOrderReleaseUnderCrossLaneReorder) {
  // Distinct addresses striped across two 2 KiB granules; the per-lane
  // memory latencies (2..23 cycles) reorder completions across lanes and
  // the grouping window reorders issue — release order per upstream lane
  // must still be exactly the request order.
  CoalescerConfig cfg;
  cfg.entries = 16;
  cfg.window = 8;
  cfg.lane_fifo_depth = 8;
  Harness h(cfg, 4, /*down_req_depth=*/1);
  for (int i = 0; i < 24; ++i) {
    const unsigned lane = static_cast<unsigned>(i) % 4u;
    // Alternate granules so window-grouping has something to chew on.
    const std::uint64_t granule = (i % 2 == 0) ? 0 : (2048 / 4);
    h.expect_read(lane, kBase + 4 * (granule + static_cast<unsigned>(i)),
                  static_cast<std::uint32_t>(i));
  }
  ASSERT_TRUE(h.drain(cfg.entries));
  h.check_releases();
  EXPECT_EQ(h.co->stats().unique, 24u);
  EXPECT_EQ(h.co->stats().merged, 0u);
  // The grouping window must have kept at least some same-granule requests
  // adjacent: strictly fewer groups than issued requests.
  EXPECT_LT(h.co->stats().row_groups, h.co->stats().unique);
}

TEST(Coalescer, RowContinuationStaysInTheHeadsBank) {
  // One lane carries two banks (partitions), as 16 DRAM banks do on 8
  // lanes. After a fetch to bank 1, a younger bank-1 entry of the same
  // row must not pass an older bank-0 head; a same-bank, same-row entry
  // may still pass a same-bank head on another row.
  CoalescerConfig cfg;
  cfg.entries = 8;
  cfg.window = 4;
  cfg.lane_fifo_depth = 8;
  const auto at = [](unsigned bank, unsigned row, unsigned col) {
    return kBase + 256 * row + 8 * col + 4 * bank;
  };
  // Downstream order of `stream`, all queued behind its first fetch.
  const auto issue_order = [&](const std::vector<std::uint64_t>& stream) {
    Harness h(cfg, 1, /*down_req_depth=*/1);
    // Word bit 0 picks the bank, address bits 8 and up the row.
    h.co->set_locality_key([](std::uint64_t addr) {
      return (((addr >> 2) & 1) << 48) | (addr >> 8);
    });
    h.memory_on = false;  // the first fetch parks in the depth-1 FIFO
    for (std::size_t i = 0; i < stream.size(); ++i) {
      h.expect_read(0, stream[i], static_cast<std::uint32_t>(i));
    }
    for (int c = 0; c < 20; ++c) h.cycle(cfg.entries);
    h.memory_on = true;
    EXPECT_TRUE(h.drain(cfg.entries));
    h.check_releases();
    return h.issued;
  };
  // Head in bank 0, the lane's last issue and a younger match in bank 1:
  // FIFO order.
  const std::vector<std::uint64_t> cross = {at(1, 3, 0), at(0, 7, 0),
                                            at(1, 3, 1)};
  EXPECT_EQ(issue_order(cross), cross);
  // Head in bank 1 on another row: the same-row bank-1 entry goes first.
  const std::vector<std::uint64_t> same = {at(1, 3, 0), at(1, 4, 0),
                                           at(1, 3, 1)};
  EXPECT_EQ(issue_order(same),
            (std::vector<std::uint64_t>{same[0], same[2], same[1]}));
}

TEST(Coalescer, PendingTableOccupancyBoundAudited) {
  // Tiny table, stalled memory: the table must clamp at `entries` live
  // slots (audited every cycle by Harness::cycle) and backpressure the
  // upstream lanes instead of dropping or overflowing; once memory turns
  // on, everything drains.
  CoalescerConfig cfg;
  cfg.entries = 3;
  cfg.window = 2;
  cfg.lane_fifo_depth = 4;
  Harness h(cfg);
  for (int i = 0; i < 40; ++i) {
    h.expect_read(static_cast<unsigned>(i) % 4u, kBase + 4 * (1000 + i * 3),
                  static_cast<std::uint32_t>(i));
  }
  h.memory_on = false;
  for (int c = 0; c < 50; ++c) h.cycle(cfg.entries);
  EXPECT_EQ(h.co->live_entries(), cfg.entries);  // clamped, not overflowed
  EXPECT_EQ(h.fetches, 0u);
  h.memory_on = true;
  ASSERT_TRUE(h.drain(cfg.entries));
  h.check_releases();
  EXPECT_EQ(h.co->stats().peak_pending, cfg.entries);
  EXPECT_EQ(h.co->stats().unique, 40u);
  EXPECT_EQ(h.fetches, 40u);
  EXPECT_TRUE(h.co->idle());
}

TEST(Coalescer, FullWordStoreForwardsToLaterReads) {
  // A queued full-strobe store services later same-word reads directly
  // (store-to-load forwarding): the reads never reach memory, count as
  // merges, and observe the store data even before the write drains.
  CoalescerConfig cfg;
  cfg.entries = 8;
  cfg.window = 4;
  cfg.lane_fifo_depth = 8;
  Harness h(cfg);
  const std::uint64_t addr = kBase + 4 * 500;
  h.memory_on = false;  // keep the write parked in the table
  h.expect_write(0, addr, 1, 0xDEADBEEFu);
  for (unsigned l = 1; l < 4; ++l) h.expect_read(l, addr, 10 + l);
  for (int c = 0; c < 40; ++c) h.cycle(cfg.entries);
  // The reads released from the forwarded data while memory was dead.
  for (unsigned l = 1; l < 4; ++l) {
    ASSERT_EQ(h.got[l].size(), 1u) << "lane " << l;
    EXPECT_EQ(h.got[l][0].rdata, 0xDEADBEEFu);
    EXPECT_FALSE(h.got[l][0].was_write);
  }
  EXPECT_EQ(h.fetches, 0u);
  EXPECT_EQ(h.co->stats().merged, 3u);
  h.memory_on = true;
  ASSERT_TRUE(h.drain(cfg.entries));
  ASSERT_EQ(h.got[0].size(), 1u);
  EXPECT_TRUE(h.got[0][0].was_write);
  EXPECT_EQ(h.stores, 1u);
  EXPECT_EQ(h.word_at(addr), 0xDEADBEEFu);
  EXPECT_TRUE(h.co->idle());
}

TEST(Coalescer, PartialStoreStallsLaterReads) {
  // A partial-strobe store cannot forward (the read needs bytes the store
  // does not carry): the same-word read stalls behind it and refetches the
  // merged word from memory afterwards.
  CoalescerConfig cfg;
  cfg.entries = 8;
  cfg.window = 4;
  cfg.lane_fifo_depth = 8;
  Harness h(cfg);
  const std::uint64_t addr = kBase + 4 * 600;
  h.expect_write(0, addr, 1, 0x0000BEEFu, /*wstrb=*/0x3);
  h.expect_read(1, addr, 2);
  ASSERT_TRUE(h.drain(cfg.entries));
  EXPECT_EQ(h.stores, 1u);
  EXPECT_EQ(h.fetches, 1u);  // the read went to memory, not the table
  EXPECT_EQ(h.co->stats().merged, 0u);
  const std::uint32_t want = (pattern(addr) & 0xFFFF0000u) | 0x0000BEEFu;
  ASSERT_EQ(h.got[1].size(), 1u);
  EXPECT_EQ(h.got[1][0].rdata, want);
  EXPECT_TRUE(h.co->idle());
}

TEST(Coalescer, WriteAfterReadStallsUntilTheReadResolves) {
  // WAR/WAW: a write behind a pending same-word access stalls in its lane
  // until the older entry resolves — the read observes pre-store data and
  // the store still lands afterwards.
  CoalescerConfig cfg;
  cfg.entries = 8;
  cfg.window = 4;
  cfg.lane_fifo_depth = 8;
  Harness h(cfg);
  const std::uint64_t addr = kBase + 4 * 700;
  h.memory_on = false;  // park the read in the table
  h.expect_read(0, addr, 1);
  h.expect_write(1, addr, 2, 0xCAFE0000u);
  for (int c = 0; c < 40; ++c) h.cycle(cfg.entries);
  EXPECT_EQ(h.co->stats().unique, 1u);  // only the read allocated
  h.memory_on = true;
  ASSERT_TRUE(h.drain(cfg.entries));
  ASSERT_EQ(h.got[0].size(), 1u);
  EXPECT_EQ(h.got[0][0].rdata, pattern(addr));  // pre-store value
  ASSERT_EQ(h.got[1].size(), 1u);
  EXPECT_TRUE(h.got[1][0].was_write);
  EXPECT_EQ(h.word_at(addr), 0xCAFE0000u);
  EXPECT_TRUE(h.co->idle());
}

TEST(Coalescer, WriteSupersedesRetainedCopy) {
  // A store to a word held as a retained read copy reclaims the slot: a
  // later read must see the store data (forwarded or refetched), never the
  // stale retained word.
  CoalescerConfig cfg;
  cfg.entries = 8;
  cfg.window = 4;
  cfg.lane_fifo_depth = 8;
  Harness h(cfg);
  const std::uint64_t addr = kBase + 4 * 800;
  h.expect_read(0, addr, 1);
  ASSERT_TRUE(h.drain(cfg.entries));  // word now retained in the table
  EXPECT_EQ(h.fetches, 1u);
  h.expect_write(1, addr, 2, 0x12345678u);
  h.expect_read(2, addr, 3);
  ASSERT_TRUE(h.drain(cfg.entries));
  ASSERT_EQ(h.got[2].size(), 1u);
  EXPECT_EQ(h.got[2][0].rdata, 0x12345678u);
  EXPECT_EQ(h.word_at(addr), 0x12345678u);
  EXPECT_TRUE(h.co->idle());
}

// ------------------------------------------------------------ address CAM

/// `n` distinct word addresses whose probe chains start at cell `home`.
std::vector<std::uint64_t> keys_homed_at(const AddressCam& cam,
                                         std::size_t home, std::size_t n,
                                         std::mt19937_64& rng) {
  std::vector<std::uint64_t> keys;
  while (keys.size() < n) {
    const std::uint64_t key = kBase + 4 * (rng() % (1u << 24));
    if (cam.home(key) == home &&
        std::find(keys.begin(), keys.end(), key) == keys.end()) {
      keys.push_back(key);
    }
  }
  return keys;
}

/// Random inserts, overwrites, erases and finds on a CAM sized for
/// `entries` keys, mirrored on a std::unordered_map. Part of the key pool
/// shares the last cell as its home, so its chain wraps past the table's
/// end into the keys homed at cell 0; the rest is random and outnumbers
/// `entries`, so inserts also run into the key limit.
void fuzz_cam_against_map(std::size_t entries) {
  AddressCam cam(entries);
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  std::mt19937_64 rng(entries);
  const std::size_t clustered = std::min<std::size_t>(entries, 24) + 1;
  std::vector<std::uint64_t> pool =
      keys_homed_at(cam, cam.cells() - 1, clustered, rng);
  for (const std::uint64_t key : keys_homed_at(cam, 0, clustered, rng)) {
    pool.push_back(key);
  }
  while (pool.size() < 2 * clustered + entries + 1) {
    const std::uint64_t key = kBase + 4 * (rng() % (1u << 24));
    if (std::find(pool.begin(), pool.end(), key) == pool.end()) {
      pool.push_back(key);
    }
  }
  const auto agrees = [&](std::uint64_t key) {
    const auto it = ref.find(key);
    return cam.find(key) == (it == ref.end() ? AddressCam::kNone : it->second);
  };
  std::size_t mismatches = 0;
  for (int op = 0; op < 20'000; ++op) {
    // Half the operations touch the clustered keys.
    const std::uint64_t key =
        op % 2 == 0 ? pool[rng() % (2 * clustered)] : pool[rng() % pool.size()];
    const std::uint64_t kind = rng() % 8;
    if (kind < 4) {  // insert or overwrite
      if (ref.count(key) != 0 || ref.size() < entries) {
        const auto value = static_cast<std::uint32_t>(rng() % entries);
        cam.assign(key, value);
        ref[key] = value;
      }
    } else if (kind < 7) {
      cam.erase(key);
      ref.erase(key);
    }
    if (!agrees(key) || cam.size() != ref.size()) ++mismatches;
    if (op % 64 == 0) {
      for (const std::uint64_t k : pool) mismatches += agrees(k) ? 0 : 1;
    }
    if (mismatches != 0) break;  // before a broken table fills up
  }
  for (const std::uint64_t k : pool) mismatches += agrees(k) ? 0 : 1;
  EXPECT_EQ(mismatches, 0u) << "entries " << entries;
  EXPECT_EQ(cam.empty(), ref.empty()) << "entries " << entries;
}

TEST(AddressCam, MatchesUnorderedMapUnderCollidingAndWrappingChains) {
  for (const std::size_t entries : {1u, 64u, 512u}) {
    fuzz_cam_against_map(entries);
  }
}

// ---------------------------------------------------------------- system

/// Indirect kernels stay golden-correct with the coalescer in the path,
/// across settings and memory backends; coalescer stats are consistent
/// with the fan-out accounting.
TEST(CoalescerSystem, IndirectKernelsCorrectAcrossSettingsAndBackends) {
  using sys::ScenarioRegistry;
  const wl::KernelKind kernels[] = {wl::KernelKind::spmv,
                                    wl::KernelKind::prank};
  const char* scenarios[] = {
      "pack-dram",              // coalescer off (baseline wiring)
      "pack-dram-coalesce",     // on, default entries/window
      "pack-256-dram-x4-g1",    // tiny table, FIFO issue
      "pack-256-dram-x16-g8",   // small table via the parametric grammar
      "pack-256-dram-x64-g32",  // large table, wide window
      "pack-128-dram-x8-g4",    // narrower bus
  };
  for (const auto kernel : kernels) {
    for (const char* scenario : scenarios) {
      auto cfg = sys::plan_workload(kernel, scenario);
      cfg.n = 96;
      cfg.nnz_per_row = 24;
      const sys::RunResult r = sys::run_workload(scenario, cfg);
      ASSERT_TRUE(r.correct) << scenario << " " << wl::kernel_name(kernel)
                             << ": " << r.error;
      const bool coalesced = std::string(scenario) != "pack-dram";
      if (coalesced) {
        EXPECT_GT(r.coalesce_unique, 0u)
            << scenario << " " << wl::kernel_name(kernel);
        // Fan-out accounting over the four coalescing units: every element
        // word requested by the gather lanes passes the element unit and
        // is counted there exactly once as unique or merged, so the
        // aggregate (which also covers the index/strided/base streams)
        // bounds the element-word count from above.
        EXPECT_GE(r.coalesce_unique + r.coalesce_merged,
                  r.indirect_elem_words)
            << scenario << " " << wl::kernel_name(kernel);
        // Occupancy audit: peak pending never exceeds the configured
        // pending-table capacity (default 512; -x{E} overrides it).
        const std::string s(scenario);
        const std::uint64_t cap = s == "pack-256-dram-x4-g1"  ? 4u
                                  : s == "pack-256-dram-x16-g8" ? 16u
                                  : s == "pack-256-dram-x64-g32" ? 64u
                                  : s == "pack-128-dram-x8-g4"   ? 8u
                                                                 : 512u;
        EXPECT_LE(r.coalesce_peak_pending, cap) << scenario;
      } else {
        EXPECT_EQ(r.coalesce_unique, 0u);
        EXPECT_EQ(r.coalesce_merged, 0u);
      }
      EXPECT_GT(r.indirect_elem_words, 0u) << scenario;
      EXPECT_GT(r.indirect_idx_words, 0u) << scenario;
    }
  }
}

TEST(CoalescerSystem, SramBackendsStayCorrectWithCoalescer) {
  // The unit is backend-agnostic: banked SRAM and ideal memory behind a
  // coalesced adapter must stay golden-correct too (locality key falls
  // back to the address-granule default).
  for (const char* base : {"pack-256-17b", "pack-256-idealmem"}) {
    for (const auto kernel : {wl::KernelKind::spmv, wl::KernelKind::sssp}) {
      sys::SystemBuilder b = sys::ScenarioRegistry::instance().builder(base);
      b.coalescer(true, 16, 8);
      auto cfg = sys::plan_workload(kernel, base);
      cfg.n = 96;
      cfg.nnz_per_row = 24;
      const sys::RunResult r = sys::run_workload(b, cfg);
      ASSERT_TRUE(r.correct) << base << " " << wl::kernel_name(kernel)
                             << ": " << r.error;
      EXPECT_GT(r.coalesce_unique, 0u) << base;
    }
  }
}

TEST(CoalescerSystem, ScenarioGrammarAcceptsAndRejects) {
  const auto& reg = sys::ScenarioRegistry::instance();
  EXPECT_TRUE(reg.contains("pack-256-dram-x16"));
  EXPECT_TRUE(reg.contains("pack-64-dram-x8-g4"));
  EXPECT_TRUE(reg.contains("pack-128-dram-x32-g16-w8"));
  EXPECT_TRUE(reg.contains("base-256-dram-g4"));
  EXPECT_TRUE(reg.contains("pack-dram-coalesce"));
  EXPECT_FALSE(reg.contains("pack-256-dram-x0"));      // zero entries
  EXPECT_FALSE(reg.contains("pack-256-dram-g0"));      // zero window
  EXPECT_FALSE(reg.contains("pack-256-dram-x4-x8"));   // duplicate knob
  EXPECT_FALSE(reg.contains("pack-256-dram-x"));       // missing value
  EXPECT_FALSE(reg.contains("pack-256-dram-z4"));      // unknown knob
}

TEST(CoalescerSystem, HostWritesDropRetainedCopies) {
  // A reduction post-op writes its result straight into memory, past the
  // port mux's write snoop. prank's third sweep gathers the vector the
  // first sweep gathered and the second sweep's post-ops rewrote, so a
  // retained copy of an old word must not serve it.
  auto cfg = sys::plan_workload(wl::KernelKind::prank, "pack-dram-coalesce");
  cfg.n = 64;
  cfg.nnz_per_row = 24;
  cfg.iterations = 3;
  const sys::RunResult r = sys::run_workload("pack-dram-coalesce", cfg);
  EXPECT_TRUE(r.correct) << r.error;
}

}  // namespace
}  // namespace axipack::pack
