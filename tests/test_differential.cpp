// Differential memory testing: the same randomized read/write workload
// replayed against the DRAM, banked and ideal memories must return
// identical data and leave identical memory images. Timing may (and does)
// differ — data must not: the memory model is a contract, the timing model
// an implementation.
//
// Two workload shapes keep the comparison order-independent by
// construction:
//   * per-port address partitions — each port owns the words with
//     word_index % num_ports == port, so cross-port races cannot exist and
//     per-port response streams are fully deterministic;
//   * write-then-read phases over a Floyd-sampled word set — distinct
//     write targets per phase, reads only after the writes drained.
#include "test_common.hpp"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mem/backend.hpp"
#include "mem/dram_memory.hpp"
#include "util/rng.hpp"
#include "word_driver.hpp"

namespace axipack::mem {
namespace {

constexpr std::uint64_t kBase = 0x8000'0000ull;
constexpr unsigned kPorts = 4;
constexpr std::uint64_t kWords = 1 << 12;

/// Shared memory parameterization: aggressive dram timing (small rows, a
/// short refresh interval) so a few thousand cycles of traffic cross many
/// refresh windows; 7 SRAM banks so conflicts are common.
MemoryBackendConfig diff_cfg(MemoryKind kind) {
  MemoryBackendConfig cfg;
  cfg.kind = kind;
  cfg.num_ports = kPorts;
  cfg.num_banks = 7;
  cfg.dram.bank_groups = 2;
  cfg.dram.banks_per_group = 3;
  cfg.dram.row_words = 32;
  cfg.dram.tREFI = 300;
  cfg.dram.tRFC = 40;
  return cfg;
}

/// One memory instance with its own kernel and store, driven by raw word
/// requests; collects per-port responses in arrival order.
struct MemoryRun {
  MemoryRun(const MemoryBackendConfig& cfg, std::string name)
      : kind(cfg.kind), label(std::move(name)), store(kBase, kWords * 4) {
    // Deterministic pseudo-random initial image, identical per memory.
    for (std::uint64_t w = 0; w < kWords; ++w) {
      store.write_u32(kBase + 4 * w, static_cast<std::uint32_t>(w * 40503u));
    }
    memory = make_memory(kernel, store, cfg);
  }

  /// Replays per-port request lists through the shared drive loop; true
  /// when every response arrived.
  bool replay(const std::vector<std::vector<WordReq>>& reqs,
              sim::Cycle max_cycles = 4'000'000) {
    return testutil::replay_word_requests(kernel, *memory, reqs, responses,
                                          max_cycles);
  }

  MemoryKind kind;
  std::string label;
  sim::Kernel kernel;
  BackingStore store;
  std::unique_ptr<WordMemory> memory;
  std::vector<std::vector<WordResp>> responses;
};

/// A fresh run of each memory kind, the "ideal" reference first.
std::vector<std::unique_ptr<MemoryRun>> runs_of_every_kind() {
  std::vector<std::unique_ptr<MemoryRun>> runs;
  runs.push_back(
      std::make_unique<MemoryRun>(diff_cfg(MemoryKind::ideal), "ideal"));
  runs.push_back(
      std::make_unique<MemoryRun>(diff_cfg(MemoryKind::banked), "banked"));
  runs.push_back(
      std::make_unique<MemoryRun>(diff_cfg(MemoryKind::dram), "dram"));
  return runs;
}

/// Diffs every run's collected per-port response streams (tag order,
/// read/write kind, read data) and final memory image against runs[0].
void expect_runs_agree(const std::vector<std::unique_ptr<MemoryRun>>& runs,
                       const char* what) {
  const MemoryRun& ref = *runs[0];
  for (std::size_t r = 1; r < runs.size(); ++r) {
    const MemoryRun& other = *runs[r];
    const std::string& name = other.label;
    for (unsigned p = 0; p < kPorts; ++p) {
      ASSERT_EQ(other.responses[p].size(), ref.responses[p].size())
          << what << " " << name << " port " << p;
      for (std::size_t i = 0; i < ref.responses[p].size(); ++i) {
        const WordResp& a = ref.responses[p][i];
        const WordResp& b = other.responses[p][i];
        // Per-port responses return in request order on every memory, so
        // tag streams must match; read data must match word for word.
        ASSERT_EQ(b.tag, a.tag) << what << " " << name << " port " << p
                                << " resp " << i;
        ASSERT_EQ(b.was_write, a.was_write)
            << what << " " << name << " port " << p << " resp " << i;
        if (!a.was_write) {
          ASSERT_EQ(b.rdata, a.rdata)
              << what << " " << name << " port " << p << " resp " << i
              << " tag " << a.tag;
        }
      }
    }
    for (std::uint64_t w = 0; w < kWords; ++w) {
      ASSERT_EQ(other.store.read_u32(kBase + 4 * w),
                ref.store.read_u32(kBase + 4 * w))
          << what << " " << name << " word " << w;
    }
  }
}

/// Holds a memory's counters to the `requests` it served: the banked and
/// DRAM memories grant each request once (on DRAM as a row hit or a row
/// miss), and the ideal memory counts nothing.
void expect_counters_match(const MemoryRun& run, std::uint64_t requests,
                           const char* what) {
  const MemoryBackendStats s = run.memory->activity();
  const std::uint64_t dram_only = s.row_hits + s.row_misses +
                                  s.refresh_stall_cycles +
                                  s.row_batch_defer_cycles +
                                  s.row_starved_grants;
  switch (run.kind) {
    case MemoryKind::ideal:
      EXPECT_EQ(s.grants + s.conflict_losses + dram_only, 0u)
          << what << " " << run.label;
      break;
    case MemoryKind::banked:
      EXPECT_EQ(s.grants, requests) << what << " " << run.label;
      EXPECT_EQ(dram_only, 0u) << what << " " << run.label;
      break;
    case MemoryKind::dram:
      EXPECT_EQ(s.grants, requests) << what << " " << run.label;
      EXPECT_EQ(s.row_hits + s.row_misses, s.grants)
          << what << " " << run.label;
      break;
  }
}

/// Runs `reqs` on every memory and checks responses + memory images agree
/// with the first ("ideal") memory, and each memory's counters with `reqs`.
void expect_memories_agree(const std::vector<std::vector<WordReq>>& reqs,
                           const char* what) {
  std::uint64_t requests = 0;
  for (const auto& port_reqs : reqs) requests += port_reqs.size();
  std::vector<std::unique_ptr<MemoryRun>> runs = runs_of_every_kind();
  for (const auto& run : runs) {
    ASSERT_TRUE(run->replay(reqs)) << what << " " << run->label;
    expect_counters_match(*run, requests, what);
  }
  expect_runs_agree(runs, what);
}

TEST(DifferentialBackends, PartitionedRandomReadWriteStreams) {
  for (const std::uint64_t seed : {1ull, 17ull, 123456789ull}) {
    util::Rng rng(seed);
    std::vector<std::vector<WordReq>> reqs(kPorts);
    for (unsigned p = 0; p < kPorts; ++p) {
      for (int i = 0; i < 500; ++i) {
        // Port p owns words congruent to p mod kPorts: no cross-port races.
        const std::uint64_t word =
            rng.below(kWords / kPorts) * kPorts + p;
        WordReq req;
        req.addr = kBase + 4 * word;
        req.tag = static_cast<std::uint32_t>(i);
        if (rng.below(3) == 0) {
          req.write = true;
          req.wdata = static_cast<std::uint32_t>(rng.next());
          req.wstrb = static_cast<std::uint8_t>(rng.below(16));
        }
        reqs[p].push_back(req);
      }
    }
    expect_memories_agree(reqs, "partitioned");
  }
}

TEST(DifferentialBackends, FloydSampledWriteThenReadPhases) {
  util::Rng rng(4242);
  // Floyd sampling picks distinct write targets, so write/write races are
  // impossible even across ports.
  const std::vector<std::uint32_t> targets = rng.sample_without_replacement(
      static_cast<std::uint32_t>(kWords), 800);
  std::vector<std::vector<WordReq>> writes(kPorts);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    WordReq req;
    req.addr = kBase + 4ull * targets[i];
    req.write = true;
    req.wdata = static_cast<std::uint32_t>(rng.next());
    req.wstrb = 0xF;
    req.tag = static_cast<std::uint32_t>(i);
    writes[i % kPorts].push_back(req);
  }
  // Reads target the sampled set from *any* port (plus untouched words),
  // only after every write drained.
  std::vector<std::vector<WordReq>> reads(kPorts);
  for (int i = 0; i < 1200; ++i) {
    const std::uint32_t word =
        rng.below(4) == 0 ? static_cast<std::uint32_t>(rng.below(kWords))
                          : targets[rng.below(targets.size())];
    WordReq req;
    req.addr = kBase + 4ull * word;
    req.tag = static_cast<std::uint32_t>(i);
    reads[rng.below(kPorts)].push_back(req);
  }

  std::vector<std::unique_ptr<MemoryRun>> runs = runs_of_every_kind();
  for (const auto& run : runs) {
    ASSERT_TRUE(run->replay(writes)) << run->label << " write phase";
    ASSERT_TRUE(run->replay(reads)) << run->label << " read phase";
  }
  // `responses` holds the read phase (replay resets them); the write
  // phase's effects are covered by the memory-image diff.
  expect_runs_agree(runs, "floyd");
}

TEST(DifferentialBackends, DramSchedWindowsAgreeOnData) {
  // The row-batching scheduler reorders grants (reads freely within the
  // window, writes as hazard-free open-row hits), which must never change
  // *data*: every sched-window/starve-cap setting — from head-only to a
  // full-depth window — must return the same responses and leave the same
  // memory image as the in-order memories. Mixed read/write streams with
  // repeated words exercise the word-level dependency rules.
  util::Rng rng(777);
  std::vector<std::vector<WordReq>> reqs(kPorts);
  for (unsigned p = 0; p < kPorts; ++p) {
    for (int i = 0; i < 500; ++i) {
      // A small per-port word set forces frequent same-word read/write
      // dependencies inside one scheduling window.
      const std::uint64_t word = rng.below(96) * kPorts + p;
      WordReq req;
      req.addr = kBase + 4 * word;
      req.tag = static_cast<std::uint32_t>(i);
      if (rng.below(3) == 0) {
        req.write = true;
        req.wdata = static_cast<std::uint32_t>(rng.next());
        req.wstrb = static_cast<std::uint8_t>(1 + rng.below(15));
      }
      reqs[p].push_back(req);
    }
  }
  struct Setting {
    std::size_t window;
    sim::Cycle cap;
    std::size_t req_depth;
  };
  const Setting settings[] = {
      {1, 48, 2},   // PR-3 head-only scheduler, seed depths
      {1, 48, 32},  // head-only over deep FIFOs
      {4, 16, 32},  {32, 48, 32}, {32, 0, 32},  // OOO window, veto on/off
  };
  std::vector<std::unique_ptr<MemoryRun>> runs;
  runs.push_back(
      std::make_unique<MemoryRun>(diff_cfg(MemoryKind::ideal), "ideal"));
  ASSERT_TRUE(runs.back()->replay(reqs)) << "ideal";
  for (const Setting& s : settings) {
    MemoryBackendConfig cfg = diff_cfg(MemoryKind::dram);
    cfg.dram_sched_window = s.window;
    cfg.dram_starve_cap = s.cap;
    cfg.req_depth = s.req_depth;
    runs.push_back(std::make_unique<MemoryRun>(
        cfg, "dram-w" + std::to_string(s.window) + "-c" +
                 std::to_string(s.cap) + "-q" + std::to_string(s.req_depth)));
    ASSERT_TRUE(runs.back()->replay(reqs)) << runs.back()->label;
  }
  expect_runs_agree(runs, "sched-windows");
}

TEST(DifferentialBackends, DramMappingPoliciesAgreeOnData) {
  // The two dram address-mapping policies are different *timings* of the
  // same memory: replay one partitioned workload under both and diff.
  util::Rng rng(31337);
  std::vector<std::vector<WordReq>> reqs(kPorts);
  for (unsigned p = 0; p < kPorts; ++p) {
    for (int i = 0; i < 400; ++i) {
      WordReq req;
      req.addr = kBase + 4 * (rng.below(kWords / kPorts) * kPorts + p);
      req.tag = static_cast<std::uint32_t>(i);
      if (rng.below(2) == 0) {
        req.write = true;
        req.wdata = static_cast<std::uint32_t>(rng.next());
        req.wstrb = 0xF;
      }
      reqs[p].push_back(req);
    }
  }
  std::vector<std::unique_ptr<MemoryRun>> runs;
  for (const auto mapping :
       {DramMapping::row_interleaved, DramMapping::bank_interleaved,
        DramMapping::permuted}) {
    MemoryBackendConfig cfg = diff_cfg(MemoryKind::dram);
    cfg.dram.mapping = mapping;
    runs.push_back(
        std::make_unique<MemoryRun>(cfg, dram_mapping_name(mapping)));
    ASSERT_TRUE(runs.back()->replay(reqs)) << runs.back()->label;
  }
  expect_runs_agree(runs, "mappings");
}

}  // namespace
}  // namespace axipack::mem
