// Vector processor tests: functional data movement through each VLSU mode,
// chaining, hazards, reductions, and the in-memory-indexed instructions.
#include "test_common.hpp"

#include <memory>
#include <vector>

#include "systems/runner.hpp"
#include "systems/scenario.hpp"
#include "systems/system.hpp"
#include "workloads/workloads.hpp"

namespace axipack {
namespace {

using sys::SystemKind;
using vproc::VecProgram;

/// Builds a System via the scenario registry, fills `words` u32 pattern at
/// an allocated region, runs `program`, and keeps the system for
/// inspection.
struct ProgramFixture {
  explicit ProgramFixture(SystemKind kind, unsigned bus_bits = 256)
      : system_ptr(sys::ScenarioRegistry::instance().build(
            sys::scenario_name(kind, bus_bits))),
        system(*system_ptr) {}

  sys::RunResult run(VecProgram program) {
    wl::WorkloadInstance instance;
    instance.program = std::move(program);
    instance.check = [](const mem::BackingStore&, std::string&) {
      return true;
    };
    return system.run(instance);
  }

  std::unique_ptr<sys::System> system_ptr;
  sys::System& system;
};

TEST(VprocTest, UnitLoadStoreRoundTrip) {
  for (const auto kind :
       {SystemKind::base, SystemKind::pack, SystemKind::ideal}) {
    ProgramFixture f(kind);
    auto& store = f.system.store();
    const std::uint64_t src = store.alloc(4 * 64);
    const std::uint64_t dst = store.alloc(4 * 64);
    for (std::uint32_t i = 0; i < 64; ++i) store.write_u32(src + 4 * i, i + 7);
    VecProgram p;
    p.push(vproc::op_vle(1, src, 64));
    p.push(vproc::op_vse(1, dst, 64));
    const auto result = f.run(p);
    EXPECT_TRUE(result.error.empty()) << result.error;
    for (std::uint32_t i = 0; i < 64; ++i) {
      EXPECT_EQ(store.read_u32(dst + 4 * i), i + 7)
          << "system " << sys::system_name(kind) << " elem " << i;
    }
  }
}

TEST(VprocTest, StridedLoadAllModes) {
  for (const auto kind :
       {SystemKind::base, SystemKind::pack, SystemKind::ideal}) {
    ProgramFixture f(kind);
    auto& store = f.system.store();
    const std::uint64_t src = store.alloc(4 * 1024);
    const std::uint64_t dst = store.alloc(4 * 64);
    for (std::uint32_t i = 0; i < 1024; ++i)
      store.write_u32(src + 4 * i, i * 11);
    VecProgram p;
    p.push(vproc::op_vlse(2, src, 12, 50));  // every 3rd word
    p.push(vproc::op_vse(2, dst, 50));
    const auto result = f.run(p);
    EXPECT_TRUE(result.error.empty());
    for (std::uint32_t i = 0; i < 50; ++i) {
      EXPECT_EQ(store.read_u32(dst + 4 * i), 3 * i * 11)
          << sys::system_name(kind);
    }
  }
}

TEST(VprocTest, StridedStoreAllModes) {
  for (const auto kind :
       {SystemKind::base, SystemKind::pack, SystemKind::ideal}) {
    ProgramFixture f(kind);
    auto& store = f.system.store();
    const std::uint64_t src = store.alloc(4 * 64);
    const std::uint64_t dst = store.alloc(4 * 1024);
    for (std::uint32_t i = 0; i < 64; ++i)
      store.write_u32(src + 4 * i, 0xA000 + i);
    VecProgram p;
    p.push(vproc::op_vle(3, src, 40));
    p.push(vproc::op_vsse(3, dst, 20, 40));  // every 5th word
    const auto result = f.run(p);
    EXPECT_TRUE(result.error.empty());
    for (std::uint32_t i = 0; i < 40; ++i) {
      EXPECT_EQ(store.read_u32(dst + 20ull * i), 0xA000u + i)
          << sys::system_name(kind);
    }
  }
}

TEST(VprocTest, CoreSideIndexedGather) {
  for (const auto kind : {SystemKind::base, SystemKind::ideal}) {
    ProgramFixture f(kind);
    auto& store = f.system.store();
    const std::uint64_t table = store.alloc(4 * 512);
    const std::uint64_t idx = store.alloc(4 * 32);
    const std::uint64_t dst = store.alloc(4 * 32);
    for (std::uint32_t i = 0; i < 512; ++i)
      store.write_u32(table + 4 * i, i ^ 0x55);
    const std::uint32_t indices[8] = {500, 1, 30, 2, 2, 77, 400, 0};
    std::vector<std::uint32_t> all;
    for (int r = 0; r < 4; ++r)
      for (auto v : indices) all.push_back(v);
    store.write(idx, all.data(), all.size() * 4);
    VecProgram p;
    p.push(vproc::op_vle(4, idx, 32, axi::Traffic::index));
    p.push(vproc::op_vluxei(5, table, 4, 32));
    p.push(vproc::op_vse(5, dst, 32));
    const auto result = f.run(p);
    EXPECT_TRUE(result.error.empty());
    for (std::uint32_t i = 0; i < 32; ++i) {
      EXPECT_EQ(store.read_u32(dst + 4 * i), all[i] ^ 0x55u)
          << sys::system_name(kind);
    }
  }
}

TEST(VprocTest, InMemoryIndexedGather) {
  ProgramFixture f(SystemKind::pack);
  auto& store = f.system.store();
  const std::uint64_t table = store.alloc(4 * 512);
  const std::uint64_t idx = store.alloc(4 * 40);
  const std::uint64_t dst = store.alloc(4 * 40);
  for (std::uint32_t i = 0; i < 512; ++i)
    store.write_u32(table + 4 * i, i * 13 + 1);
  std::vector<std::uint32_t> indices(40);
  for (std::uint32_t i = 0; i < 40; ++i) indices[i] = (i * 37) % 512;
  store.write(idx, indices.data(), indices.size() * 4);
  VecProgram p;
  p.push(vproc::op_vlimxei(6, table, idx, 40));
  p.push(vproc::op_vse(6, dst, 40));
  const auto result = f.run(p);
  EXPECT_TRUE(result.error.empty());
  for (std::uint32_t i = 0; i < 40; ++i) {
    EXPECT_EQ(store.read_u32(dst + 4 * i), indices[i] * 13 + 1);
  }
  // In-memory indirection must not put index traffic on the AXI bus.
  EXPECT_EQ(result.bus.r_index_bytes, 0u);
}

TEST(VprocTest, FmaccAndReduction) {
  ProgramFixture f(SystemKind::pack);
  auto& store = f.system.store();
  const std::uint64_t a = store.alloc(4 * 64);
  const std::uint64_t b = store.alloc(4 * 64);
  const std::uint64_t out = store.alloc(4);
  float expect = 0.0f;
  for (std::uint32_t i = 0; i < 64; ++i) {
    const float av = 0.25f * static_cast<float>(i);
    const float bv = 1.0f - 0.01f * static_cast<float>(i);
    store.write_f32(a + 4 * i, av);
    store.write_f32(b + 4 * i, bv);
    expect += av * bv;
  }
  VecProgram p;
  p.push(vproc::op_vle(1, a, 64));
  p.push(vproc::op_vle(2, b, 64));
  p.push(vproc::op_vfmul_vv(3, 1, 2, 64));
  p.push(vproc::op_vredsum(3, out, 64));
  const auto result = f.run(p);
  EXPECT_TRUE(result.error.empty());
  EXPECT_NEAR(store.read_f32(out), expect, 1e-3f);
}

TEST(VprocTest, ReductionPostOps) {
  ProgramFixture f(SystemKind::pack);
  auto& store = f.system.store();
  const std::uint64_t a = store.alloc(4 * 16);
  const std::uint64_t out = store.alloc(4);
  float sum = 0.0f;
  for (std::uint32_t i = 0; i < 16; ++i) {
    store.write_f32(a + 4 * i, static_cast<float>(i));
    sum += static_cast<float>(i);
  }
  store.write_f32(out, 5.0f);
  VecProgram p;
  p.push(vproc::op_vle(1, a, 16));
  vproc::VecOp red = vproc::op_vredsum(1, out, 16);
  red.post_scale = 0.5f;
  red.post_add = 2.0f;
  p.push(red);
  f.run(p);
  EXPECT_NEAR(store.read_f32(out), 0.5f * sum + 2.0f, 1e-4f);
}

TEST(VprocTest, ReductionMinWithDest) {
  ProgramFixture f(SystemKind::pack);
  auto& store = f.system.store();
  const std::uint64_t a = store.alloc(4 * 8);
  const std::uint64_t out = store.alloc(4);
  const float values[8] = {9, 7, 8, 6.5f, 12, 7.5f, 20, 11};
  for (int i = 0; i < 8; ++i) store.write_f32(a + 4 * i, values[i]);
  store.write_f32(out, 3.25f);  // destination already smaller
  VecProgram p;
  p.push(vproc::op_vle(1, a, 8));
  vproc::VecOp red = vproc::op_vredmin(1, out, 8);
  red.post_min_with_dest = true;
  p.push(red);
  f.run(p);
  EXPECT_FLOAT_EQ(store.read_f32(out), 3.25f);
}

TEST(VprocTest, SlidedownAligns) {
  ProgramFixture f(SystemKind::pack);
  auto& store = f.system.store();
  const std::uint64_t a = store.alloc(4 * 64);
  const std::uint64_t dst = store.alloc(4 * 16);
  for (std::uint32_t i = 0; i < 64; ++i) store.write_u32(a + 4 * i, 100 + i);
  VecProgram p;
  p.push(vproc::op_vle(1, a, 64));
  p.push(vproc::op_vslidedown(2, 1, 10, 16));
  p.push(vproc::op_vse(2, dst, 16));
  f.run(p);
  for (std::uint32_t i = 0; i < 16; ++i) {
    EXPECT_EQ(store.read_u32(dst + 4 * i), 110u + i);
  }
}

TEST(VprocTest, ChainingOverlapsLoadAndCompute) {
  // With chaining, vle + vfmul must take much less than their serial sum.
  ProgramFixture f(SystemKind::pack);
  auto& store = f.system.store();
  const std::uint64_t a = store.alloc(4 * 1024);
  for (std::uint32_t i = 0; i < 1024; ++i) store.write_f32(a + 4 * i, 1.0f);
  VecProgram chained;
  chained.push(vproc::op_vle(1, a, 1024));
  chained.push(vproc::op_vfmacc_vf(2, 1, 2.0f, 1024));
  const auto r = f.run(chained);
  // 1024 elems = 128 beats; serial would be ~128 + 128 cycles + overheads.
  EXPECT_LT(r.cycles, 220u);
  EXPECT_GT(r.cycles, 128u);
}

TEST(VprocTest, ConservativeMemoryOrdering) {
  // A store followed by a load of the same region must observe the store.
  for (const auto kind :
       {SystemKind::base, SystemKind::pack, SystemKind::ideal}) {
    ProgramFixture f(kind);
    auto& store = f.system.store();
    const std::uint64_t buf = store.alloc(4 * 32);
    const std::uint64_t dst = store.alloc(4 * 32);
    for (std::uint32_t i = 0; i < 32; ++i) store.write_u32(buf + 4 * i, 1);
    VecProgram p;
    p.push(vproc::op_vbrd(1, 42.0f, 32));
    p.push(vproc::op_vse(1, buf, 32));
    p.push(vproc::op_vle(2, buf, 32));
    p.push(vproc::op_vse(2, dst, 32));
    f.run(p);
    for (std::uint32_t i = 0; i < 32; ++i) {
      EXPECT_FLOAT_EQ(store.read_f32(dst + 4 * i), 42.0f)
          << sys::system_name(kind);
    }
  }
}

TEST(VprocTest, ScalarOpsConsumeIssueCycles) {
  ProgramFixture f(SystemKind::pack);
  VecProgram p;
  for (int i = 0; i < 10; ++i) p.push(vproc::op_scalar(7));
  const auto r = f.run(p);
  EXPECT_GE(r.cycles, 70u);
  EXPECT_LT(r.cycles, 100u);
}

TEST(VprocTest, PackStridedFasterThanBase) {
  // The core claim at instruction level: a strided load of 1024 elements is
  // several times faster with AXI-Pack.
  auto measure = [](SystemKind kind) {
    ProgramFixture f(kind);
    auto& store = f.system.store();
    const std::uint64_t src = store.alloc(4 * 16384);
    VecProgram p;
    p.push(vproc::op_vlse(1, src, 64, 1024));
    return f.run(p).cycles;
  };
  const auto base = measure(SystemKind::base);
  const auto pack = measure(SystemKind::pack);
  EXPECT_GT(base, 3 * pack);
}

TEST(VprocTest, ReductionPostOpWaitsForEarlierStores) {
  // sssp copies d_old into d_new with a vse, then read-min-writes d_new[u]
  // from each row's reduction post-op, with no fence in between. The
  // post-op touches memory directly, so it must wait until the copy's
  // stores have landed; otherwise a late copy word overwrites the relaxed
  // distance. A one-entry coalescer on the narrow BASE SoC delays the
  // copy's words enough to expose the race on most seeds.
  sys::SystemBuilder b =
      sys::ScenarioRegistry::instance().builder("base-64-17b");
  b.coalescer(true, 1, 1);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    wl::WorkloadConfig cfg = sys::plan_workload(wl::KernelKind::sssp, b);
    cfg.n = 32;
    cfg.nnz_per_row = 24;
    cfg.seed = seed;
    const sys::RunResult r = sys::run_workload(b, cfg);
    EXPECT_TRUE(r.correct) << "seed " << seed << ": " << r.error;
  }
}

}  // namespace
}  // namespace axipack
