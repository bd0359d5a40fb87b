// Ahead-of-time data layout transform with the AXI-Pack DMA engine.
//
// The paper's Related Work positions AXI-Pack as subsuming DLT accelerators
// (PLANAR, the HMC rearrangement engine): "bus packing can be done on the
// fly by our controller or ahead of time by an AXI-Pack-capable DMA
// controller". This example gathers a strided matrix column into a
// contiguous buffer three ways and compares the cost:
//
//   1. pack DMA    — one AXI-Pack strided burst stream (this paper),
//   2. narrow DMA  — a conventional per-element gather engine (baseline),
//   3. and shows the descriptor-chain API batching several columns.
//
// Usage: dma_transform [matrix_dim]           (default 256)
#include <array>
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "dma/descriptor.hpp"
#include "dma/engine.hpp"
#include "size_args.hpp"
#include "systems/scenario.hpp"
#include "systems/system.hpp"
#include "util/table.hpp"

namespace {

using namespace axipack;

/// Minimal single-master fabric: DMA -> adapter -> 17-bank memory — the
/// registry's "single-dma-{pack,narrow}" scenarios.
struct Fabric {
  std::unique_ptr<sys::System> system;
  mem::BackingStore& store;
  dma::DmaEngine& engine;

  explicit Fabric(bool use_pack)
      : system(sys::ScenarioRegistry::instance().build(
            use_pack ? "single-dma-pack" : "single-dma-narrow")),
        store(system->store()),
        engine(system->dma(0)) {}

  std::uint64_t run() {
    const std::uint64_t start = system->kernel().now();
    const bool ok = system->run_until_drained(50'000'000);
    if (!ok) std::fprintf(stderr, "DMA did not drain!\n");
    return system->kernel().now() - start;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const auto [n] =
      examples::size_args(argc, argv, std::array{256u}, "[matrix_dim]");
  std::printf("dma_transform: gathering one column of a %ux%u FP32 matrix "
              "into a contiguous buffer\n\n", n, n);

  util::Table table({"engine", "bursts (AR)", "R beats", "cycles",
                     "bytes/cycle", "speedup"});
  std::uint64_t narrow_cycles = 0;
  bool all_correct = true;
  for (const bool use_pack : {false, true}) {
    Fabric fab(use_pack);
    // Row-major matrix; column gather is a stride of one row.
    const std::uint64_t mat = fab.store.alloc(std::uint64_t{n} * n * 4, 64);
    const std::uint64_t dst = fab.store.alloc(std::uint64_t{n} * 4, 64);
    for (std::uint64_t i = 0; i < std::uint64_t{n} * n; ++i) {
      fab.store.write_f32(mat + 4 * i, static_cast<float>(i % 1000));
    }

    dma::Descriptor d;
    d.src = dma::Pattern::strided(mat + 4 * 7 /* column 7 */,
                                  std::int64_t{n} * 4);
    d.dst = dma::Pattern::contiguous(dst);
    d.elem_bytes = 4;
    d.num_elems = n;
    fab.engine.push(d);
    const std::uint64_t cycles = fab.run();
    if (!use_pack) narrow_cycles = cycles;

    bool correct = true;
    for (std::uint64_t i = 0; i < n; ++i) {
      correct &= fab.store.read_f32(dst + 4 * i) ==
                 fab.store.read_f32(mat + 4 * 7 + i * std::uint64_t{n} * 4);
    }
    all_correct &= correct;
    const auto& s = fab.engine.stats();
    table.row()
        .cell(use_pack ? "AXI-Pack strided burst" : "per-element narrow")
        .cell(s.ar_bursts)
        .cell(s.r_beats)
        .cell(cycles)
        .cell(static_cast<double>(s.bytes_moved) / cycles, 2)
        .cell(correct
                  ? util::fmt(static_cast<double>(narrow_cycles) / cycles, 2) +
                        "x"
                  : std::string("WRONG DATA"));
  }
  table.print(std::cout);

  // Descriptor chains batch many transforms with one host interaction.
  std::printf("\nbatching all %u columns with one in-memory descriptor "
              "chain:\n", std::min(n, 8u));
  Fabric fab(true);
  const std::uint64_t mat = fab.store.alloc(std::uint64_t{n} * n * 4, 64);
  for (std::uint64_t i = 0; i < std::uint64_t{n} * n; ++i) {
    fab.store.write_f32(mat + 4 * i, static_cast<float>(i));
  }
  std::vector<dma::Descriptor> chain;
  for (std::uint32_t c = 0; c < std::min(n, 8u); ++c) {
    dma::Descriptor d;
    d.src = dma::Pattern::strided(mat + 4ull * c, std::int64_t{n} * 4);
    d.dst = dma::Pattern::contiguous(
        fab.store.alloc(std::uint64_t{n} * 4, 64));
    d.elem_bytes = 4;
    d.num_elems = n;
    chain.push_back(d);
  }
  fab.engine.start_chain(dma::build_chain(fab.store, chain));
  const std::uint64_t cycles = fab.run();
  std::printf("  %zu descriptors, %llu cycles total, %llu descriptor-fetch "
              "bytes on the bus\n",
              chain.size(), static_cast<unsigned long long>(cycles),
              static_cast<unsigned long long>(
                  fab.engine.stats().desc_fetch_bytes));
  return all_correct ? 0 : 1;
}
