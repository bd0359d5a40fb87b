// Multiple requestors sharing one AXI-Pack endpoint.
//
// The paper notes that "AXI-Pack supports non-core requestors (e.g.,
// accelerators) and systems with multiple requestors and endpoints". Here a
// vector processor runs sparse matrix-vector multiply with in-memory
// indirection while an AXI-Pack DMA engine simultaneously re-tiles a dense
// matrix (column gather) behind it — the pattern of a double-buffered
// pipeline where the DMA stages the next layer's data while the core
// computes the current one.
//
// The whole fabric — 2 masters -> crossbar -> monitored link -> AXI-Pack
// adapter -> 17 banks — is one registry scenario: "dual-master-pack".
//
// Usage: multi_master [spmv_rows] [gather_dim]   (default 128 256)
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "dma/descriptor.hpp"
#include "dma/engine.hpp"
#include "size_args.hpp"
#include "systems/runner.hpp"
#include "systems/scenario.hpp"
#include "systems/system.hpp"
#include "workloads/workloads.hpp"

int main(int argc, char** argv) {
  using namespace axipack;
  const auto [rows, dim] = examples::size_args(
      argc, argv, std::array{128u, 256u}, "[spmv_rows] [gather_dim]");

  // --- The registered dual-master scenario: vproc + DMA share the fabric.
  auto system = sys::ScenarioRegistry::instance().build("dual-master-pack");
  mem::BackingStore& store = system->store();

  // --- Master 0: vector processor running spmv with vlimxei.
  auto wl_cfg = sys::plan_workload(
      wl::KernelKind::spmv, sys::scenario_name(sys::SystemKind::pack));
  wl_cfg.n = rows;
  wl_cfg.nnz_per_row = std::min(rows, 64u);
  const wl::WorkloadInstance inst = wl::build_workload(store, wl_cfg);

  // --- Master 1: DMA gathering eight matrix columns into contiguous tiles.
  dma::DmaEngine& engine = system->dma(1);
  const std::uint64_t mat = store.alloc(std::uint64_t{dim} * dim * 4, 64);
  for (std::uint64_t i = 0; i < std::uint64_t{dim} * dim; ++i) {
    store.write_f32(mat + 4 * i, static_cast<float>(i % 997));
  }
  std::vector<dma::Descriptor> chain;
  std::vector<std::uint64_t> tiles;
  for (std::uint32_t c = 0; c < 8; ++c) {
    dma::Descriptor d;
    d.src = dma::Pattern::strided(mat + 4ull * c, std::int64_t{dim} * 4);
    d.dst = dma::Pattern::contiguous(store.alloc(std::uint64_t{dim} * 4, 64));
    tiles.push_back(d.dst.addr);
    d.elem_bytes = 4;
    d.num_elems = dim;
    chain.push_back(d);
  }
  engine.start_chain(dma::build_chain(store, chain));

  // --- Run both to completion.
  system->processor(0).run(inst.program);
  if (!system->run_until_drained(100'000'000)) {
    std::fprintf(stderr, "system did not drain\n");
    return 1;
  }

  std::string msg;
  const bool spmv_ok = inst.check(store, msg);
  bool dma_ok = true;
  for (std::uint32_t c = 0; c < 8; ++c) {
    for (std::uint64_t i = 0; i < dim; ++i) {
      dma_ok &= store.read_f32(tiles[c] + 4 * i) ==
                store.read_f32(mat + 4ull * c + i * std::uint64_t{dim} * 4);
    }
  }

  const axi::BusStats& bus = *system->bus_stats();
  const pack::AdapterStats& astats = system->adapter().stats();
  std::printf("multi_master: spmv (%u rows) on the vector core + 8-column "
              "gather DMA, one shared AXI-Pack adapter\n"
              "(scenario \"dual-master-pack\" from the registry)\n\n", rows);
  std::printf("  total cycles        : %llu\n",
              static_cast<unsigned long long>(system->kernel().now()));
  std::printf("  spmv result         : %s\n",
              spmv_ok ? "correct" : ("WRONG: " + msg).c_str());
  std::printf("  dma tiles           : %s\n",
              dma_ok ? "correct" : "WRONG DATA");
  std::printf("  adapter bursts      : base=%llu stridedR=%llu indirR=%llu\n",
              static_cast<unsigned long long>(astats.base_reads),
              static_cast<unsigned long long>(astats.strided_reads),
              static_cast<unsigned long long>(astats.indirect_reads));
  std::printf("  shared R bus        : %llu beats, %llu payload bytes\n",
              static_cast<unsigned long long>(bus.r_beats),
              static_cast<unsigned long long>(bus.r_payload_bytes));
  std::printf("\nboth requestors' packed streams interleave through the "
              "crossbar and adapter\nwithout reshaping — the property the "
              "paper's protocol design targets.\n");
  return (spmv_ok && dma_ok) ? 0 : 1;
}
