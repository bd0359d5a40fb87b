#include "systems/sensitivity.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "axi/burst.hpp"
#include "axi/types.hpp"
#include "systems/builder.hpp"
#include "util/rng.hpp"

namespace axipack::sys {

namespace {

constexpr std::uint64_t kBase = 0x8000'0000ull;
constexpr unsigned kBusBytes = 32;          ///< 256-bit bus, as in §III-E
constexpr std::size_t kCoalesceWindow = 16;  ///< grouping window when enabled
constexpr std::uint64_t kIndexSeed = 1;     ///< random-index stream seed
constexpr std::uint64_t kGranuleBytes = 4096;  ///< channel interleave

/// Aborts with `point` and the run's error unless the run completed.
void require_complete(const RunResult& r, const std::string& point) {
  if (r.correct) return;
  std::fprintf(stderr, "%s: %s\n", point.c_str(), r.error.c_str());
  std::abort();
}

}  // namespace

RunResult measure_read_utilization(const SensitivityConfig& cfg) {
  const unsigned elem_bytes = cfg.elem_bits / 8;
  const std::uint64_t epb = kBusBytes / elem_bytes;
  const std::uint64_t elems_per_burst = epb * cfg.burst_beats;
  const std::uint64_t total_elems = elems_per_burst * cfg.num_bursts;

  // Size the data region to cover the whole stream.
  const std::uint64_t span =
      cfg.indirect
          ? (1ull << 22)
          : elems_per_burst * cfg.num_bursts *
                    static_cast<std::uint64_t>(
                        cfg.stride_elems < 0 ? -cfg.stride_elems
                                             : cfg.stride_elems + 1) *
                    elem_bytes +
                (1u << 16);

  // Bare measurement fabric: one stream master straight into the adapter
  // (no xbar/link hops), banks == 0 selecting the ideal memory.
  SystemBuilder builder;
  builder.bus_bits(kBusBytes * 8)
      .mem_region(kBase, span + (1ull << 22))
      .monitor(false)
      .naive_kernel(cfg.naive_kernel);
  if (cfg.banks == 0) {
    builder.memory(mem::MemoryKind::ideal);
  } else {
    builder.banks(cfg.banks).mem_queue_depths(2, 256);
  }
  pack::AdapterConfig ac;
  ac.queue_depth = cfg.queue_depth;
  ac.resp_fifo_depth = 512;
  ac.idx_window_lines = cfg.idx_window_lines;
  if (cfg.coalesce_entries > 0) {
    ac.coalesce_enable = true;
    ac.coalesce_entries = cfg.coalesce_entries;
    ac.coalesce_window = kCoalesceWindow;
  }
  builder.adapter(ac);
  builder.attach_stream("ideal-requestor");
  std::unique_ptr<System> system = builder.build();

  // Build the burst stream.
  std::vector<axi::AxiAr> ars;
  if (cfg.indirect) {
    // Random indices over the table; index array placed past the table.
    const std::uint64_t table_elems = (1ull << 20) / elem_bytes;
    const std::uint64_t idx_base = kBase + (1ull << 21);
    util::Rng rng(kIndexSeed);
    const unsigned ib = cfg.index_bits / 8;
    std::vector<std::uint8_t> raw(total_elems * ib);
    for (std::uint64_t i = 0; i < total_elems; ++i) {
      const std::uint64_t max_idx =
          std::min<std::uint64_t>(table_elems, 1ull << cfg.index_bits);
      const std::uint64_t idx = rng.below(max_idx);
      for (unsigned b = 0; b < ib; ++b) {
        raw[i * ib + b] = static_cast<std::uint8_t>(idx >> (8 * b));
      }
    }
    system->store().write(idx_base, raw.data(), raw.size());
    ars = axi::split_pack_indirect(kBase, idx_base, cfg.index_bits,
                                   elem_bytes, total_elems, kBusBytes);
  } else {
    const std::int64_t stride_bytes =
        cfg.stride_elems * static_cast<std::int64_t>(elem_bytes);
    const std::uint64_t start =
        cfg.stride_elems >= 0
            ? kBase
            : kBase + static_cast<std::uint64_t>(-stride_bytes) * total_elems;
    ars = axi::split_pack_strided(start, stride_bytes, elem_bytes, total_elems,
                                  kBusBytes);
  }

  std::vector<std::vector<axi::AxiAr>> streams;
  streams.push_back(std::move(ars));
  const RunResult r = system->run_streams(std::move(streams), 50'000'000);
  require_complete(
      r, "measure_read_utilization(" +
             std::string(cfg.indirect ? "indirect" : "strided") +
             " elem_bits=" + std::to_string(cfg.elem_bits) +
             " index_bits=" + std::to_string(cfg.index_bits) +
             " stride=" + std::to_string(cfg.stride_elems) +
             " banks=" + std::to_string(cfg.banks) +
             " depth=" + std::to_string(cfg.queue_depth) + ")");
  return r;
}

double strided_util_avg(unsigned elem_bits, unsigned banks,
                        unsigned max_stride) {
  double sum = 0.0;
  for (unsigned s = 0; s <= max_stride; ++s) {
    SensitivityConfig cfg;
    cfg.banks = banks;
    cfg.elem_bits = elem_bits;
    cfg.stride_elems = static_cast<std::int64_t>(s);
    cfg.num_bursts = 4;  // short steady-state run per stride
    sum += measure_read_utilization(cfg).r_util;
  }
  return sum / (max_stride + 1);
}

RunResult measure_channel_streams(unsigned channels, unsigned masters,
                                  mem::DramMapping mapping,
                                  std::uint64_t bytes_per_master,
                                  bool naive_kernel) {
  // Each master streams its own contiguous region; regions are granule
  // multiples so every master's bursts round-robin all channels the same
  // way regardless of its region index.
  const std::uint64_t span =
      (bytes_per_master + kGranuleBytes - 1) / kGranuleBytes * kGranuleBytes;
  const std::uint64_t block = kGranuleBytes * channels;
  const std::uint64_t mem_size =
      (span * masters + (1ull << 20) + block - 1) / block * block;

  SystemBuilder builder;
  builder.bus_bits(kBusBytes * 8)
      .mem_region(kBase, mem_size)
      .channels(channels, kGranuleBytes)
      .naive_kernel(naive_kernel);
  builder.memory(mem::MemoryKind::dram);
  mem::DramTimingConfig t;
  t.mapping = mapping;
  builder.dram_timing(t);
  std::vector<std::vector<axi::AxiAr>> streams;
  for (unsigned m = 0; m < masters; ++m) {
    builder.attach_stream("req" + std::to_string(m));
    streams.push_back(axi::split_contiguous(kBase + m * span, bytes_per_master,
                                            kBusBytes, axi::Traffic::data));
  }

  const RunResult r = builder.build()->run_streams(std::move(streams));
  require_complete(
      r, "measure_channel_streams(channels=" + std::to_string(channels) +
             " masters=" + std::to_string(masters) + " mapping=" +
             mem::dram_mapping_name(mapping) +
             " bytes_per_master=" + std::to_string(bytes_per_master) + ")");
  return r;
}

}  // namespace axipack::sys
