// SystemBuilder: fluent construction of evaluation SoCs.
//
// A system is a set of masters (vector processors, DMA engines, read-stream
// masters, or raw externally-driven AXI ports) attached to one memory
// endpoint — an AXI-Pack adapter in front of a banked SRAM, ideal or DRAM
// memory — through an auto-wired fabric:
//
//   * >1 AXI master            -> crossbar between masters and the adapter
//   * monitor(true) (default)  -> monitored link + protocol checker on the
//                                 hop in front of the adapter
//   * monitor(false), 1 master -> the master port feeds the adapter
//                                 directly (the measurement fabrics used by
//                                 the Fig. 5 stream recipes and quickstart)
//   * processors in VlsuMode::ideal take no AXI port; a system with no AXI
//     masters builds no fabric at all (the paper's IDEAL SoC).
//
// Topology parameters (bus width, banks, queue depths) are set once on the
// builder and propagated consistently into every component, replacing the
// old fixed proc->xbar->link->adapter pipeline wired inside System.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dma/engine.hpp"
#include "mem/backend.hpp"
#include "pack/adapter.hpp"
#include "sim/fault.hpp"
#include "sim/kernel.hpp"
#include "traffic/driver.hpp"
#include "vproc/context.hpp"

namespace axipack::sys {

class System;

/// Handle to one attached master, returned by the attach_* calls and used
/// to address the master on the built System.
using MasterId = unsigned;

class SystemBuilder {
 public:
  // ---- fabric-wide parameters ------------------------------------------
  /// AXI data-bus width in bits (64, 128 or 256). Lane counts, word-port
  /// counts and per-master widths are derived from it at build time.
  SystemBuilder& bus_bits(unsigned bits);
  /// Simulated memory window (base address and size in bytes).
  SystemBuilder& mem_region(std::uint64_t base, std::uint64_t size);
  /// Adapter decoupling-queue depth (see queue_depth_ for the RTL mapping).
  SystemBuilder& queue_depth(unsigned depth);
  /// Monitored link + protocol checker in front of the adapter (default on).
  SystemBuilder& monitor(bool on);
  /// Builds the system on a naive (ungated) kernel: every component ticks
  /// every cycle. Results are cycle-identical to the default gated kernel;
  /// used by the equivalence tests and as the perf-harness baseline.
  SystemBuilder& naive_kernel(bool on);
  /// Memory channels behind an address-interleaving ChannelRouter per
  /// master: each channel owns a full fabric slice (crossbar, monitored
  /// link, adapter, memory) and `granule_bytes` decides the interleave
  /// granularity (XOR-folded channel selection, composable with the DRAM
  /// mappings). Both values must be powers of two — rejected loudly
  /// otherwise, like the capacity constraints at build time (granule at
  /// least one bus beat; mem size divisible by channels * granule).
  /// channels(1) is the single-endpoint system, bit- and cycle-identical
  /// to builds that never call this.
  SystemBuilder& channels(unsigned n, std::uint64_t granule_bytes = 4096);

  // ---- memory ----------------------------------------------------------
  /// Selects the memory model behind every channel's adapter: the banked
  /// SRAM (the default), the conflict-free ideal memory, or the DRAM
  /// timing model. Every other memory parameter keeps its value, set
  /// before or after this call.
  SystemBuilder& memory(mem::MemoryKind kind);
  /// SRAM bank count (banked only; 17 by default).
  SystemBuilder& banks(unsigned n);
  /// Overrides the DRAM model's bank organization, mapping policy and
  /// timing set (ignored by the other memories). Does not change which
  /// memory is selected — pair with memory(mem::MemoryKind::dram).
  SystemBuilder& dram_timing(const mem::DramTimingConfig& t);
  /// DRAM only: row-aware batching scheduler — per-port lookahead window
  /// (1 = head-only scheduling) and starvation cap in cycles (0 disables
  /// batching too). Window 0 is rejected loudly; std::nullopt sets only
  /// the cap and keeps the window as previously set. Without an explicit
  /// window, each channel's window is derived at build time from the
  /// adapter it serves: every word the adapter's converter stages can have
  /// in flight on one lane (AxiPackAdapter::lane_inflight_words — 210 on
  /// pack-dram, 434 coalesced). An explicit window keeps the request FIFO
  /// depth of the fixed-default builds: max(32, window).
  SystemBuilder& dram_sched(std::optional<std::size_t> window,
                            sim::Cycle starve_cap);
  /// Explicit per-port memory FIFO depths (all memories). Zero depths are
  /// rejected loudly; setting these disables the DRAM model's automatic
  /// deepening at build time (the derived scheduling window stays, bounded
  /// by req_depth).
  SystemBuilder& mem_queue_depths(std::size_t req_depth,
                                  std::size_t resp_depth);

  // ---- adapter tuning --------------------------------------------------
  /// Overrides the adapter configuration; `bus_bytes` is still derived from
  /// the bus width. Also fixes the decoupling-queue depth (overrides
  /// queue_depth()).
  SystemBuilder& adapter(const pack::AdapterConfig& cfg);
  /// Near-memory index coalescing unit on the indirect read path: an
  /// MSHR-style pending table of `entries` slots plus a row/bank grouping
  /// window of `window` requests, with the index stage moved onto parallel
  /// lanes. Zero entries/window with enable=true are rejected loudly.
  /// Unlike adapter(), this composes with the memory-derived adapter
  /// defaults (deep queues for DRAM, sized to the coalesced memory loop;
  /// see AxiPackAdapter::memory_loop_latency) instead of replacing them.
  SystemBuilder& coalescer(bool enable, std::size_t entries = 512,
                           std::size_t window = 16);

  // ---- robustness ------------------------------------------------------
  /// Deterministic fault injection across the fabric: the built system owns
  /// a FaultPlan wired into the monitored link, the pack converters and the
  /// DRAM model. Calling this with an all-zero-rate config still attaches
  /// a plan (so tests can pin faults via FaultPlan::force); not calling it
  /// attaches nothing and the system is bit- and cycle-identical to one
  /// built before this subsystem existed.
  SystemBuilder& faults(const sim::FaultConfig& cfg);
  /// Master-side retry/watchdog/breaker knobs, applied to every attached
  /// processor and DMA engine at build time (overriding any RetryConfig
  /// set on an individual master's own config).
  SystemBuilder& retry(const sim::RetryConfig& cfg);

  // ---- open-loop traffic -----------------------------------------------
  /// Open-loop arrival-process load stream against a scatter-gather ring
  /// DMA master (see traffic/driver.hpp). The built system owns an
  /// OpenLoopDriver whose ring/pool/data footprint is carved from the TOP
  /// of the memory region; drive it with System::run_open_loop. If no
  /// sg_dma() master was attached yet, one is attached here with
  /// `cfg.dma`. Not calling this builds no driver and the system stays
  /// bit- and cycle-identical to one built before this subsystem existed.
  SystemBuilder& traffic(const traffic::TrafficConfig& cfg);
  /// Attaches the scatter-gather ring DMA master the traffic stream will
  /// drive. Call before traffic() to control the engine configuration;
  /// traffic() auto-attaches a default-configured one otherwise.
  MasterId sg_dma(const dma::DmaConfig& cfg = {});

  // ---- masters ---------------------------------------------------------
  /// Vector processor in the given VLSU mode; its lane count and bus width
  /// are derived from the builder's bus. VlsuMode::ideal processors run on
  /// their exclusive ideal memory and take no AXI port.
  MasterId attach_processor(vproc::VlsuMode mode);
  /// AXI-Pack DMA engine; its bus width is derived from the builder's bus.
  MasterId attach_dma(const dma::DmaConfig& cfg = {});
  /// Raw master port driven by the caller (adapter unit-test harnesses).
  MasterId attach_port(const std::string& name);
  /// Read-stream master (the paper's §III-E "ideal requestor"): issues a
  /// prepared AR list one request per cycle and drains every R beat.
  /// Drive the stream masters with System::run_streams.
  MasterId attach_stream(const std::string& name);

  unsigned bus_bytes() const { return bus_bits_ / 8; }
  unsigned num_channels() const { return channels_; }

  // ---- planning introspection ------------------------------------------
  // Read-only views the workload planner (plan_workload) uses to pick the
  // methodology-fastest variant for the system this builder describes.
  /// The memory model the built system will use.
  mem::MemoryKind memory_kind() const { return mem_cfg_.kind; }
  /// VLSU mode of the first attached processor master — the one
  /// System::run drives — or disengaged when no processor is attached.
  std::optional<vproc::VlsuMode> primary_vlsu_mode() const {
    for (const MasterSpec& m : masters_) {
      if (m.kind == MasterKind::processor) return m.proc.mode;
    }
    return std::nullopt;
  }

  /// Assembles the system. The builder can be reused (each build creates an
  /// independent system).
  std::unique_ptr<System> build() const;

 private:
  friend class System;

  enum class MasterKind : std::uint8_t { processor, dma, stream, port };

  struct MasterSpec {
    MasterKind kind = MasterKind::port;
    vproc::VProcConfig proc;
    dma::DmaConfig dma;
    std::string name;
  };

  unsigned bus_bits_ = 256;
  std::uint64_t mem_base_ = 0x8000'0000ull;
  std::uint64_t mem_size_ = 96ull << 20;
  unsigned channels_ = 1;
  std::uint64_t channel_granule_ = 4096;
  // Adapter decoupling queues. The paper's RTL uses depth 4; our word path
  // crosses two more registered FIFO hops each way (port mux request and
  // response stages are combinational in the RTL), so depth 8 covers the
  // same bank round trip the RTL's depth 4 does. See
  // bench/ablation_queue_depth for the sensitivity.
  unsigned queue_depth_ = 8;
  bool monitor_ = true;
  bool naive_kernel_ = false;
  mem::MemoryBackendConfig mem_cfg_;
  bool mem_depths_explicit_ = false;
  bool sched_window_set_ = false;  ///< else derived from the adapter
  pack::AdapterConfig adapter_cfg_;
  bool adapter_explicit_ = false;
  bool coalesce_set_ = false;
  bool coalesce_enable_ = false;
  std::size_t coalesce_entries_ = 512;
  std::size_t coalesce_window_ = 16;
  bool faults_set_ = false;
  sim::FaultConfig fault_cfg_;
  bool retry_set_ = false;
  sim::RetryConfig retry_cfg_;
  bool traffic_set_ = false;
  traffic::TrafficConfig traffic_cfg_;
  int sg_master_ = -1;  ///< index of the sg_dma() master, -1 = none yet
  std::vector<MasterSpec> masters_;
};

}  // namespace axipack::sys
