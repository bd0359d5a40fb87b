// One assembled evaluation SoC. Systems are constructed exclusively by
// SystemBuilder (see builder.hpp): any number of masters (vector
// processors, DMA engines, read-stream masters, raw ports) reach N
// independent memory channels — each a full fabric slice of crossbar,
// monitored link, AXI-Pack adapter and memory (banked SRAM, ideal or
// DRAM) — through per-master address-interleaving ChannelRouters
// (channels(1) needs no router and is the single-endpoint system);
// ideal-mode processors run on their exclusive ideal memory.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "axi/channel_router.hpp"
#include "axi/monitor.hpp"
#include "axi/protocol_checker.hpp"
#include "axi/xbar.hpp"
#include "dma/engine.hpp"
#include "mem/backend.hpp"
#include "mem/backing_store.hpp"
#include "pack/adapter.hpp"
#include "sim/kernel.hpp"
#include "systems/builder.hpp"
#include "traffic/driver.hpp"
#include "util/histogram.hpp"
#include "vproc/processor.hpp"
#include "workloads/workloads.hpp"

namespace axipack::sys {

/// Per-channel slice of a multi-channel run's measurements (monitored
/// systems only; one entry per memory channel).
struct ChannelRunStats {
  axi::BusStats bus;            ///< this channel's link traffic
  double r_util = 0.0;          ///< this channel's link R utilization
  std::uint64_t row_hits = 0;   ///< dram only
  std::uint64_t row_misses = 0; ///< dram only
};

/// Measurements from one workload run.
struct RunResult {
  unsigned bus_bits = 256;  ///< data-bus width of the system that ran
  std::uint64_t cycles = 0;
  unsigned channels = 1;    ///< memory channels of the system that ran
  /// Aggregate utilizations sum every channel link's payload against ONE
  /// link's capacity, so they scale past 1.0 as channels are added — the
  /// scale-out metric the channel-scaling bench gates on. At channels == 1
  /// they are the familiar single-link utilizations.
  double r_util = 0.0;         ///< read-bus utilization, incl. index traffic
  double r_util_no_idx = 0.0;  ///< read-bus utilization, data only
  double w_util = 0.0;
  /// Per-channel slices of the aggregate counters (empty when the system
  /// was built with monitor(false); size == channels otherwise).
  std::vector<ChannelRunStats> per_channel;
  bool correct = false;
  std::uint64_t protocol_violations = 0;  ///< AXI rule breaches on the link
  std::string error;
  sim::Counters activity;  ///< processor activity during the run
  axi::BusStats bus;       ///< monitored link traffic during the run
  std::uint64_t bank_grants = 0;
  std::uint64_t bank_conflict_losses = 0;
  // Row-buffer behaviour of the DRAM model (zero elsewhere).
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
  std::uint64_t refresh_stall_cycles = 0;
  std::uint64_t row_batch_defer_cycles = 0;  ///< row-batching deferrals
  std::uint64_t row_starved_grants = 0;      ///< starvation-cap overrides
  // Coalescing-stage activity, aggregated over the adapter's four units
  // (element, index, strided-read, base channel); zero when the stage is
  // disabled. `unique` counts words actually fetched from memory, `merged`
  // counts requests served from a live or retained entry (or forwarded
  // from a queued full-word store) without a fetch.
  std::uint64_t coalesce_merged = 0;   ///< requests folded into live entries
  std::uint64_t coalesce_unique = 0;   ///< unique words fetched
  std::uint64_t coalesce_peak_pending = 0;  ///< max pending-table occupancy
  std::uint64_t coalesce_row_groups = 0;    ///< locality groups opened
  // Indirect converter word-level issue counts (fan-out accounting): words
  // *requested* by the gather/scatter lanes; with the coalescing stage on,
  // every element word is counted once there as unique or merged, so
  // coalesce_unique + coalesce_merged >= indirect_elem_words.
  std::uint64_t indirect_idx_words = 0;
  std::uint64_t indirect_elem_words = 0;
  // Fault injection and recovery (all zero/false on systems built without
  // SystemBuilder::faults). `failed_ops` > 0 means data was unrecoverable
  // and the run is reported incorrect; `degraded` means a master's breaker
  // tripped and it finished the run on the base (unpacked) path.
  std::uint64_t faults_injected = 0;
  std::uint64_t faults_corrected = 0;      ///< ECC-corrected DRAM reads
  std::uint64_t faults_uncorrectable = 0;  ///< injected minus corrected
  std::uint64_t retries = 0;
  std::uint64_t retry_timeouts = 0;
  std::uint64_t failed_ops = 0;
  bool degraded = false;
  // Per-request latency over the run, merged across every master
  // (processor accept->retire stamps, DMA descriptor arrival->completion)
  // and — on open-loop runs — the traffic driver's sojourn measurements
  // (arrival -> completion event, including ring-slot wait). Empty when
  // nothing retired (e.g. raw-port harness runs).
  util::Histogram latency;
  // Open-loop load metrics (zero on closed-loop runs): requests per 100k
  // cycles offered by the arrival process vs completed inside the
  // measurement window, and the in-system high-water mark (software
  // backlog + occupied ring slots). achieved < offered means the system
  // saturated below the offered rate.
  double offered_rate = 0.0;
  double achieved_rate = 0.0;
  std::uint64_t queue_peak = 0;

  /// Fraction of dram accesses served from the open row (0 when the run
  /// did not touch a DRAM model).
  double row_hit_ratio() const {
    const std::uint64_t total = row_hits + row_misses;
    return total == 0 ? 0.0 : static_cast<double>(row_hits) / total;
  }

  /// Renders the measurements as one JSON object (no trailing newline) —
  /// the fragment the experiment JSON emitter embeds in each point of a
  /// bench artifact.
  std::string to_json() const;
};

class System {
 public:
  ~System();

  mem::BackingStore& store() { return *store_; }
  sim::Kernel& kernel() { return kernel_; }
  unsigned bus_bytes() const { return bus_bytes_; }

  // ---- masters ---------------------------------------------------------
  unsigned num_masters() const {
    return static_cast<unsigned>(masters_.size());
  }
  /// Master-kind introspection (generic drivers, equivalence tests).
  bool is_processor(MasterId id) const {
    return id < masters_.size() && masters_[id].proc != nullptr;
  }
  bool is_dma(MasterId id) const {
    return id < masters_.size() && masters_[id].dma != nullptr;
  }
  /// The processor attached as master `id` (asserts kind).
  vproc::Processor& processor(MasterId id);
  /// The first attached processor (asserts one exists).
  vproc::Processor& processor();
  /// The DMA engine attached as master `id` (asserts kind).
  dma::DmaEngine& dma(MasterId id);
  /// The AXI port of master `id` (asserts the master has one; raw ports
  /// and fabric-attached processors/DMAs do).
  axi::AxiPort& master_port(MasterId id);

  // ---- fabric / endpoint -----------------------------------------------
  bool has_fabric() const {
    return !channels_.empty() && channels_.front().adapter != nullptr;
  }
  unsigned num_channels() const {
    return static_cast<unsigned>(channels_.size());
  }
  /// Channel 0's adapter (the only one on single-channel systems).
  pack::AxiPackAdapter& adapter() { return *channels_.front().adapter; }
  pack::AxiPackAdapter& adapter(unsigned channel) {
    return *channels_[channel].adapter;
  }
  /// The memory behind `channel`'s adapter; null on fabric-less (IDEAL)
  /// systems. dynamic_cast it to reach a model's own interface
  /// (mem::DramMemory's stats, config and address map).
  const mem::WordMemory* memory(unsigned channel) const {
    return channel < channels_.size() ? channels_[channel].memory.get()
                                      : nullptr;
  }
  /// Channel 0's monitored-link counters; null when built with
  /// monitor(false). Multi-channel callers aggregate over bus_stats(c).
  const axi::BusStats* bus_stats() const {
    return channels_.empty() || !channels_.front().link
               ? nullptr
               : &channels_.front().link->stats();
  }
  const axi::BusStats* bus_stats(unsigned channel) const {
    return channels_[channel].link ? &channels_[channel].link->stats()
                                   : nullptr;
  }
  /// The per-master channel router (channels >= 2 only; null otherwise).
  axi::ChannelRouter* router(MasterId id) {
    return id < routers_.size() ? routers_[id].get() : nullptr;
  }
  /// The system's fault plan, or null when built without faults(). Tests
  /// pin exact faults on it via FaultPlan::force before running.
  sim::FaultPlan* fault_plan() { return fault_plan_.get(); }
  /// Channel 0's protocol-checker diagnostics (empty when the system was
  /// built with monitor(false)).
  const axi::ProtocolChecker* protocol_checker() const {
    return channels_.empty() ? nullptr : channels_.front().checker.get();
  }

  /// True when every master is quiescent (processors done, DMA engines
  /// idle, stream masters fully drained; raw ports are caller-driven and
  /// always count as quiescent) and the adapter has drained.
  bool drained() const;
  /// Advances until drained() or the deadline; truthy iff drained, and
  /// carries the cycles consumed (sim::RunStatus converts to bool).
  sim::RunStatus run_until_drained(sim::Cycle max_cycles = 200'000'000);

  /// Runs one workload on the first processor to completion (waiting for
  /// every other master to drain too) and verifies it.
  RunResult run(const wl::WorkloadInstance& instance,
                sim::Cycle max_cycles = 200'000'000);

  /// The open-loop traffic driver, or null when the system was built
  /// without SystemBuilder::traffic().
  traffic::OpenLoopDriver* traffic_driver() { return driver_.get(); }
  /// Runs the open-loop traffic stream (builder::traffic() required —
  /// aborts loudly otherwise): arms the driver, generates arrivals for
  /// `measure_cycles`, drains every in-flight request, and reports
  /// latency percentiles, offered/achieved rates and the queue high-water
  /// mark alongside the usual fabric measurements. Data correctness is
  /// verified by diffing every touched destination group against a
  /// recomputed reference gather.
  RunResult run_open_loop(sim::Cycle measure_cycles = 400'000,
                          sim::Cycle max_cycles = 200'000'000);

  /// Runs read streams on the attach_stream() masters — list i goes to the
  /// i-th stream master — until every master has received all its beats,
  /// and reports the usual fabric measurements. On a monitor(false) fabric
  /// r_util is the payload the masters drained against one bus's capacity.
  /// A stream still running at `max_cycles` reports error "timeout".
  RunResult run_streams(std::vector<std::vector<axi::AxiAr>> streams,
                        sim::Cycle max_cycles = 200'000'000);

 private:
  friend class SystemBuilder;
  explicit System(const SystemBuilder& b);

  /// Pre-run snapshot of every accumulating counter a RunResult diffs.
  struct StatSnapshot {
    sim::Cycle start = 0;
    sim::FaultStats faults;
    sim::RetryStats retry;
    std::vector<axi::BusStats> bus;
    std::vector<mem::MemoryBackendStats> mem;
    std::vector<pack::CoalescerStats> co;
    std::vector<pack::IndirectWordStats> iw;
  };
  /// Starts a run (run, run_open_loop, run_streams): resets every
  /// per-request latency histogram the run merges and snapshots the
  /// counters.
  StatSnapshot begin_run();
  /// Ends a run's simulation: the result's bus width, cycles and channel
  /// count; a run that missed its deadline (`finished` false) reports
  /// error "timeout". Returns `finished`.
  bool end_run(RunResult& result, const StatSnapshot& snap,
               bool finished) const;
  /// Sums the master-side recovery counters over every processor and DMA.
  sim::RetryStats aggregate_retry() const;
  /// Fills the fabric/memory/fault/retry measurements of `result`
  /// (requires result.cycles set) and merges the latency histograms.
  /// Returns false — with result.correct/error set — on a hard failure
  /// (protocol violation without a fault plan, unrecoverable fault).
  bool collect_stats(RunResult& result, const StatSnapshot& snap);

  /// Read-stream master component (attach_stream); defined in system.cpp.
  class StreamMaster;

  struct Master {
    SystemBuilder::MasterKind kind;
    std::string name;
    std::unique_ptr<axi::AxiPort> port;      ///< null for ideal processors
    std::unique_ptr<vproc::Processor> proc;  ///< kind == processor
    std::unique_ptr<dma::DmaEngine> dma;     ///< kind == dma
    std::unique_ptr<StreamMaster> stream;    ///< kind == stream
  };

  /// One memory channel's fabric slice: its crossbar (several masters),
  /// monitored link + checker (monitor(true)), and its adapter + memory.
  /// All memories decode absolute addresses against the one shared
  /// BackingStore, so data placement is channel-count-invariant.
  struct Channel {
    std::unique_ptr<axi::AxiPort> mid;           ///< xbar -> link hop
    std::unique_ptr<axi::AxiPort> adapter_port;  ///< feeds the adapter
    std::unique_ptr<axi::AxiXbar> xbar;
    std::unique_ptr<axi::AxiLink> link;
    std::unique_ptr<axi::ProtocolChecker> checker;
    std::unique_ptr<mem::WordMemory> memory;
    std::unique_ptr<pack::AxiPackAdapter> adapter;
  };

  unsigned bus_bytes_ = 32;
  sim::Kernel kernel_;
  std::unique_ptr<mem::BackingStore> store_;
  std::vector<Master> masters_;
  // Fabric (empty when no master has an AXI port). One Channel per memory
  // channel; with >= 2 channels each fabric master gets a ChannelRouter
  // (indexed like masters_; null entries for port-less ideal processors).
  std::vector<Channel> channels_;
  std::vector<std::unique_ptr<axi::ChannelRouter>> routers_;
  std::unique_ptr<sim::FaultPlan> fault_plan_;  ///< null = fault-free
  /// Open-loop traffic driver + its scatter-gather master (traffic()).
  std::unique_ptr<traffic::OpenLoopDriver> driver_;
  MasterId sg_master_ = 0;  ///< valid only when driver_ != null
};

}  // namespace axipack::sys
