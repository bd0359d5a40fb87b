#include "systems/system.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "mem/dram_memory.hpp"
#include "util/json.hpp"

namespace axipack::sys {

// ------------------------------------------------------------- builder

SystemBuilder& SystemBuilder::bus_bits(unsigned bits) {
  assert(bits == 64 || bits == 128 || bits == 256);
  bus_bits_ = bits;
  return *this;
}

SystemBuilder& SystemBuilder::mem_region(std::uint64_t base,
                                         std::uint64_t size) {
  mem_base_ = base;
  mem_size_ = size;
  return *this;
}

SystemBuilder& SystemBuilder::queue_depth(unsigned depth) {
  queue_depth_ = depth;
  return *this;
}

SystemBuilder& SystemBuilder::monitor(bool on) {
  monitor_ = on;
  return *this;
}

SystemBuilder& SystemBuilder::naive_kernel(bool on) {
  naive_kernel_ = on;
  return *this;
}

SystemBuilder& SystemBuilder::channels(unsigned n,
                                       std::uint64_t granule_bytes) {
  // Bad geometry fails loudly here, like dram_sched(): the XOR-folded
  // channel selector consumes exactly log2(channels) address bits, so
  // non-power-of-two values silently alias channels instead of spreading.
  if (n == 0 || n > 64 || (n & (n - 1)) != 0) {
    std::fprintf(stderr,
                 "SystemBuilder::channels: channel count must be a power of "
                 "two in [1, 64] (got %u); the interleaved channel selector "
                 "uses log2(channels) address bits\n",
                 n);
    std::abort();
  }
  if (granule_bytes == 0 || (granule_bytes & (granule_bytes - 1)) != 0) {
    std::fprintf(stderr,
                 "SystemBuilder::channels: interleave granule must be a "
                 "power of two (got %llu bytes)\n",
                 static_cast<unsigned long long>(granule_bytes));
    std::abort();
  }
  channels_ = n;
  channel_granule_ = granule_bytes;
  return *this;
}

SystemBuilder& SystemBuilder::memory(mem::MemoryKind kind) {
  mem_cfg_.kind = kind;
  return *this;
}

SystemBuilder& SystemBuilder::banks(unsigned n) {
  mem_cfg_.num_banks = n;
  return *this;
}

SystemBuilder& SystemBuilder::dram_timing(const mem::DramTimingConfig& t) {
  mem_cfg_.dram = t;
  return *this;
}

SystemBuilder& SystemBuilder::dram_sched(std::optional<std::size_t> window,
                                         sim::Cycle starve_cap) {
  // Bad values fail loudly here (not just deep inside DramMemory): a zero
  // window is always a config error — use window 1 / cap 0 to disable
  // batching explicitly.
  if (window && *window == 0) {
    std::fprintf(stderr,
                 "SystemBuilder::dram_sched: window must be >= 1 (got 0); "
                 "use window=1 or starve_cap=0 to disable batching\n");
    std::abort();
  }
  if (window) {
    mem_cfg_.dram_sched_window = *window;
    sched_window_set_ = true;
  }
  mem_cfg_.dram_starve_cap = starve_cap;
  return *this;
}

SystemBuilder& SystemBuilder::mem_queue_depths(std::size_t req_depth,
                                               std::size_t resp_depth) {
  if (req_depth == 0 || resp_depth == 0) {
    std::fprintf(stderr,
                 "SystemBuilder::mem_queue_depths: req_depth=%zu / "
                 "resp_depth=%zu must be >= 1 (zero-capacity FIFOs cannot "
                 "carry traffic)\n",
                 req_depth, resp_depth);
    std::abort();
  }
  mem_cfg_.req_depth = req_depth;
  mem_cfg_.resp_depth = resp_depth;
  mem_depths_explicit_ = true;
  return *this;
}

SystemBuilder& SystemBuilder::adapter(const pack::AdapterConfig& cfg) {
  adapter_cfg_ = cfg;
  adapter_explicit_ = true;
  return *this;
}

SystemBuilder& SystemBuilder::coalescer(bool enable, std::size_t entries,
                                        std::size_t window) {
  // Bad values fail loudly here, like dram_sched(): a zero-entry table or
  // zero-lookahead window cannot carry traffic — disable the unit instead.
  if (enable && (entries == 0 || window == 0)) {
    std::fprintf(stderr,
                 "SystemBuilder::coalescer: entries=%zu / window=%zu must "
                 "be >= 1 when enabling; use coalescer(false) to disable\n",
                 entries, window);
    std::abort();
  }
  coalesce_set_ = true;
  coalesce_enable_ = enable;
  coalesce_entries_ = entries;
  coalesce_window_ = window;
  return *this;
}

SystemBuilder& SystemBuilder::faults(const sim::FaultConfig& cfg) {
  faults_set_ = true;
  fault_cfg_ = cfg;
  return *this;
}

SystemBuilder& SystemBuilder::retry(const sim::RetryConfig& cfg) {
  retry_set_ = true;
  retry_cfg_ = cfg;
  return *this;
}

SystemBuilder& SystemBuilder::traffic(const traffic::TrafficConfig& cfg) {
  traffic_set_ = true;
  traffic_cfg_ = cfg;
  if (sg_master_ < 0) sg_dma(cfg.dma);
  return *this;
}

MasterId SystemBuilder::sg_dma(const dma::DmaConfig& cfg) {
  const MasterId id = attach_dma(cfg);
  sg_master_ = static_cast<int>(id);
  return id;
}

MasterId SystemBuilder::attach_processor(vproc::VlsuMode mode) {
  MasterSpec spec;
  spec.kind = MasterKind::processor;
  spec.proc.mode = mode;
  spec.name = "proc" + std::to_string(masters_.size());
  masters_.push_back(std::move(spec));
  return static_cast<MasterId>(masters_.size() - 1);
}

MasterId SystemBuilder::attach_dma(const dma::DmaConfig& cfg) {
  MasterSpec spec;
  spec.kind = MasterKind::dma;
  spec.dma = cfg;
  spec.name = "dma" + std::to_string(masters_.size());
  masters_.push_back(std::move(spec));
  return static_cast<MasterId>(masters_.size() - 1);
}

MasterId SystemBuilder::attach_port(const std::string& name) {
  MasterSpec spec;
  spec.kind = MasterKind::port;
  spec.name = name;
  masters_.push_back(std::move(spec));
  return static_cast<MasterId>(masters_.size() - 1);
}

MasterId SystemBuilder::attach_stream(const std::string& name) {
  const MasterId id = attach_port(name);
  masters_.back().kind = MasterKind::stream;
  return id;
}

std::unique_ptr<System> SystemBuilder::build() const {
  return std::unique_ptr<System>(new System(*this));
}

// ------------------------------------------------------------- system

/// The ideal requestor of §III-E as a gate-safe component: pushes its
/// loaded AR stream (one request per cycle, as AR-channel handshaking
/// allows) and drains/accounts R beats. Quiescent once all requests are
/// out — from then on only R traffic (subscribed) re-activates it.
class System::StreamMaster final : public sim::Component {
 public:
  StreamMaster(sim::Kernel& k, axi::AxiPort& port) : port_(port) {
    k.add(*this);
    k.subscribe(*this, port_.r);
  }

  void load(std::vector<axi::AxiAr> ars) {
    ars_ = std::move(ars);
    next_ar_ = 0;
    beats_left_ = 0;
    payload_bytes_ = 0;
    for (const axi::AxiAr& ar : ars_) beats_left_ += ar.beats();
    wake_self();
  }

  void tick() override {
    if (next_ar_ < ars_.size() && port_.ar.try_push(ars_[next_ar_])) {
      ++next_ar_;
    }
    while (const auto beat = port_.r.try_pop()) {
      payload_bytes_ += beat->useful_bytes;
      --beats_left_;
    }
  }

  bool quiescent() const override { return next_ar_ >= ars_.size(); }

  bool done() const { return beats_left_ == 0; }
  std::uint64_t payload_bytes() const { return payload_bytes_; }

 private:
  axi::AxiPort& port_;
  std::vector<axi::AxiAr> ars_;
  std::size_t next_ar_ = 0;
  std::uint64_t beats_left_ = 0;
  std::uint64_t payload_bytes_ = 0;
};

System::~System() = default;

System::System(const SystemBuilder& b) : bus_bytes_(b.bus_bits_ / 8) {
  kernel_.set_gating(!b.naive_kernel_);
  store_ = std::make_unique<mem::BackingStore>(b.mem_base_, b.mem_size_);
  if (b.faults_set_) {
    fault_plan_ = std::make_unique<sim::FaultPlan>(b.fault_cfg_);
  }

  // Create one AXI port per fabric-attached master.
  std::vector<axi::AxiPort*> fabric_ports;
  for (const auto& spec : b.masters_) {
    Master m;
    m.kind = spec.kind;
    m.name = spec.name;
    const bool needs_port =
        spec.kind != SystemBuilder::MasterKind::processor ||
        spec.proc.mode != vproc::VlsuMode::ideal;
    if (needs_port) {
      m.port = std::make_unique<axi::AxiPort>(kernel_, 2, spec.name);
      fabric_ports.push_back(m.port.get());
    }
    masters_.push_back(std::move(m));
  }

  // Wire the fabric and the memory channels behind it.
  if (!fabric_ports.empty()) {
    const unsigned num_ch = b.channels_;
    if (num_ch > 1) {
      // Capacity constraints only checkable once the bus width and memory
      // region are both known; loud like the setter's power-of-two checks.
      if (b.channel_granule_ < bus_bytes_) {
        std::fprintf(stderr,
                     "SystemBuilder::channels: interleave granule %llu B is "
                     "smaller than one bus beat (%u B); bursts would change "
                     "channel mid-beat\n",
                     static_cast<unsigned long long>(b.channel_granule_),
                     bus_bytes_);
        std::abort();
      }
      const std::uint64_t block =
          static_cast<std::uint64_t>(num_ch) * b.channel_granule_;
      if (b.mem_size_ % block != 0) {
        std::fprintf(stderr,
                     "SystemBuilder::channels: memory size %llu B is not "
                     "divisible by channels * granule = %u * %llu B; the "
                     "tail would interleave across a partial block\n",
                     static_cast<unsigned long long>(b.mem_size_), num_ch,
                     static_cast<unsigned long long>(b.channel_granule_));
        std::abort();
      }
    }

    // With >= 2 channels every fabric master gets an interleaving router;
    // each channel's fabric then sees the routers' per-channel ports as
    // its masters. channels(1) routes nothing and wires the master ports
    // straight into the single fabric slice (today's system, exactly).
    std::vector<std::vector<axi::AxiPort*>> ch_masters(num_ch);
    if (num_ch > 1) {
      axi::ChannelRouteConfig rc;
      rc.base = b.mem_base_;
      rc.size = b.mem_size_;
      rc.granule = b.channel_granule_;
      rc.channels = num_ch;
      routers_.resize(masters_.size());
      for (std::size_t i = 0; i < masters_.size(); ++i) {
        if (!masters_[i].port) continue;
        routers_[i] = std::make_unique<axi::ChannelRouter>(
            kernel_, *masters_[i].port, rc, masters_[i].name + ".rt");
        for (unsigned c = 0; c < num_ch; ++c) {
          ch_masters[c].push_back(&routers_[i]->down(c));
        }
      }
    } else {
      ch_masters[0] = fabric_ports;
    }

    const bool dram = b.mem_cfg_.kind == mem::MemoryKind::dram;
    pack::AdapterConfig ac = b.adapter_cfg_;
    // coalescer() composes with (rather than replaces) the defaults below,
    // and is applied first so the DRAM sizing sees whether the coalescing
    // stage lengthens the memory loop.
    if (b.coalesce_set_) {
      ac.coalesce_enable = b.coalesce_enable_;
      ac.coalesce_entries = b.coalesce_entries_;
      ac.coalesce_window = b.coalesce_window_;
    }
    if (!b.adapter_explicit_) {
      ac.queue_depth = b.queue_depth_;
      if (dram) {
        // Latency-tolerant converter queues: the SRAM-sized defaults
        // serialize on the DRAM access latency (a row miss costs
        // tRP + tRCD + tCAS instead of 1 cycle, and the coalesced mux may
        // hold a lane for its sticky patience on top). Size the per-lane
        // in-flight budget and the index-prefetch window to that whole
        // loop, so gather requests are already queued when the scheduler
        // looks for same-row work, and keep more bursts outstanding across
        // AR boundaries.
        const sim::Cycle loop = pack::AxiPackAdapter::memory_loop_latency(
            b.mem_cfg_.dram.row_miss_latency(), ac.coalesce_enable);
        ac.queue_depth =
            std::max<unsigned>(ac.queue_depth, static_cast<unsigned>(loop));
        ac.lane_fifo_depth = std::max<std::size_t>(ac.lane_fifo_depth, 4);
        ac.idx_window_lines =
            std::max<std::size_t>(ac.idx_window_lines, loop);
        ac.pack_max_bursts = std::max<std::size_t>(ac.pack_max_bursts, 4);
      }
    }
    ac.bus_bytes = bus_bytes_;

    mem::MemoryBackendConfig mc = b.mem_cfg_;
    mc.num_ports = bus_bytes_ / mem::kWordBytes;
    mc.channels = num_ch;
    mc.channel_granule_bytes = b.channel_granule_;
    if (dram && !b.sched_window_set_) {
      // The row-batching scheduler can only batch what it can see: size
      // each port's window to every word request the adapter's converter
      // stages can have in flight on that port's lane, so none of them
      // waits in the port mux, out of the scheduler's sight.
      mc.dram_sched_window =
          pack::AxiPackAdapter::lane_inflight_words(ac.queue_depth);
    }
    if (dram && !b.mem_depths_explicit_) {
      // The request FIFOs bound the window the scheduler can fill: they
      // track it, never dropping below the config's default window so
      // that explicit window sweeps below it keep the FIFOs they always
      // had and compare schedulers, not FIFO sizes.
      mc.req_depth = std::max(
          {mc.req_depth, mc.dram_sched_window,
           mem::MemoryBackendConfig{}.dram_sched_window});
    }

    channels_.reserve(num_ch);
    for (unsigned c = 0; c < num_ch; ++c) {
      Channel ch;
      const std::string sfx = num_ch > 1 ? std::to_string(c) : std::string{};
      axi::AxiPort* upstream = nullptr;  // port that feeds this adapter
      if (b.monitor_) {
        // channel masters -> xbar -> mid -> monitored link -> adapter.
        ch.mid = std::make_unique<axi::AxiPort>(kernel_, 2, "mid" + sfx);
        ch.adapter_port =
            std::make_unique<axi::AxiPort>(kernel_, 2, "adapter" + sfx);
        ch.xbar = std::make_unique<axi::AxiXbar>(
            kernel_, ch_masters[c],
            std::vector<axi::AxiPort*>{ch.mid.get()},
            std::vector<axi::AddrRule>{{b.mem_base_, b.mem_size_, 0}});
        ch.link = std::make_unique<axi::AxiLink>(kernel_, *ch.mid,
                                                 *ch.adapter_port);
        ch.checker = std::make_unique<axi::ProtocolChecker>(bus_bytes_);
        ch.link->attach_checker(ch.checker.get());
        upstream = ch.adapter_port.get();
      } else if (ch_masters[c].size() == 1) {
        // Bare measurement fabric: the channel's one port feeds the
        // adapter directly.
        upstream = ch_masters[c].front();
      } else {
        // channel masters -> xbar -> adapter (no monitoring hop).
        ch.adapter_port =
            std::make_unique<axi::AxiPort>(kernel_, 2, "adapter" + sfx);
        ch.xbar = std::make_unique<axi::AxiXbar>(
            kernel_, ch_masters[c],
            std::vector<axi::AxiPort*>{ch.adapter_port.get()},
            std::vector<axi::AddrRule>{{b.mem_base_, b.mem_size_, 0}});
        upstream = ch.adapter_port.get();
      }

      ch.memory = mem::make_memory(kernel_, *store_, mc);
      ch.adapter = std::make_unique<pack::AxiPackAdapter>(
          kernel_, *upstream, *ch.memory, ac);
      auto* dram_memory = dynamic_cast<mem::DramMemory*>(ch.memory.get());
      if (ac.coalesce_enable && dram_memory != nullptr) {
        // Give the grouping window the DRAM's real bank/row decomposition
        // instead of the coarse address-granule default.
        const mem::DramAddressMap* map = &dram_memory->map();
        const std::uint64_t base = b.mem_base_;
        ch.adapter->set_indirect_locality([map, base](std::uint64_t addr) {
          const std::uint64_t w = (addr - base) / mem::kWordBytes;
          return (static_cast<std::uint64_t>(map->bank_of(w)) << 48) |
                 map->row_of(w);
        });
      }
      if (fault_plan_) {
        // One plan shared by every channel: injection sites draw from the
        // same per-site event counters, so the fault stream stays a pure
        // function of (seed, site, event ordinal) regardless of which
        // channel an event lands on.
        if (ch.link) ch.link->set_fault_plan(fault_plan_.get());
        ch.adapter->set_fault_plan(fault_plan_.get());
        if (dram_memory != nullptr) {
          dram_memory->set_fault_plan(fault_plan_.get());
        }
      }
      channels_.push_back(std::move(ch));
    }
  }

  // Instantiate the masters now that their ports exist.
  for (std::size_t i = 0; i < masters_.size(); ++i) {
    const auto& spec = b.masters_[i];
    Master& m = masters_[i];
    switch (spec.kind) {
      case SystemBuilder::MasterKind::processor: {
        vproc::VProcConfig vc = spec.proc;
        vc.bus_bytes = bus_bytes_;
        vc.lanes = bus_bytes_ / mem::kWordBytes;
        if (b.retry_set_) vc.retry = b.retry_cfg_;
        m.proc = std::make_unique<vproc::Processor>(kernel_, vc, *store_,
                                                    m.port.get());
        break;
      }
      case SystemBuilder::MasterKind::dma: {
        dma::DmaConfig dc = spec.dma;
        dc.bus_bytes = bus_bytes_;
        if (b.retry_set_) dc.retry = b.retry_cfg_;
        m.dma = std::make_unique<dma::DmaEngine>(kernel_, *m.port, dc);
        break;
      }
      case SystemBuilder::MasterKind::stream:
        m.stream = std::make_unique<StreamMaster>(kernel_, *m.port);
        break;
      case SystemBuilder::MasterKind::port:
        break;
    }
  }

  // Open-loop traffic: carve the driver's ring/pool/data footprint from
  // the TOP of the memory window (workloads allocate from the bottom, so
  // closed-loop data placement is unaffected) and register the driver
  // last, after every component it may wake.
  if (b.traffic_set_) {
    assert(b.sg_master_ >= 0 && "traffic() attaches the sg master");
    sg_master_ = static_cast<MasterId>(b.sg_master_);
    dma::DmaEngine* engine = masters_[sg_master_].dma.get();
    assert(engine != nullptr);
    const std::uint64_t fp = traffic::footprint_bytes();
    if (fp + 4096 > b.mem_size_) {
      std::fprintf(stderr,
                   "SystemBuilder::traffic: driver footprint %llu B does "
                   "not fit the %llu B memory region (grow mem_region)\n",
                   static_cast<unsigned long long>(fp),
                   static_cast<unsigned long long>(b.mem_size_));
      std::abort();
    }
    const std::uint64_t region =
        (b.mem_base_ + b.mem_size_ - fp) & ~std::uint64_t{63};
    driver_ = std::make_unique<traffic::OpenLoopDriver>(
        kernel_, *engine, *store_, b.traffic_cfg_, region);
  }

  // Host writes (reduction post-ops, the open-loop driver's ring slots)
  // bypass the fabric: the coalescing units must drop their retained
  // copies of those words as they do for fabric writes. Installed last:
  // nothing is retained while the system is being built.
  if (!channels_.empty() &&
      !channels_.front().adapter->coalescers().empty()) {
    store_->set_host_write_hook([this](std::uint64_t addr, std::uint64_t n) {
      for (Channel& c : channels_) c.adapter->snoop_host_write(addr, n);
    });
  }
}

vproc::Processor& System::processor(MasterId id) {
  assert(id < masters_.size() && masters_[id].proc);
  return *masters_[id].proc;
}

vproc::Processor& System::processor() {
  for (auto& m : masters_) {
    if (m.proc) return *m.proc;
  }
  // Must fail loudly even in assert-free builds: a DMA-only system has no
  // processor to run a workload on.
  std::fprintf(stderr, "System::processor(): no processor master attached\n");
  std::abort();
}

dma::DmaEngine& System::dma(MasterId id) {
  assert(id < masters_.size() && masters_[id].dma);
  return *masters_[id].dma;
}

axi::AxiPort& System::master_port(MasterId id) {
  assert(id < masters_.size() && masters_[id].port);
  return *masters_[id].port;
}

bool System::drained() const {
  if (driver_ && !driver_->drained()) return false;
  for (const auto& m : masters_) {
    if (m.proc && !m.proc->done()) return false;
    if (m.dma && !m.dma->idle()) return false;
    if (m.stream && !m.stream->done()) return false;
  }
  for (const auto& ch : channels_) {
    if (ch.adapter && !ch.adapter->idle()) return false;
  }
  for (const auto& rt : routers_) {
    if (rt && rt->pending() != 0) return false;
  }
  return true;
}

sim::RunStatus System::run_until_drained(sim::Cycle max_cycles) {
  // drained() only observes simulator state, so the kernel may fast-forward
  // through fully-asleep stretches between evaluations.
  return kernel_.run_until([this] { return drained(); }, max_cycles,
                           sim::Kernel::PredKind::pure);
}

sim::RetryStats System::aggregate_retry() const {
  // Master-side recovery counters, summed over all processors and DMA
  // engines (they accumulate across runs, so callers diff snapshots).
  sim::RetryStats s;
  for (const auto& m : masters_) {
    const sim::RetryStats* rs = nullptr;
    if (m.proc) {
      rs = &m.proc->context().retry_stats;
    } else if (m.dma) {
      rs = &m.dma->retry_stats();
    }
    if (rs == nullptr) continue;
    s.retries += rs->retries;
    s.timeouts += rs->timeouts;
    s.failed_ops += rs->failed_ops;
    s.degraded = s.degraded || rs->degraded;
  }
  return s;
}

System::StatSnapshot System::begin_run() {
  for (auto& m : masters_) {
    if (m.proc) m.proc->context().mem_latency.clear();
    if (m.dma) m.dma->latency_hist().clear();
  }
  if (driver_) driver_->clear_measurements();
  StatSnapshot s;
  s.start = kernel_.now();
  if (fault_plan_) s.faults = fault_plan_->stats();
  s.retry = aggregate_retry();
  // Per-channel snapshots (counters accumulate across runs, so diff).
  s.bus.resize(channels_.size());
  s.mem.resize(channels_.size());
  s.co.resize(channels_.size());
  s.iw.resize(channels_.size());
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    const Channel& ch = channels_[c];
    if (ch.link) s.bus[c] = ch.link->stats();
    if (ch.memory) s.mem[c] = ch.memory->activity();
    if (ch.adapter) {
      s.co[c] = ch.adapter->coalescer_stats();
      s.iw[c] = ch.adapter->indirect_word_stats();
    }
  }
  return s;
}

bool System::end_run(RunResult& result, const StatSnapshot& snap,
                     bool finished) const {
  result.bus_bits = bus_bytes_ * 8;
  result.cycles = kernel_.now() - snap.start;
  result.channels =
      static_cast<unsigned>(std::max<std::size_t>(1, channels_.size()));
  if (!finished) result.error = "timeout";
  return finished;
}

bool System::collect_stats(RunResult& result, const StatSnapshot& snap) {
  const double bus_capacity =
      static_cast<double>(result.cycles) * bus_bytes_;
  const bool monitored =
      !channels_.empty() && channels_.front().link != nullptr;
  if (monitored) {
    // Aggregate = sum of every channel link's counters; utilizations are
    // normalized against ONE link's capacity (see RunResult), so a
    // perfectly-scaled C-channel run reports r_util near C.
    result.per_channel.resize(channels_.size());
    for (std::size_t c = 0; c < channels_.size(); ++c) {
      const axi::BusStats d = channels_[c].link->stats().diff(snap.bus[c]);
      result.bus += d;
      ChannelRunStats& cs = result.per_channel[c];
      cs.bus = d;
      cs.r_util = static_cast<double>(d.r_payload_bytes) / bus_capacity;
    }
    result.r_util = static_cast<double>(result.bus.r_payload_bytes) /
                    bus_capacity;
    result.r_util_no_idx =
        static_cast<double>(result.bus.r_payload_bytes -
                            result.bus.r_index_bytes) /
        bus_capacity;
    result.w_util = static_cast<double>(result.bus.w_payload_bytes) /
                    bus_capacity;
  } else if (!has_fabric()) {
    // IDEAL: utilization of the exclusive per-lane ports.
    const auto rd = result.activity.get("ideal.read_bytes");
    const auto ix = result.activity.get("ideal.index_bytes");
    const auto wr = result.activity.get("ideal.write_bytes");
    result.r_util = static_cast<double>(rd + ix) / bus_capacity;
    result.r_util_no_idx = static_cast<double>(rd) / bus_capacity;
    result.w_util = static_cast<double>(wr) / bus_capacity;
  }
  // else: fabric built with monitor(false) — there is no monitored hop, so
  // bus utilization is not measured and the fields stay 0.
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    const Channel& ch = channels_[c];
    if (ch.memory) {
      const mem::MemoryBackendStats now = ch.memory->activity();
      const mem::MemoryBackendStats& st = snap.mem[c];
      result.bank_grants += now.grants - st.grants;
      result.bank_conflict_losses +=
          now.conflict_losses - st.conflict_losses;
      result.row_hits += now.row_hits - st.row_hits;
      result.row_misses += now.row_misses - st.row_misses;
      result.refresh_stall_cycles +=
          now.refresh_stall_cycles - st.refresh_stall_cycles;
      result.row_batch_defer_cycles +=
          now.row_batch_defer_cycles - st.row_batch_defer_cycles;
      result.row_starved_grants +=
          now.row_starved_grants - st.row_starved_grants;
      if (monitored) {
        result.per_channel[c].row_hits = now.row_hits - st.row_hits;
        result.per_channel[c].row_misses = now.row_misses - st.row_misses;
      }
    }
    if (ch.adapter) {
      const pack::CoalescerStats co = ch.adapter->coalescer_stats();
      result.coalesce_merged += co.merged - snap.co[c].merged;
      result.coalesce_unique += co.unique - snap.co[c].unique;
      // Peak occupancy is a high-water mark, not a counter: report the
      // worst lifetime peak across channels, not a difference or a sum.
      result.coalesce_peak_pending =
          std::max(result.coalesce_peak_pending, co.peak_pending);
      result.coalesce_row_groups += co.row_groups - snap.co[c].row_groups;
      const pack::IndirectWordStats iw = ch.adapter->indirect_word_stats();
      result.indirect_idx_words += iw.idx_words - snap.iw[c].idx_words;
      result.indirect_elem_words += iw.elem_words - snap.iw[c].elem_words;
    }
  }
  if (fault_plan_) {
    const sim::FaultStats& fs = fault_plan_->stats();
    result.faults_injected = fs.injected - snap.faults.injected;
    result.faults_corrected =
        fs.dram_correctable - snap.faults.dram_correctable;
    result.faults_uncorrectable =
        result.faults_injected - result.faults_corrected;
  }
  const sim::RetryStats retry_now = aggregate_retry();
  result.retries = retry_now.retries - snap.retry.retries;
  result.retry_timeouts = retry_now.timeouts - snap.retry.timeouts;
  result.failed_ops = retry_now.failed_ops - snap.retry.failed_ops;
  result.degraded = retry_now.degraded;
  // Per-request latency: every master's histogram was cleared when the
  // run started, so merging the raw histograms is the run's own traffic.
  for (const auto& m : masters_) {
    if (m.proc) result.latency.merge(m.proc->context().mem_latency);
    if (m.dma) {
      result.latency.merge(m.dma->latency_hist());
      result.queue_peak =
          std::max(result.queue_peak, m.dma->stats().queue_peak);
    }
  }
  for (const Channel& ch : channels_) {
    if (!ch.checker) continue;
    result.protocol_violations += ch.checker->violations().size();
    // With fault injection active, rule breaches are the expected symptom
    // of injected misbehaviour (a truncated burst IS a beat-count
    // violation): surface them as diagnostics and keep going. Without a
    // fault plan they indicate a real modelling bug and fail the run hard.
    if (!ch.checker->violations().empty() && fault_plan_ == nullptr) {
      result.correct = false;
      result.error = "AXI protocol violation: " +
                     ch.checker->violations().front().rule + " — " +
                     ch.checker->violations().front().detail;
      return false;
    }
  }
  if (result.failed_ops > 0) {
    // A master exhausted its retry budget (or hit a fatal DECERR): the
    // produced data is unrecoverable by construction, so don't bother
    // diffing it against the reference.
    result.correct = false;
    result.error = "unrecoverable memory fault";
    return false;
  }
  return true;
}

RunResult System::run(const wl::WorkloadInstance& instance,
                      sim::Cycle max_cycles) {
  vproc::Processor& proc = processor();
  RunResult result;
  const StatSnapshot snap = begin_run();
  const sim::Counters counters_start = proc.counters();

  proc.run(instance.program);
  if (!end_run(result, snap, run_until_drained(max_cycles))) return result;

  result.activity = proc.counters().diff(counters_start);
  if (!collect_stats(result, snap)) return result;
  result.correct = instance.check(*store_, result.error);
  return result;
}

RunResult System::run_open_loop(sim::Cycle measure_cycles,
                                sim::Cycle max_cycles) {
  if (!driver_) {
    // Must fail loudly even in assert-free builds: without traffic() there
    // is no arrival process to run.
    std::fprintf(stderr,
                 "System::run_open_loop: system was built without "
                 "SystemBuilder::traffic()\n");
    std::abort();
  }
  RunResult result;
  const StatSnapshot snap = begin_run();

  driver_->arm(kernel_.now() + measure_cycles);
  kernel_.run(measure_cycles);
  // Arrivals have stopped; let every in-flight request complete.
  if (!end_run(result, snap, run_until_drained(max_cycles))) return result;

  const bool ok = collect_stats(result, snap);
  // The driver's sojourn measurements (arrival -> completion, including
  // ring-slot wait) subsume nothing the masters recorded: the sg engine
  // only stamps push/chain descriptors, never ring ordinals.
  result.latency.merge(driver_->latency());
  result.offered_rate = driver_->offered_rate();
  result.achieved_rate = driver_->achieved_rate();
  result.queue_peak =
      std::max(result.queue_peak, driver_->stats().queue_peak);
  if (!ok) return result;
  if (driver_->stats().failed != 0) {
    result.correct = false;
    result.error = "open-loop request completed with error";
    return result;
  }
  result.correct = driver_->verify(result.error);
  return result;
}

RunResult System::run_streams(std::vector<std::vector<axi::AxiAr>> streams,
                              sim::Cycle max_cycles) {
  std::vector<StreamMaster*> masters;
  for (auto& m : masters_) {
    if (m.stream) masters.push_back(m.stream.get());
  }
  if (streams.size() != masters.size()) {
    // Must fail loudly even in assert-free builds: a stream without a
    // master (or a master without a stream) silently changes the load.
    std::fprintf(stderr,
                 "System::run_streams: %zu streams for %zu attach_stream() "
                 "masters\n",
                 streams.size(), masters.size());
    std::abort();
  }
  RunResult result;
  const StatSnapshot snap = begin_run();
  for (std::size_t i = 0; i < masters.size(); ++i) {
    masters[i]->load(std::move(streams[i]));
  }

  // The done predicate is a pure observation, so idle stretches
  // fast-forward.
  const sim::RunStatus finished = kernel_.run_until(
      [&] {
        return std::all_of(masters.begin(), masters.end(),
                           [](const StreamMaster* s) { return s->done(); });
      },
      max_cycles, sim::Kernel::PredKind::pure);
  if (!end_run(result, snap, finished)) return result;

  if (!collect_stats(result, snap)) return result;
  if (bus_stats() == nullptr) {
    // No monitored link: the payload the masters drained is the R traffic.
    std::uint64_t payload = 0;
    for (const StreamMaster* s : masters) payload += s->payload_bytes();
    result.r_util = static_cast<double>(payload) /
                    (static_cast<double>(result.cycles) * bus_bytes_);
  }
  result.correct = true;
  return result;
}

std::string RunResult::to_json() const {
  util::JsonWriter w;
  w.begin_object();
  w.key("bus_bits").value(bus_bits);
  w.key("cycles").value(cycles);
  w.key("channels").value(channels);
  w.key("r_util").value(r_util);
  w.key("r_util_no_idx").value(r_util_no_idx);
  w.key("w_util").value(w_util);
  w.key("correct").value(correct);
  w.key("protocol_violations").value(protocol_violations);
  w.key("bank_grants").value(bank_grants);
  w.key("bank_conflict_losses").value(bank_conflict_losses);
  w.key("row_hits").value(row_hits);
  w.key("row_misses").value(row_misses);
  w.key("row_hit_ratio").value(row_hit_ratio());
  w.key("refresh_stall_cycles").value(refresh_stall_cycles);
  w.key("row_batch_defer_cycles").value(row_batch_defer_cycles);
  w.key("row_starved_grants").value(row_starved_grants);
  w.key("coalesce_merged").value(coalesce_merged);
  w.key("coalesce_unique").value(coalesce_unique);
  w.key("coalesce_peak_pending").value(coalesce_peak_pending);
  w.key("coalesce_row_groups").value(coalesce_row_groups);
  w.key("indirect_idx_words").value(indirect_idx_words);
  w.key("indirect_elem_words").value(indirect_elem_words);
  w.key("faults_injected").value(faults_injected);
  w.key("faults_corrected").value(faults_corrected);
  w.key("faults_uncorrectable").value(faults_uncorrectable);
  w.key("retries").value(retries);
  w.key("retry_timeouts").value(retry_timeouts);
  w.key("failed_ops").value(failed_ops);
  w.key("degraded").value(degraded);
  w.key("latency_p50").value(latency.percentile(50.0));
  w.key("latency_p95").value(latency.percentile(95.0));
  w.key("latency_p99").value(latency.percentile(99.0));
  w.key("latency_max").value(latency.max());
  w.key("latency_count").value(latency.count());
  w.key("offered_rate").value(offered_rate);
  w.key("achieved_rate").value(achieved_rate);
  w.key("queue_peak").value(queue_peak);
  w.key("per_channel").begin_array();
  for (const ChannelRunStats& cs : per_channel) {
    w.begin_object();
    w.key("r_util").value(cs.r_util);
    w.key("r_beats").value(cs.bus.r_beats);
    w.key("r_payload_bytes").value(cs.bus.r_payload_bytes);
    w.key("w_payload_bytes").value(cs.bus.w_payload_bytes);
    w.key("row_hits").value(cs.row_hits);
    w.key("row_misses").value(cs.row_misses);
    w.key("r_fault_beats").value(cs.bus.r_fault_beats);
    w.end_object();
  }
  w.end_array();
  if (!error.empty()) w.key("error").value(error);
  w.end_object();
  return w.str();
}

}  // namespace axipack::sys
