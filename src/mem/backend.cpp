#include "mem/backend.hpp"

#include <cstdio>
#include <cstdlib>

namespace axipack::mem {

BankedBackend::BankedBackend(sim::Kernel& k, BackingStore& store,
                             const MemoryBackendConfig& cfg) {
  BankedMemoryConfig mc;
  mc.num_ports = cfg.num_ports;
  mc.num_banks = cfg.num_banks;
  mc.req_depth = cfg.req_depth;
  mc.resp_depth = cfg.resp_depth;
  memory_ = std::make_unique<BankedMemory>(k, store, mc);
}

MemoryBackendStats BankedBackend::stats() const {
  MemoryBackendStats s;
  s.grants = memory_->xbar().total_grants();
  s.conflict_losses = memory_->xbar().total_conflict_losses();
  return s;
}

DramBackend::DramBackend(sim::Kernel& k, BackingStore& store,
                         const MemoryBackendConfig& cfg) {
  DramMemoryConfig mc;
  mc.num_ports = cfg.num_ports;
  mc.req_depth = cfg.req_depth;
  mc.resp_depth = cfg.resp_depth;
  mc.sched_window = cfg.dram_sched_window;
  mc.starve_cap = cfg.dram_starve_cap;
  mc.timing = cfg.dram;
  mc.channels = cfg.channels;
  mc.channel_granule_words = cfg.channel_granule_bytes / kWordBytes;
  memory_ = std::make_unique<DramMemory>(k, store, mc);
}

MemoryBackendStats DramBackend::stats() const {
  const DramStats& d = memory_->stats();
  MemoryBackendStats s;
  s.grants = d.grants;
  s.conflict_losses = d.conflict_losses;
  s.row_hits = d.row_hits;
  s.row_misses = d.row_misses;
  s.refresh_stall_cycles = d.refresh_stall_cycles;
  s.row_batch_defer_cycles = d.batch_defer_cycles;
  s.row_starved_grants = d.starved_grants;
  return s;
}

IdealBackend::IdealBackend(sim::Kernel& k, BackingStore& store,
                           const MemoryBackendConfig& cfg) {
  IdealMemoryConfig mc;
  mc.num_ports = cfg.num_ports;
  mc.req_depth = cfg.req_depth;
  mc.resp_depth = cfg.resp_depth;
  memory_ = std::make_unique<IdealMemory>(k, store, mc);
}

MemoryBackendStats IdealBackend::stats() const {
  // Conflict-free: every request is granted, nothing is lost. Grants are not
  // tracked by IdealMemory, so report zero activity.
  return MemoryBackendStats{};
}

BackendRegistry::BackendRegistry() {
  add("banked", [](sim::Kernel& k, BackingStore& store,
                   const MemoryBackendConfig& cfg) {
    return std::unique_ptr<MemoryBackend>(new BankedBackend(k, store, cfg));
  });
  add("ideal", [](sim::Kernel& k, BackingStore& store,
                  const MemoryBackendConfig& cfg) {
    return std::unique_ptr<MemoryBackend>(new IdealBackend(k, store, cfg));
  });
  add("dram", [](sim::Kernel& k, BackingStore& store,
                 const MemoryBackendConfig& cfg) {
    return std::unique_ptr<MemoryBackend>(new DramBackend(k, store, cfg));
  });
}

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry registry;
  return registry;
}

void BackendRegistry::add(const std::string& name, BackendFactory factory) {
  for (auto& [key, value] : factories_) {
    if (key == name) {
      value = std::move(factory);
      return;
    }
  }
  factories_.emplace_back(name, std::move(factory));
}

bool BackendRegistry::contains(const std::string& name) const {
  for (const auto& [key, value] : factories_) {
    if (key == name) return true;
  }
  return false;
}

std::vector<std::string> BackendRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [key, value] : factories_) out.push_back(key);
  return out;
}

std::unique_ptr<MemoryBackend> BackendRegistry::create(
    sim::Kernel& k, BackingStore& store,
    const MemoryBackendConfig& cfg) const {
  for (const auto& [key, factory] : factories_) {
    if (key == cfg.name) return factory(k, store, cfg);
  }
  // An unknown backend name must never yield a null endpoint the system
  // wiring would dereference: fail loudly even in assert-free builds.
  std::fprintf(stderr, "unknown memory backend \"%s\"; registered: ",
               cfg.name.c_str());
  for (const auto& [key, factory] : factories_) {
    std::fprintf(stderr, "%s ", key.c_str());
  }
  std::fprintf(stderr, "\n");
  std::abort();
}

}  // namespace axipack::mem
