#include "mem/backend.hpp"

#include <cstdlib>

#include "mem/banked_memory.hpp"
#include "mem/dram_memory.hpp"
#include "mem/ideal_memory.hpp"

namespace axipack::mem {

std::unique_ptr<WordMemory> make_memory(sim::Kernel& k, BackingStore& store,
                                        const MemoryBackendConfig& cfg) {
  switch (cfg.kind) {
    case MemoryKind::banked: {
      BankedMemoryConfig mc;
      mc.num_ports = cfg.num_ports;
      mc.num_banks = cfg.num_banks;
      mc.req_depth = cfg.req_depth;
      mc.resp_depth = cfg.resp_depth;
      return std::make_unique<BankedMemory>(k, store, mc);
    }
    case MemoryKind::ideal: {
      IdealMemoryConfig mc;
      mc.num_ports = cfg.num_ports;
      mc.req_depth = cfg.req_depth;
      mc.resp_depth = cfg.resp_depth;
      return std::make_unique<IdealMemory>(k, store, mc);
    }
    case MemoryKind::dram: {
      DramMemoryConfig mc;
      mc.num_ports = cfg.num_ports;
      mc.req_depth = cfg.req_depth;
      mc.resp_depth = cfg.resp_depth;
      mc.sched_window = cfg.dram_sched_window;
      mc.starve_cap = cfg.dram_starve_cap;
      mc.timing = cfg.dram;
      mc.channels = cfg.channels;
      mc.channel_granule_words = cfg.channel_granule_bytes / kWordBytes;
      return std::make_unique<DramMemory>(k, store, mc);
    }
  }
  std::abort();  // not a MemoryKind: only a bad cast gets here
}

}  // namespace axipack::mem
