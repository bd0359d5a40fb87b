#include "mem/ideal_memory.hpp"

namespace axipack::mem {

IdealMemory::IdealMemory(sim::Kernel& k, BackingStore& store,
                         const IdealMemoryConfig& cfg)
    : WordMemory(k, "IdealMemory", cfg.num_ports, cfg.req_depth,
                 cfg.resp_depth, cfg.latency),
      store_(store) {}

void IdealMemory::tick() {
  for (auto& port : ports_) {
    if (!port->req.can_pop() || !port->resp.can_push()) continue;
    WordReq req = port->req.pop();
    WordResp resp;
    resp.tag = req.tag;
    resp.was_write = req.write;
    if (req.write) {
      store_.write_word(req.addr, req.wdata, req.wstrb);
    } else {
      resp.rdata = store_.read_u32(req.addr);
    }
    port->resp.push(resp);
  }
}

}  // namespace axipack::mem
