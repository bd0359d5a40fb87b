#include "mem/banked_memory.hpp"

#include <cassert>

namespace axipack::mem {

namespace {
constexpr unsigned kNoBank = ~0u;
}  // namespace

BankedMemory::BankedMemory(sim::Kernel& k, BackingStore& store,
                           const BankedMemoryConfig& cfg)
    : WordMemory(k, "BankedMemory", cfg.num_ports, cfg.req_depth,
                 cfg.resp_depth, cfg.sram_latency),
      store_(store),
      map_(cfg.num_banks),
      rr_(cfg.num_banks, 0),
      head_bank_(cfg.num_ports, kNoBank) {
  assert(cfg.num_banks > 0);
}

void BankedMemory::tick() {
  const unsigned n = num_ports();
  const sim::Cycle now = Component::now();  // hoisted out of the fifo checks
  // Gather the target bank of each port's head request.
  unsigned active = 0;
  for (unsigned p = 0; p < n; ++p) {
    WordPort& port = *ports_[p];
    if (port.req.has_visible(now) && port.resp.can_push()) {
      head_bank_[p] = map_.bank_of(word_index(port.req.front().addr));
      ++active;
    } else {
      head_bank_[p] = kNoBank;  // no request, or response-path backpressure
    }
  }
  if (active == 0) return;
  // Each bank grants one contender, round-robin: the first contender (in
  // port order) at or after rr_[b], else the first contender overall.
  for (unsigned p = 0; p < n; ++p) {
    const unsigned b = head_bank_[p];
    if (b == kNoBank) continue;
    unsigned count = 0;
    unsigned first = kNoBank;
    unsigned first_ge = kNoBank;
    for (unsigned q = p; q < n; ++q) {
      if (head_bank_[q] != b) continue;
      ++count;
      if (first == kNoBank) first = q;
      if (first_ge == kNoBank && q >= rr_[b]) first_ge = q;
      head_bank_[q] = kNoBank;  // consumed: bank b arbitrates once per cycle
    }
    stats_.conflict_losses += count - 1;  // contenders bank b did not grant
    const unsigned chosen = first_ge != kNoBank ? first_ge : first;
    rr_[b] = (chosen + 1) % n;
    WordPort& port = *ports_[chosen];
    WordReq req = port.req.pop();
    WordResp resp;
    resp.tag = req.tag;
    resp.was_write = req.write;
    if (req.write) {
      store_.write_word(req.addr, req.wdata, req.wstrb);
    } else {
      resp.rdata = store_.read_u32(req.addr);
    }
    port.resp.push(resp);
    ++stats_.grants;
  }
}

}  // namespace axipack::mem
