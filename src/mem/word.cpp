#include "mem/word.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace axipack::mem {

WordMemory::WordMemory(sim::Kernel& k, const char* who, unsigned num_ports,
                       std::size_t req_depth, std::size_t resp_depth,
                       sim::Cycle resp_latency) {
  assert(num_ports > 0);
  if (req_depth == 0 || resp_depth == 0) {
    std::fprintf(stderr,
                 "%s: req_depth=%zu / resp_depth=%zu must be >= 1 "
                 "(per-port FIFOs cannot have zero capacity)\n",
                 who, req_depth, resp_depth);
    std::abort();
  }
  ports_.reserve(num_ports);
  for (unsigned i = 0; i < num_ports; ++i) {
    ports_.push_back(std::make_unique<WordPort>(k, req_depth, resp_depth,
                                                resp_latency));
  }
  k.add(*this);
  for (auto& port : ports_) k.subscribe(*this, port->req);
}

}  // namespace axipack::mem
