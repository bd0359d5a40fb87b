// Ara-like vector processor model: in-order sequencer with element-granular
// chaining, a load unit and a store unit (the VLSU), and a single VFU.
//
// Hazard policy (calibrated to reproduce the paper's observed behaviour):
//  * RAW: no issue stall — consumers chain element-wise behind producers.
//  * WAR/WAW: issue stalls until the conflicting op retires, except between
//    two VFU ops, which serialize through the VFU queue anyway. Kernels
//    double-buffer registers to avoid these stalls, as real code does.
//  * Memory ordering: a vector load never issues while a vector store is in
//    flight and vice versa (conservative, like Ara's VLSU) — this is what
//    limits ismt's read-bus utilization to ~50% in the paper.
#pragma once

#include <cstdint>
#include <memory>

#include "axi/types.hpp"
#include "mem/backing_store.hpp"
#include "sim/kernel.hpp"
#include "vproc/context.hpp"
#include "vproc/program.hpp"
#include "vproc/vfu.hpp"
#include "vproc/vlsu.hpp"

namespace axipack::vproc {

class Processor final : public sim::Component {
 public:
  /// `port` is the AXI master port (ignored in ideal mode, may be null).
  Processor(sim::Kernel& k, const VProcConfig& cfg, mem::BackingStore& store,
            axi::AxiPort* port);

  /// Loads a program and resets the sequencer. Any previous program must
  /// have finished.
  void run(const VecProgram& program);

  bool done() const;

  void tick() override;
  /// Idle iff the program has drained: done() implies every unit's tick is
  /// a no-op until run() hands over the next program (which wakes us).
  bool quiescent() const override { return done(); }

  ProcContext& context() { return ctx_; }
  const ProcContext& context() const { return ctx_; }
  const sim::Counters& counters() const { return ctx_.counters; }

 private:
  bool try_issue(const VecOp& op);

  ProcContext ctx_;
  LoadUnit load_unit_;
  StoreUnit store_unit_;
  Vfu vfu_;

  const VecProgram* program_ = nullptr;
  std::size_t pc_ = 0;
  /// First cycles the sequencer may act after a scalar op and after a
  /// dispatch handshake (kernel cycles, so they hold across cycles the
  /// processor is not ticked).
  sim::Cycle scalar_until_ = 0;
  sim::Cycle dispatch_until_ = 0;
  std::uint64_t next_seq_ = 1;
};

}  // namespace axipack::vproc
