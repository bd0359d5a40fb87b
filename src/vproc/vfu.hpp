// Vector functional unit: executes arithmetic ops at `lanes` elements per
// cycle, chaining element-wise behind in-flight producers (loads). One op is
// active at a time (queued ops wait), which makes reductions the serial
// bottleneck the paper observes for row-wise dataflows: a reduction occupies
// the VFU for vl/lanes accumulation cycles plus an inter-lane tree phase.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "vproc/context.hpp"

namespace axipack::vproc {

class Vfu {
 public:
  explicit Vfu(ProcContext& ctx) : ctx_(ctx) {}

  bool can_accept() const { return q_.size() < kQueue; }
  void accept(const OpRef& op);
  bool idle() const { return q_.empty() && held_.empty(); }

  void tick();

 private:
  static constexpr std::size_t kQueue = 4;  ///< op queue depth

  struct Active {
    OpRef op;
    std::uint64_t done = 0;       ///< elements consumed/produced
    bool scalar_resolved = false;
    float scalar = 0.0f;
    std::vector<float> partials;  ///< per-lane reduction accumulators
    unsigned tree_left = 0;       ///< remaining phase-2 cycles
    bool in_tree = false;
  };

  /// A finished reduction's scalar post-op, waiting to touch memory.
  struct PostOp {
    OpRef op;
    float result = 0.0f;  ///< the combined reduction, before post-processing
  };

  unsigned tree_latency() const;
  void execute_elems(Active& a, std::uint64_t count);
  void finish_reduction(Active& a);
  void apply_post_ops();

  ProcContext& ctx_;
  std::deque<Active> q_;
  std::deque<PostOp> held_;  ///< in program order
};

}  // namespace axipack::vproc
