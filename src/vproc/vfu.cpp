#include "vproc/vfu.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "util/bits.hpp"

namespace axipack::vproc {

namespace {
// Reduction phase 2 (inter-lane tree): base + per-level latency.
// Calibrated against Fig. 3a/3b: BASE row-wise gemv R-util ~37%.
constexpr unsigned kRedtreeBase = 6;
constexpr unsigned kRedtreePerLevel = 4;
}  // namespace

void Vfu::accept(const OpRef& op) {
  assert(can_accept());
  Active a;
  a.op = op;
  q_.push_back(std::move(a));
}

unsigned Vfu::tree_latency() const {
  return kRedtreeBase + kRedtreePerLevel * util::log2_ceil(ctx_.cfg.lanes);
}

void Vfu::execute_elems(Active& a, std::uint64_t count) {
  const VecOp& v = a.op->op;
  Vrf& vrf = ctx_.vrf;
  for (std::uint64_t n = 0; n < count; ++n) {
    const auto i = static_cast<std::uint32_t>(a.done + n);
    switch (v.kind) {
      case OpKind::vfmacc_vf:
        vrf.write_f32(v.vd, i,
                      vrf.read_f32(v.vd, i) + vrf.read_f32(v.vs2, i) * a.scalar);
        break;
      case OpKind::vfmul_vf:
        vrf.write_f32(v.vd, i, vrf.read_f32(v.vs2, i) * a.scalar);
        break;
      case OpKind::vfadd_vf:
        vrf.write_f32(v.vd, i, vrf.read_f32(v.vs2, i) + a.scalar);
        break;
      case OpKind::vfmin_vf:
        vrf.write_f32(v.vd, i, std::min(vrf.read_f32(v.vs2, i), a.scalar));
        break;
      case OpKind::vfmacc_vv:
        vrf.write_f32(v.vd, i,
                      vrf.read_f32(v.vd, i) +
                          vrf.read_f32(v.vs1, i) * vrf.read_f32(v.vs2, i));
        break;
      case OpKind::vfmul_vv:
        vrf.write_f32(v.vd, i,
                      vrf.read_f32(v.vs1, i) * vrf.read_f32(v.vs2, i));
        break;
      case OpKind::vfadd_vv:
        vrf.write_f32(v.vd, i,
                      vrf.read_f32(v.vs1, i) + vrf.read_f32(v.vs2, i));
        break;
      case OpKind::vfmin_vv:
        vrf.write_f32(v.vd, i, std::min(vrf.read_f32(v.vs1, i),
                                        vrf.read_f32(v.vs2, i)));
        break;
      case OpKind::vbrd:
        vrf.write_f32(v.vd, i, a.scalar);
        break;
      case OpKind::vslidedown:
        vrf.write_u32(v.vd, i, vrf.read_u32(v.vs2, i + v.slide));
        break;
      case OpKind::vredsum:
        a.partials[i % ctx_.cfg.lanes] += vrf.read_f32(v.vs2, i);
        break;
      case OpKind::vredmin:
        a.partials[i % ctx_.cfg.lanes] =
            std::min(a.partials[i % ctx_.cfg.lanes], vrf.read_f32(v.vs2, i));
        break;
      default:
        assert(false && "not a VFU op");
    }
  }
  a.done += count;
  if (a.op->op.vd >= 0) a.op->prod_elems = a.done;
  *ctx_.hot.vfu_elems += count;
}

void Vfu::finish_reduction(Active& a) {
  const VecOp& v = a.op->op;
  // Combine per-lane partials in lane order (deterministic tree order).
  float result;
  if (v.kind == OpKind::vredsum) {
    result = 0.0f;
    for (float p : a.partials) result += p;
  } else {
    result = a.partials[0];
    for (float p : a.partials) result = std::min(result, p);
  }
  held_.push_back({a.op, result});
  apply_post_ops();
}

void Vfu::apply_post_ops() {
  // Scalar-core post-processing and store (functional; see program.hpp).
  // A post-op reads and writes memory directly, so it waits until every
  // vector store issued before its reduction has landed: an earlier store
  // to the same word (sssp's d_old -> d_new copy) would otherwise
  // overwrite the result when its data reaches memory. Held post-ops
  // apply in program order; no timing reads them.
  while (!held_.empty() &&
         ctx_.stores_retired_before(held_.front().op->seq)) {
    const VecOp& v = held_.front().op->op;
    float result = held_.front().result;
    // Chunk accumulation happens on the raw sum, before scaling, so
    // chunked rows scale their full row sum exactly once.
    if (v.store_addr != 0 && v.post_accumulate) {
      result += ctx_.store->read_f32(v.store_addr);
    }
    result = v.post_scale * result + v.post_add;
    if (v.store_addr != 0) {
      if (v.post_min_with_dest) {
        result = std::min(result, ctx_.store->read_f32(v.store_addr));
      }
      ctx_.store->write_f32(v.store_addr, result);
    }
    held_.pop_front();
  }
}

void Vfu::tick() {
  apply_post_ops();
  if (q_.empty()) return;
  Active& a = q_.front();
  const VecOp& v = a.op->op;
  if (!a.scalar_resolved) {
    a.scalar = v.scalar_from_mem ? ctx_.store->read_f32(v.scalar_addr)
                                 : v.scalar_imm;
    a.scalar_resolved = true;
    if (is_reduction(v.kind)) {
      a.partials.assign(ctx_.cfg.lanes, v.kind == OpKind::vredmin
                                            ? std::numeric_limits<float>::max()
                                            : 0.0f);
    }
  }
  if (a.in_tree) {
    if (--a.tree_left == 0) {
      finish_reduction(a);
      ctx_.retire(a.op);
      q_.pop_front();
    }
    return;
  }
  // Element phase: consume up to `lanes` elements, bounded by chaining.
  std::uint64_t avail = v.vl;
  if (v.vs1 >= 0) avail = std::min(avail, ctx_.avail_elems(v.vs1));
  if (v.vs2 >= 0) {
    std::uint64_t a2 = ctx_.avail_elems(v.vs2);
    if (v.kind == OpKind::vslidedown) {
      a2 = a2 > v.slide ? a2 - v.slide : 0;  // element i reads vs2[i+slide]
    }
    avail = std::min(avail, a2);
  }
  // Accumulating ops also read vd; chain on the producer captured at issue
  // time. (Looking up producer_of here would find *later* writers of vd,
  // which sit behind us in the queue — a deadlock, not a dependency.)
  if ((v.kind == OpKind::vfmacc_vf || v.kind == OpKind::vfmacc_vv) &&
      v.vd >= 0) {
    const OpRef& p = a.op->vd_dep;
    if (p && !p->done) {
      avail = std::min<std::uint64_t>(avail, p->prod_elems);
    }
  }
  if (avail > a.done) {
    execute_elems(a, std::min<std::uint64_t>(ctx_.cfg.lanes, avail - a.done));
  }
  if (a.done == v.vl) {
    if (is_reduction(v.kind)) {
      a.in_tree = true;
      a.tree_left = tree_latency();
    } else {
      ctx_.retire(a.op);
      q_.pop_front();
    }
  }
}

}  // namespace axipack::vproc
