// Indirect-stream benchmarks: spmv, pagerank, sssp on CSR data (paper
// §III-A). On the PACK system these use the new in-memory-indexed
// instruction vlimxei, pushing index resolution into the AXI-Pack
// controller; on BASE/IDEAL indices are first fetched into a vector
// register (vle, tagged as index traffic) and gathered with vluxei.
#include <cassert>
#include <cstring>
#include <vector>

#include "util/rng.hpp"
#include "workloads/data.hpp"
#include "workloads/golden.hpp"
#include "workloads/kernels_detail.hpp"
#include "workloads/workloads.hpp"

namespace axipack::wl::detail {

using vproc::VecProgram;

namespace {

std::vector<float> host_copy(const mem::BackingStore& store,
                             std::uint64_t addr, std::uint32_t len) {
  std::vector<float> out(len);
  store.read(addr, out.data(), 4ull * len);
  return out;
}

/// Emits the gather + multiply-accumulate-reduce body for one CSR row chunk.
/// Returns the product register holding the chunk's elementwise products.
struct RowChunkEmitter {
  const WorkloadConfig& cfg;
  const CsrMatrix& m;
  std::uint64_t gather_base;  ///< array being gathered (x / r_old / dist_old)
  VecProgram& p;

  /// Emits loads + elementwise op for elements [k0, k0+len) of the CSR
  /// arrays; `buf` selects the double-buffer set; `combine` is the
  /// elementwise op kind (vfmul_vv for spmv/prank, vfadd_vv for sssp).
  int emit(std::uint32_t k0, std::uint32_t len, unsigned buf,
           vproc::OpKind combine) const {
    const int vidx = static_cast<int>(0 + buf);   // v0/v1
    const int vval = static_cast<int>(2 + buf);   // v2/v3
    const int vgat = static_cast<int>(4 + buf);   // v4/v5
    const int vres = static_cast<int>(6 + buf);   // v6/v7
    const std::uint64_t idx_addr = m.colidx_addr + 4ull * k0;
    const std::uint64_t val_addr = m.vals_addr + 4ull * k0;
    p.push(vproc::op_scalar(kLoopOverhead));
    if (cfg.in_memory_indices) {
      p.push(vproc::op_vle(vval, val_addr, len));
      p.push(vproc::op_vlimxei(vgat, gather_base, idx_addr, len));
    } else {
      p.push(vproc::op_vle(vidx, idx_addr, len, axi::Traffic::index));
      p.push(vproc::op_vle(vval, val_addr, len));
      p.push(vproc::op_vluxei(vgat, gather_base, vidx, len));
    }
    vproc::VecOp op;
    op.kind = combine;
    op.vd = static_cast<std::int8_t>(vres);
    op.vs1 = static_cast<std::int8_t>(vval);
    op.vs2 = static_cast<std::int8_t>(vgat);
    op.vl = len;
    p.push(op);
    return vres;
  }
};

}  // namespace

WorkloadInstance build_spmv(mem::BackingStore& store,
                            const WorkloadConfig& cfg) {
  util::Rng rng(cfg.seed);
  const std::uint32_t n = cfg.n;
  const CsrMatrix m = gen_csr_matrix(store, n, n, cfg.nnz_per_row, rng);
  const DenseVector x = gen_dense_vector(store, n, rng);
  const DenseVector y = gen_zero_vector(store, n);
  const std::vector<float> host_x = host_copy(store, x.addr, n);
  std::vector<float> expect = ref_spmv(m.rowptr, m.colidx, m.vals, host_x);

  WorkloadInstance inst;
  inst.program.name = "spmv";
  VecProgram& p = inst.program;
  const RowChunkEmitter emitter{cfg, m, x.addr, p};
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t k0 = m.rowptr[i];
    const std::uint32_t row_len = m.rowptr[i + 1] - k0;
    for (std::uint32_t off = 0; off < row_len; off += cfg.vlmax) {
      const std::uint32_t len = std::min(cfg.vlmax, row_len - off);
      const int vres =
          emitter.emit(k0 + off, len, i % 2, vproc::OpKind::vfmul_vv);
      vproc::VecOp red = vproc::op_vredsum(vres, y.elem_addr(i), len);
      red.post_accumulate = off > 0;
      p.push(red);
    }
  }
  inst.payload_read_bytes = m.nnz * 8;

  inst.check = [addr = y.addr, n, expect = std::move(expect)](
                   const mem::BackingStore& s, std::string& msg) {
    const std::vector<float> got = host_copy(s, addr, n);
    return nearly_equal(expect, got, 2e-3f, msg);
  };
  return inst;
}

WorkloadInstance build_prank(mem::BackingStore& store,
                             const WorkloadConfig& cfg) {
  util::Rng rng(cfg.seed);
  const std::uint32_t n = cfg.n;
  constexpr float kDamping = 0.85f;
  const CsrMatrix m = gen_graph_csr(store, n, cfg.nnz_per_row, rng,
                                    /*row_stochastic=*/true);
  // Ping-pong rank arrays; r[0] starts uniform.
  DenseVector r[2] = {gen_zero_vector(store, n), gen_zero_vector(store, n)};
  {
    const std::vector<float> init(n, 1.0f / static_cast<float>(n));
    store.write(r[0].addr, init.data(), 4ull * n);
  }
  std::vector<float> expect =
      ref_pagerank(m.rowptr, m.colidx, m.vals, n, cfg.iterations, kDamping);

  WorkloadInstance inst;
  inst.program.name = "prank";
  VecProgram& p = inst.program;
  const float base = (1.0f - kDamping) / static_cast<float>(n);
  for (std::uint32_t it = 0; it < cfg.iterations; ++it) {
    const DenseVector& r_old = r[it % 2];
    const DenseVector& r_new = r[1 - it % 2];
    if (it > 0) p.push(vproc::op_fence());  // previous sweep's results land
    const RowChunkEmitter emitter{cfg, m, r_old.addr, p};
    for (std::uint32_t u = 0; u < n; ++u) {
      const std::uint32_t k0 = m.rowptr[u];
      const std::uint32_t row_len = m.rowptr[u + 1] - k0;
      assert(row_len > 0 && "graph generator guarantees in-degree >= 1");
      for (std::uint32_t off = 0; off < row_len; off += cfg.vlmax) {
        const std::uint32_t len = std::min(cfg.vlmax, row_len - off);
        const int vres =
            emitter.emit(k0 + off, len, u % 2, vproc::OpKind::vfmul_vv);
        vproc::VecOp red = vproc::op_vredsum(vres, r_new.elem_addr(u), len);
        if (off + len >= row_len && off == 0) {
          red.post_scale = kDamping;
          red.post_add = base;
        } else {
          // Chunked rows: accumulate raw sums, scale on the last chunk.
          red.post_accumulate = off > 0;
          if (off + len >= row_len) {
            red.post_scale = kDamping;
            red.post_add = base;
          }
        }
        p.push(red);
      }
    }
  }
  inst.payload_read_bytes = cfg.iterations * m.nnz * 8;

  const std::uint64_t result_addr = r[cfg.iterations % 2].addr;
  inst.check = [addr = result_addr, n, expect = std::move(expect)](
                   const mem::BackingStore& s, std::string& msg) {
    const std::vector<float> got = host_copy(s, addr, n);
    return nearly_equal(expect, got, 2e-3f, msg);
  };
  return inst;
}

WorkloadInstance build_sssp(mem::BackingStore& store,
                            const WorkloadConfig& cfg) {
  util::Rng rng(cfg.seed);
  const std::uint32_t n = cfg.n;
  constexpr float kInf = 1e30f;
  constexpr std::uint32_t kSource = 0;
  const CsrMatrix m = gen_graph_csr(store, n, cfg.nnz_per_row, rng,
                                    /*row_stochastic=*/false);
  DenseVector dist[2] = {gen_zero_vector(store, n), gen_zero_vector(store, n)};
  {
    std::vector<float> init(n, kInf);
    init[kSource] = 0.0f;
    store.write(dist[0].addr, init.data(), 4ull * n);
  }
  std::vector<float> expect =
      ref_sssp(m.rowptr, m.colidx, m.vals, n, cfg.iterations, kSource);

  WorkloadInstance inst;
  inst.program.name = "sssp";
  VecProgram& p = inst.program;
  for (std::uint32_t it = 0; it < cfg.iterations; ++it) {
    const DenseVector& d_old = dist[it % 2];
    const DenseVector& d_new = dist[1 - it % 2];
    if (it > 0) p.push(vproc::op_fence());
    // Jacobi sweep: start from the previous distances (vector copy), then
    // relax every node against d_old.
    for (std::uint32_t off = 0; off < n; off += cfg.vlmax) {
      const std::uint32_t len = std::min(cfg.vlmax, n - off);
      p.push(vproc::op_scalar(kLoopOverhead));
      p.push(vproc::op_vle(8, d_old.elem_addr(off), len));
      p.push(vproc::op_vse(8, d_new.elem_addr(off), len));
    }
    const RowChunkEmitter emitter{cfg, m, d_old.addr, p};
    for (std::uint32_t u = 0; u < n; ++u) {
      const std::uint32_t k0 = m.rowptr[u];
      const std::uint32_t row_len = m.rowptr[u + 1] - k0;
      for (std::uint32_t off = 0; off < row_len; off += cfg.vlmax) {
        const std::uint32_t len = std::min(cfg.vlmax, row_len - off);
        const int vres =
            emitter.emit(k0 + off, len, u % 2, vproc::OpKind::vfadd_vv);
        vproc::VecOp red = vproc::op_vredmin(vres, d_new.elem_addr(u), len);
        red.post_min_with_dest = true;
        p.push(red);
      }
    }
  }
  inst.payload_read_bytes = cfg.iterations * m.nnz * 8;

  const std::uint64_t result_addr = dist[cfg.iterations % 2].addr;
  inst.check = [addr = result_addr, n, expect = std::move(expect)](
                   const mem::BackingStore& s, std::string& msg) {
    const std::vector<float> got = host_copy(s, addr, n);
    return nearly_equal(expect, got, 1e-5f, msg);
  };
  return inst;
}

}  // namespace axipack::wl::detail
