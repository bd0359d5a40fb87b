// Strided-stream benchmarks: ismt (in-situ matrix transpose), gemv and trmv
// with row-wise and column-wise dataflows (paper §III-A). Also hosts the
// build_workload dispatcher.
#include <cassert>
#include <vector>

#include "util/rng.hpp"
#include "workloads/data.hpp"
#include "workloads/golden.hpp"
#include "workloads/kernels_detail.hpp"
#include "workloads/workloads.hpp"

namespace axipack::wl {

using vproc::VecProgram;

const char* kernel_name(KernelKind k) {
  switch (k) {
    case KernelKind::ismt: return "ismt";
    case KernelKind::gemv: return "gemv";
    case KernelKind::trmv: return "trmv";
    case KernelKind::spmv: return "spmv";
    case KernelKind::prank: return "prank";
    case KernelKind::sssp: return "sssp";
  }
  return "?";
}

bool kernel_is_indirect(KernelKind k) {
  return k == KernelKind::spmv || k == KernelKind::prank ||
         k == KernelKind::sssp;
}

WorkloadInstance build_workload(mem::BackingStore& store,
                                const WorkloadConfig& cfg) {
  switch (cfg.kernel) {
    case KernelKind::ismt: return detail::build_ismt(store, cfg);
    case KernelKind::gemv: return detail::build_gemv(store, cfg);
    case KernelKind::trmv: return detail::build_trmv(store, cfg);
    case KernelKind::spmv: return detail::build_spmv(store, cfg);
    case KernelKind::prank: return detail::build_prank(store, cfg);
    case KernelKind::sssp: return detail::build_sssp(store, cfg);
  }
  assert(false);
  return {};
}

namespace detail {

namespace {

/// Reads a float array back from simulated memory.
std::vector<float> host_copy(const mem::BackingStore& store,
                             std::uint64_t addr, std::uint32_t len) {
  std::vector<float> out(len);
  store.read(addr, out.data(), 4ull * len);
  return out;
}

}  // namespace

WorkloadInstance build_ismt(mem::BackingStore& store,
                            const WorkloadConfig& cfg) {
  util::Rng rng(cfg.seed);
  const std::uint32_t n = cfg.n;
  const DenseMatrix a = gen_dense_matrix(store, n, n, rng);
  std::vector<float> expect = host_copy(store, a.addr, n * n);
  ref_transpose(expect, n);

  WorkloadInstance inst;
  inst.program.name = "ismt";
  VecProgram& p = inst.program;
  // For each row i, swap the row tail A[i][i+1..n) with the column tail
  // A[i+1..n)[i]: one contiguous and one strided load, then one strided and
  // one contiguous store. Loads double-buffer in v0/v1.
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    const std::uint32_t total = n - 1 - i;
    for (std::uint32_t off = 0; off < total; off += cfg.vlmax) {
      const std::uint32_t len = std::min(cfg.vlmax, total - off);
      const std::uint64_t row_addr = a.elem_addr(i, i + 1 + off);
      const std::uint64_t col_addr = a.elem_addr(i + 1 + off, i);
      p.push(vproc::op_scalar(kLoopOverhead));
      p.push(vproc::op_vle(0, row_addr, len));
      p.push(vproc::op_vlse(1, col_addr, a.row_stride_bytes(), len));
      p.push(vproc::op_vsse(0, col_addr, a.row_stride_bytes(), len));
      p.push(vproc::op_vse(1, row_addr, len));
    }
  }
  inst.payload_read_bytes = std::uint64_t{n} * (n - 1) * 4;

  inst.check = [&store, addr = a.addr, n,
                expect = std::move(expect)](const mem::BackingStore& s,
                                            std::string& msg) {
    (void)store;
    const std::vector<float> got = host_copy(s, addr, n * n);
    return nearly_equal(expect, got, 0.0f, msg);
  };
  return inst;
}

WorkloadInstance build_gemv(mem::BackingStore& store,
                            const WorkloadConfig& cfg) {
  util::Rng rng(cfg.seed);
  const std::uint32_t n = cfg.n;
  assert(n <= cfg.vlmax && "row-wise gemv keeps x in one register group");
  const DenseMatrix a = gen_dense_matrix(store, n, n, rng);
  const DenseVector x = gen_dense_vector(store, n, rng);
  const DenseVector y = gen_zero_vector(store, n);
  const std::vector<float> host_a = host_copy(store, a.addr, n * n);
  const std::vector<float> host_x = host_copy(store, x.addr, n);
  std::vector<float> expect = ref_gemv(host_a, host_x, n);

  WorkloadInstance inst;
  inst.program.name =
      cfg.dataflow == Dataflow::rowwise ? "gemv-row" : "gemv-col";
  VecProgram& p = inst.program;
  if (cfg.dataflow == Dataflow::rowwise) {
    // Per row: contiguous row load, element-wise multiply with x (held in
    // v30), then a sum reduction — the reduction-bound dataflow.
    p.push(vproc::op_vle(30, x.addr, n));
    for (std::uint32_t i = 0; i < n; ++i) {
      const int va = static_cast<int>(i % 2);      // v0/v1
      const int vp = 2 + static_cast<int>(i % 2);  // v2/v3
      p.push(vproc::op_scalar(kLoopOverhead));
      p.push(vproc::op_vle(va, a.elem_addr(i, 0), n));
      p.push(vproc::op_vfmul_vv(vp, va, 30, n));
      p.push(vproc::op_vredsum(vp, y.elem_addr(i), n));
    }
  } else {
    // Per column: strided column load, scalar-times-vector accumulate into
    // the y register — the strided-stream dataflow AXI-Pack accelerates.
    p.push(vproc::op_vbrd(8, 0.0f, n));
    for (std::uint32_t j = 0; j < n; ++j) {
      const int va = static_cast<int>(j % 2);
      p.push(vproc::op_scalar(kLoopOverhead));
      p.push(vproc::op_vlse(va, a.elem_addr(0, j), a.row_stride_bytes(), n));
      p.push(vproc::op_vfmacc_vf_mem(8, va, x.elem_addr(j), n));
    }
    p.push(vproc::op_vse(8, y.addr, n));
  }
  inst.payload_read_bytes = std::uint64_t{n} * n * 4 + std::uint64_t{n} * 4;

  inst.check = [addr = y.addr, n, expect = std::move(expect)](
                   const mem::BackingStore& s, std::string& msg) {
    const std::vector<float> got = host_copy(s, addr, n);
    return nearly_equal(expect, got, 2e-3f, msg);
  };
  return inst;
}

WorkloadInstance build_trmv(mem::BackingStore& store,
                            const WorkloadConfig& cfg) {
  util::Rng rng(cfg.seed);
  const std::uint32_t n = cfg.n;
  assert(n <= cfg.vlmax);
  const DenseMatrix a = gen_dense_matrix(store, n, n, rng);
  const DenseVector x = gen_dense_vector(store, n, rng);
  const DenseVector y = gen_zero_vector(store, n);
  const std::vector<float> host_a = host_copy(store, a.addr, n * n);
  const std::vector<float> host_x = host_copy(store, x.addr, n);
  std::vector<float> expect = ref_trmv_upper(host_a, host_x, n);

  WorkloadInstance inst;
  inst.program.name =
      cfg.dataflow == Dataflow::rowwise ? "trmv-row" : "trmv-col";
  VecProgram& p = inst.program;
  std::uint64_t payload = 0;
  if (cfg.dataflow == Dataflow::rowwise) {
    // Per row i: load the row tail A[i][i..n); align x's tail with a slide.
    p.push(vproc::op_vle(30, x.addr, n));
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t len = n - i;
      const int va = static_cast<int>(i % 2);
      const int vx = 28 - static_cast<int>(i % 2);  // v28/v27: slide dst
      const int vp = 2 + static_cast<int>(i % 2);
      p.push(vproc::op_scalar(kLoopOverhead));
      p.push(vproc::op_vle(va, a.elem_addr(i, i), len));
      p.push(vproc::op_vslidedown(vx, 30, i, len));
      p.push(vproc::op_vfmul_vv(vp, va, vx, len));
      p.push(vproc::op_vredsum(vp, y.elem_addr(i), len));
      payload += std::uint64_t{len} * 4;
    }
  } else {
    // Per column j: strided load of rows 0..j of column j, accumulate into
    // the first j+1 elements of y.
    p.push(vproc::op_vbrd(8, 0.0f, n));
    for (std::uint32_t j = 0; j < n; ++j) {
      const std::uint32_t len = j + 1;
      const int va = static_cast<int>(j % 2);
      p.push(vproc::op_scalar(kLoopOverhead));
      p.push(vproc::op_vlse(va, a.elem_addr(0, j), a.row_stride_bytes(), len));
      p.push(vproc::op_vfmacc_vf_mem(8, va, x.elem_addr(j), len));
      payload += std::uint64_t{len} * 4;
    }
    p.push(vproc::op_vse(8, y.addr, n));
  }
  inst.payload_read_bytes = payload + std::uint64_t{n} * 4;

  inst.check = [addr = y.addr, n, expect = std::move(expect)](
                   const mem::BackingStore& s, std::string& msg) {
    const std::vector<float> got = host_copy(s, addr, n);
    return nearly_equal(expect, got, 2e-3f, msg);
  };
  return inst;
}

}  // namespace detail
}  // namespace axipack::wl
