// Composition fuzzer over the DRAM scenario grammar (sys::kDramKnobs).
//
// Each draw picks a SoC kind and bus width, a random subset of the knob
// table with values from each row's domain, and a kernel at n = 32..64
// (24 nonzeros per row); one draw in five spells an invalid name instead
// (a value outside a row's domain, a repeated knob, or a knob without the
// knob it needs). The oracle:
//
//   * a rejected name carries a diagnostic; an invalid draw is rejected;
//   * an accepted name runs to completion under a 5M-cycle cap and
//     verifies (with -f > 0, an explicit "unrecoverable memory fault" is
//     allowed; silent wrong data never is);
//   * the naive kernel gives the same RunResult::to_json(), the same
//     memory words and the same counters on every DMA master (DmaStats
//     and RetryStats, which RunResult does not carry);
//   * without faults, a -ch{C} name leaves the same words as the same name
//     without -ch.
//
// Draws with -p run the open-loop stream over a short window instead of a
// kernel. A failing draw prints its name, kernel, size and seed; the exit
// status is 1 if any draw failed, 2 on a usage error.
//
//   scenario_fuzz [--seed=N] [--draws=N]   (each N in 1..65536)
#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dma/engine.hpp"
#include "sim/fault.hpp"
#include "systems/runner.hpp"
#include "systems/scenario.hpp"
#include "systems/sweep.hpp"
#include "systems/system.hpp"
#include "traffic/driver.hpp"
#include "util/rng.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace axipack;

constexpr sim::Cycle kMaxCycles = 5'000'000;
constexpr sim::Cycle kOpenLoopWindow = 30'000;

struct Draw {
  std::string name;
  bool invalid = false;  ///< spelled to be rejected
  bool open_loop = false;
  bool faults = false;     ///< -f with a non-zero scale
  std::string no_ch_twin;  ///< the name without -ch{C}, when -ch is given
  wl::KernelKind kernel = wl::KernelKind::spmv;
  std::uint32_t n = 32;
  std::uint64_t seed = 0;
};

/// A value from `k`'s domain: its bounds a quarter of the time each, else
/// log-uniform so small values come up as often as large ones.
unsigned draw_value(const sys::DramKnob& k, util::Rng& rng) {
  const std::uint64_t pick = rng.below(4);
  if (pick == 0) return k.min;
  if (pick == 1) return k.max;
  const unsigned bits = static_cast<unsigned>(std::bit_width(k.max));
  const std::uint64_t top = std::uint64_t{1} << rng.below(bits);
  const unsigned v =
      std::clamp(static_cast<unsigned>(top + rng.below(top)), k.min, k.max);
  return k.pow2 ? std::bit_floor(v) : v;
}

/// A value outside `k`'s domain: below the minimum, above the maximum, or
/// (for power-of-two rows) a non-power of two inside the bounds.
unsigned draw_bad_value(const sys::DramKnob& k, util::Rng& rng) {
  if (k.pow2 && k.max > 2 && rng.below(2) == 0) return k.max - 1;
  if (k.min > 0 && rng.below(2) == 0) return k.min - 1;
  return k.max + 1 + static_cast<unsigned>(rng.below(k.max + 1));
}

Draw make_draw(std::uint64_t seed) {
  util::Rng rng(seed);
  Draw d;
  d.seed = seed;
  const char* kind = rng.below(2) == 0 ? "base" : "pack";
  const unsigned bits[] = {64, 128, 256};
  const std::string stem = std::string(kind) + "-" +
                           std::to_string(bits[rng.below(3)]) + "-dram";

  // A random subset of the rows, each with a value from its domain; a
  // drawn row brings the row it needs along.
  constexpr std::size_t kRows = std::size(sys::kDramKnobs);
  std::array<std::optional<unsigned>, kRows> given;
  for (std::size_t i = 0; i < kRows; ++i) {
    if (rng.below(3) == 0) given[i] = draw_value(sys::kDramKnobs[i], rng);
  }
  for (std::size_t i = 0; i < kRows; ++i) {
    const int need = sys::kDramKnobs[i].needs;
    if (given[i] && need >= 0 && !given[need]) {
      given[need] = draw_value(sys::kDramKnobs[need], rng);
    }
  }
  std::vector<std::size_t> requirers;
  for (std::size_t i = 0; i < kRows; ++i) {
    if (sys::kDramKnobs[i].needs >= 0) requirers.push_back(i);
  }

  // One draw in five is invalid: a value outside a row's domain, a
  // repeated knob, or a knob without the knob it needs.
  d.invalid = rng.below(5) == 0;
  const auto spell = [](std::size_t row, unsigned v) {
    return std::string("-") + sys::kDramKnobs[row].token + std::to_string(v);
  };
  std::string extra;
  if (d.invalid) {
    const std::uint64_t how = requirers.empty() ? rng.below(2) : rng.below(3);
    const std::size_t row = rng.below(kRows);
    if (how == 0) {
      given[row] = draw_bad_value(sys::kDramKnobs[row], rng);
    } else if (how == 1) {
      if (!given[row]) given[row] = draw_value(sys::kDramKnobs[row], rng);
      extra = spell(row, draw_value(sys::kDramKnobs[row], rng));
    } else {
      const std::size_t r = requirers[rng.below(requirers.size())];
      given[r] = draw_value(sys::kDramKnobs[r], rng);
      given[static_cast<std::size_t>(sys::kDramKnobs[r].needs)].reset();
    }
  }

  std::vector<std::size_t> order;  // the grammar is order-free: shuffle
  for (std::size_t i = 0; i < kRows; ++i) {
    if (given[i]) order.push_back(i);
  }
  for (std::size_t j = order.size(); j > 1; --j) {
    std::swap(order[j - 1], order[rng.below(j)]);
  }
  d.name = stem;
  std::string twin = stem;
  for (const std::size_t i : order) {
    d.name += spell(i, *given[i]);
    if (i != static_cast<std::size_t>(sys::Knob::ch)) {
      twin += spell(i, *given[i]);
    }
  }
  d.name += extra;
  const auto at = [&](sys::Knob k) {
    return given[static_cast<std::size_t>(k)];
  };
  d.open_loop = at(sys::Knob::p).has_value();
  d.faults = at(sys::Knob::f).value_or(0) > 0;
  if (at(sys::Knob::ch)) d.no_ch_twin = twin;

  const wl::KernelKind kernels[] = {
      wl::KernelKind::ismt, wl::KernelKind::gemv, wl::KernelKind::trmv,
      wl::KernelKind::spmv, wl::KernelKind::prank, wl::KernelKind::sssp};
  d.kernel = kernels[rng.below(6)];
  d.n = 32 + static_cast<std::uint32_t>(rng.below(33));
  return d;
}

/// One run's measurements plus the memory words it left behind.
struct Outcome {
  sys::RunResult result;
  std::vector<std::uint8_t> words;
  std::vector<dma::DmaStats> dma;  ///< per DMA master
  std::vector<sim::RetryStats> dma_retry;
};

Outcome run_once(const Draw& d, const std::string& name, bool naive) {
  sys::SystemBuilder b = *sys::parse_scenario(name);
  b.naive_kernel(naive);
  std::unique_ptr<sys::System> system = b.build();
  mem::BackingStore& store = system->store();
  Outcome out;
  if (d.open_loop) {
    out.result = system->run_open_loop(kOpenLoopWindow, kMaxCycles);
    // The driver's ring, pools and data sit at the top of the window.
    const std::uint64_t bytes = traffic::footprint_bytes();
    out.words.resize(bytes);
    store.read(store.base() + store.size() - bytes, out.words.data(), bytes);
  } else {
    wl::WorkloadConfig cfg = sys::plan_workload(d.kernel, b);
    cfg.n = d.n;
    cfg.nnz_per_row = 24;
    cfg.seed = d.seed;
    const wl::WorkloadInstance instance = wl::build_workload(store, cfg);
    // The allocator's mark: everything the generator placed lies below it.
    const std::uint64_t end = store.alloc(0, 1);
    out.result = system->run(instance, kMaxCycles);
    out.words.resize(end - store.base());
    store.read(store.base(), out.words.data(), out.words.size());
  }
  for (sys::MasterId m = 0; m < system->num_masters(); ++m) {
    if (!system->is_dma(m)) continue;
    out.dma.push_back(system->dma(m).stats());
    out.dma_retry.push_back(system->dma(m).retry_stats());
  }
  return out;
}

/// Checks one draw; returns an empty string or the failure.
std::string check(const Draw& d) {
  std::string error;
  const bool parsed = sys::parse_scenario(d.name, &error).has_value();
  if (d.invalid && parsed) return "invalid name accepted";
  if (!parsed) {
    if (!d.invalid) return "valid name rejected: " + error;
    return error.empty() ? "rejected without a diagnostic" : "";
  }
  const Outcome gated = run_once(d, d.name, false);
  const sys::RunResult& r = gated.result;
  if (r.error == "timeout") return "did not finish within the cycle cap";
  if (!r.correct &&
      !(d.faults && r.error == "unrecoverable memory fault")) {
    return "did not verify: " + r.error;
  }
  const Outcome naive = run_once(d, d.name, true);
  if (naive.result.to_json() != r.to_json()) return "naive kernel differs";
  if (naive.words != gated.words) return "naive kernel leaves other words";
  if (naive.dma != gated.dma || naive.dma_retry != gated.dma_retry) {
    return "naive kernel's DMA counters differ";
  }
  if (!d.faults && !d.no_ch_twin.empty()) {
    const Outcome twin = run_once(d, d.no_ch_twin, false);
    if (twin.words != gated.words) {
      return "leaves other words than " + d.no_ch_twin;
    }
  }
  return "";
}

void usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--seed=N] [--draws=N]\n", argv0);
}

/// A positive decimal count up to 65536 (the bench CLI's grammar).
std::optional<unsigned> parse_count(const char* s) {
  return sys::SweepRunner::parse_threads(s);
}

}  // namespace

int main(int argc, char** argv) {
  unsigned seed = 1;
  unsigned draws = 100;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::optional<unsigned> v;
    if (std::strncmp(arg, "--seed=", 7) == 0 &&
        (v = parse_count(arg + 7))) {
      seed = *v;
    } else if (std::strncmp(arg, "--draws=", 8) == 0 &&
               (v = parse_count(arg + 8))) {
      draws = *v;
    } else {
      std::fprintf(stderr, "%s: bad argument \"%s\"\n", argv[0], arg);
      usage(argv[0]);
      return 2;
    }
  }
  unsigned failed = 0;
  unsigned rejected = 0;
  for (unsigned i = 0; i < draws; ++i) {
    const Draw d = make_draw(std::uint64_t{seed} * 1'000'003 + i);
    const std::string why = check(d);
    if (d.invalid) ++rejected;
    if (why.empty()) continue;
    ++failed;
    std::printf("FAIL %s kernel=%s n=%u seed=%llu: %s\n", d.name.c_str(),
                d.open_loop ? "open-loop" : wl::kernel_name(d.kernel), d.n,
                static_cast<unsigned long long>(d.seed), why.c_str());
  }
  std::printf("%u draws (%u invalid names), %u failed\n", draws, rejected,
              failed);
  return failed == 0 ? 0 : 1;
}
