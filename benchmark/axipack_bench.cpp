// axipack_bench: the repository benchmark.
//
// Runs one named workload in a single process on a single thread and prints
// every metric as `name value unit`. Each repeat builds fresh systems, so
// closed-loop runs start cold (rows closed, coalescer empty), as in the
// paper. Modelled numbers must repeat bit-for-bit across repeats. Set-up
// time is the median over repeats and simulation time the fastest repeat of
// each point. See README.md for the metric definitions and the layer ->
// end-to-end map.
//
// Usage:
//   axipack_bench --workload=NAME --seed=N [--repeats=R] [--seconds=S]
//                 [--out=run.json] [--trace=trace.json]
//
// --repeats is the minimum number of repeats; --seconds keeps repeating
// until that much host time has passed. --trace alternates untraced and
// traced repeats, writes Chrome trace-event JSON, replays the first point
// on the naive kernel and sweeps the open-loop knee. Exits 1 when an output
// fails verification or a modelled number differs between repeats (or
// between the gated and naive kernels), 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "energy/power_model.hpp"
#include "systems/runner.hpp"
#include "systems/scenario.hpp"
#include "systems/system.hpp"
#include "util/json.hpp"
#include "workloads/workloads.hpp"

#ifndef AXIPACK_BENCH_BUILD_TYPE
#define AXIPACK_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace axipack;
using Clock = std::chrono::steady_clock;
using wl::KernelKind;

/// p99 sojourn limit of the open-loop knee (cycles), as in fig11.
constexpr double kSloP99 = 5000.0;
/// Measured cycles per fixed-rate open-loop point: ~600 requests at 40 and
/// ~1200 at 80 req/100k cycles, so >= 10 lie beyond the workload's p99.
constexpr sim::Cycle kOpenLoopWindow = 1'500'000;
/// Knee sweep: rates kKneeStep, 2*kKneeStep, ... kKneeMax; stops at the
/// first rate that misses the SLO or falls behind the offered rate.
constexpr unsigned kKneeStep = 20;
constexpr unsigned kKneeMax = 640;
constexpr sim::Cycle kKneeWindow = 400'000;
/// Channels reported by axi.r_util.ch*; the widest workload system has 4.
constexpr unsigned kReportedChannels = 4;

// ------------------------------------------------------------- workloads

enum class PointKind : std::uint8_t {
  closed,     ///< one kernel per processor, all running at once
  open_loop,  ///< Poisson gathers through the scatter-gather ring DMA
};

/// One measured point of a workload. Every point runs on both the
/// workload's AXI-Pack system and its BASE reference.
struct Point {
  std::string name;  ///< kernel name, "mixed4" or "r<rate>"
  PointKind kind = PointKind::closed;
  std::vector<KernelKind> kernels;  ///< processor i runs kernels[i]
  unsigned rate = 0;                ///< open loop: requests per 100k cycles
};

struct Workload {
  std::string name;
  std::string pack_scenario;
  std::string base_scenario;
  std::vector<Point> points;
  bool paper_reference = false;  ///< report error against paper Fig. 3a
};

std::vector<Point> closed_points(std::initializer_list<KernelKind> kernels) {
  std::vector<Point> points;
  for (const KernelKind k : kernels) {
    points.push_back({wl::kernel_name(k), PointKind::closed, {k}, 0});
  }
  return points;
}

/// The reasons each workload exists are recorded in BENCHMARK.json and
/// README.md.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"paper-sram", "pack-256-17b", "base-256-17b",
       closed_points({KernelKind::ismt, KernelKind::gemv, KernelKind::trmv,
                      KernelKind::spmv, KernelKind::prank, KernelKind::sssp}),
       true},
      {"indirect-dram", "pack-256-dram-x512-g16", "base-256-dram",
       closed_points({KernelKind::spmv, KernelKind::prank, KernelKind::sssp}),
       false},
      {"multichannel-mixed", "pack-256-dram-ch4", "base-256-dram-ch4",
       {{"mixed4",
         PointKind::closed,
         {KernelKind::ismt, KernelKind::gemv, KernelKind::trmv,
          KernelKind::spmv},
         0}},
       false},
      // Both systems sustain both rates (80 is BASE's knee): past its knee
      // BASE's sojourn grows with the window, and its mean then varies by
      // up to 25% from seed to seed.
      {"open-loop-gather", "pack-256-dram-x512-g16", "base-256-dram",
       {{"r40", PointKind::open_loop, {}, 40},
        {"r80", PointKind::open_loop, {}, 80}},
       false},
  };
  return all;
}

/// Every point name of every workload, so each run reports the same
/// workloads.<point>.cycles names (0 for points the workload lacks).
const std::vector<std::string>& all_point_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Workload& w : workloads()) {
      for (const Point& p : w.points) {
        if (std::find(out.begin(), out.end(), p.name) == out.end()) {
          out.push_back(p.name);
        }
      }
    }
    return out;
  }();
  return names;
}

/// Approximate Fig. 3a bar heights and R-utilizations (256-bit bus), as
/// read from the published figure.
struct PaperRef {
  const char* kernel;
  double speedup;
  double r_util;
};
constexpr PaperRef kPaperFig3a[] = {
    {"ismt", 5.4, 0.50},  {"gemv", 2.4, 0.87},  {"trmv", 2.0, 0.72},
    {"spmv", 2.4, 0.33},  {"prank", 2.2, 0.35}, {"sssp", 2.1, 0.39},
};

// ------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Per-layer counts of one system over the runs added to it: one point, or
/// every point of a repeat. Counts add; ratios are derived when emitted.
struct LayerCounts {
  unsigned bus_bytes = 32;
  unsigned points = 0;
  std::uint64_t cycles = 0;
  // vproc: every processor master of the system.
  std::uint64_t vp_ar = 0, vp_aw = 0, vp_beats_rx = 0, vp_bytes_rx = 0;
  std::uint64_t vp_vfu_elems = 0, vp_retries = 0;
  util::Histogram vp_latency;
  // axi: the monitored link of every channel.
  axi::BusStats bus;
  std::uint64_t protocol_violations = 0;
  std::array<double, kReportedChannels> ch_r_util_sum{};
  std::array<std::uint64_t, kReportedChannels> ch_r_payload{};
  unsigned channels = 1;
  // pack: the adapter of every channel.
  pack::AdapterStats adapter;
  std::uint64_t idx_words = 0, elem_words = 0;
  std::uint64_t co_merged = 0, co_unique = 0, co_peak = 0, co_row_groups = 0;
  // mem: the backend of every channel.
  std::uint64_t grants = 0, conflict_losses = 0, row_hits = 0, row_misses = 0;
  std::uint64_t refresh_stall = 0, batch_defer = 0, starved_grants = 0;
  // dma: every DMA master (the open-loop scatter-gather engine).
  std::uint64_t dma_done = 0, dma_bytes = 0, dma_busy = 0, dma_queue_peak = 0;
  std::uint64_t dma_errors = 0;
  // traffic: the open-loop driver.
  std::uint64_t arrivals = 0, completed = 0, req_failed = 0;
  std::uint64_t traffic_queue_peak = 0;
  double offered = 0.0, achieved = 0.0;
  util::Histogram sojourn;

  /// Reads one finished run of a freshly built system.
  void add_run(sys::System& s, const sys::RunResult& r) {
    bus_bytes = s.bus_bytes();
    ++points;
    cycles += r.cycles;
    for (sys::MasterId m = 0; m < s.num_masters(); ++m) {
      if (s.is_processor(m)) {
        const vproc::Processor& p = s.processor(m);
        const sim::Counters& c = p.counters();
        vp_ar += c.get("vlsu.ar");
        vp_aw += c.get("vlsu.aw");
        vp_beats_rx += c.get("vlsu.beats_rx");
        vp_bytes_rx += c.get("vlsu.bytes_rx");
        vp_vfu_elems += c.get("vfu.elems");
        vp_retries += p.context().retry_stats.retries;
        vp_latency.merge(p.context().mem_latency);
      } else if (s.is_dma(m)) {
        const dma::DmaStats& d = s.dma(m).stats();
        dma_done += d.descriptors_done;
        dma_bytes += d.bytes_moved;
        dma_busy += d.busy_cycles;
        dma_queue_peak = std::max(dma_queue_peak, d.queue_peak);
        dma_errors += d.error_descriptors;
      }
    }
    bus += r.bus;
    protocol_violations += r.protocol_violations;
    channels = std::max<unsigned>(channels, r.channels);
    for (std::size_t c = 0;
         c < r.per_channel.size() && c < kReportedChannels; ++c) {
      ch_r_util_sum[c] += r.per_channel[c].r_util;
      ch_r_payload[c] += r.per_channel[c].bus.r_payload_bytes;
    }
    if (s.has_fabric()) {
      for (unsigned c = 0; c < s.num_channels(); ++c) {
        const pack::AdapterStats& a = s.adapter(c).stats();
        adapter.base_reads += a.base_reads;
        adapter.base_writes += a.base_writes;
        adapter.strided_reads += a.strided_reads;
        adapter.strided_writes += a.strided_writes;
        adapter.indirect_reads += a.indirect_reads;
        adapter.indirect_writes += a.indirect_writes;
      }
    }
    idx_words += r.indirect_idx_words;
    elem_words += r.indirect_elem_words;
    co_merged += r.coalesce_merged;
    co_unique += r.coalesce_unique;
    co_peak = std::max(co_peak, r.coalesce_peak_pending);
    co_row_groups += r.coalesce_row_groups;
    grants += r.bank_grants;
    conflict_losses += r.bank_conflict_losses;
    row_hits += r.row_hits;
    row_misses += r.row_misses;
    refresh_stall += r.refresh_stall_cycles;
    batch_defer += r.row_batch_defer_cycles;
    starved_grants += r.row_starved_grants;
    if (const traffic::OpenLoopDriver* d = s.traffic_driver()) {
      arrivals += d->stats().arrivals;
      completed += d->stats().completed;
      req_failed += d->stats().failed;
      traffic_queue_peak =
          std::max(traffic_queue_peak, d->stats().queue_peak);
      offered += r.offered_rate;
      achieved += r.achieved_rate;
      sojourn.merge(d->latency());
    }
  }
};

/// The modelled per-layer metrics of `c`. `sfx` is "" for the AXI-Pack
/// system and ".base" for the BASE reference, which reports only the
/// vproc/axi/mem layers (its sim.* names are added with the host times).
void emit_layers(const LayerCounts& c, const std::string& sfx, Metrics& out) {
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto add = [&](const std::string& name, double v, const char* unit) {
    out.push_back({name + sfx, v, unit});
  };
  add("vproc.ar", u(c.vp_ar), "count");
  add("vproc.aw", u(c.vp_aw), "count");
  add("vproc.beats_rx", u(c.vp_beats_rx), "count");
  add("vproc.bytes_rx", u(c.vp_bytes_rx), "B");
  add("vproc.vfu_elems", u(c.vp_vfu_elems), "count");
  add("vproc.retries", u(c.vp_retries), "count");
  add("vproc.mem_lat_p50_cyc", c.vp_latency.percentile(50), "cyc");
  add("vproc.mem_lat_p99_cyc", c.vp_latency.percentile(99), "cyc");
  add("vproc.mem_lat_count", u(c.vp_latency.count()), "count");

  add("axi.ar", u(c.bus.ar_handshakes), "count");
  add("axi.aw", u(c.bus.aw_handshakes), "count");
  add("axi.r_beats", u(c.bus.r_beats), "count");
  add("axi.w_beats", u(c.bus.w_beats), "count");
  add("axi.r_payload_bytes", u(c.bus.r_payload_bytes), "B");
  add("axi.r_index_bytes", u(c.bus.r_index_bytes), "B");
  add("axi.r_beat_fill",
      ratio(u(c.bus.r_payload_bytes), u(c.bus.r_beats) * c.bus_bytes),
      "frac");
  add("axi.w_beat_fill",
      ratio(u(c.bus.w_payload_bytes), u(c.bus.w_beats) * c.bus_bytes),
      "frac");
  add("axi.protocol_violations", u(c.protocol_violations), "count");
  double payload_max = 0.0, payload_sum = 0.0;
  for (unsigned ch = 0; ch < kReportedChannels; ++ch) {
    add("axi.r_util.ch" + std::to_string(ch),
        ratio(c.ch_r_util_sum[ch], c.points), "frac");
    if (ch < c.channels) {
      payload_max = std::max(payload_max, u(c.ch_r_payload[ch]));
      payload_sum += u(c.ch_r_payload[ch]);
    }
  }
  // Busiest channel's read payload over the mean channel's: 1 is balanced.
  add("axi.channel_imbalance", ratio(payload_max * c.channels, payload_sum),
      "ratio");

  if (sfx.empty()) {
    add("pack.base_reads", u(c.adapter.base_reads), "count");
    add("pack.base_writes", u(c.adapter.base_writes), "count");
    add("pack.strided_reads", u(c.adapter.strided_reads), "count");
    add("pack.strided_writes", u(c.adapter.strided_writes), "count");
    add("pack.indirect_reads", u(c.adapter.indirect_reads), "count");
    add("pack.indirect_writes", u(c.adapter.indirect_writes), "count");
    add("pack.idx_words", u(c.idx_words), "count");
    add("pack.elem_words", u(c.elem_words), "count");
    add("pack.coalesce_merged", u(c.co_merged), "count");
    add("pack.coalesce_unique", u(c.co_unique), "count");
    add("pack.coalesce_merge_ratio",
        ratio(u(c.co_merged), u(c.co_merged + c.co_unique)), "frac");
    add("pack.coalesce_peak_pending", u(c.co_peak), "count");
    add("pack.coalesce_row_groups", u(c.co_row_groups), "count");
  }

  add("mem.grants", u(c.grants), "count");
  add("mem.conflict_losses", u(c.conflict_losses), "count");
  add("mem.conflict_ratio",
      ratio(u(c.conflict_losses), u(c.grants + c.conflict_losses)), "frac");
  add("mem.row_hits", u(c.row_hits), "count");
  add("mem.row_misses", u(c.row_misses), "count");
  add("mem.row_hit_ratio", ratio(u(c.row_hits), u(c.row_hits + c.row_misses)),
      "frac");
  add("mem.refresh_stall_cycles", u(c.refresh_stall), "cyc");
  add("mem.row_batch_defer_cycles", u(c.batch_defer), "cyc");
  add("mem.row_starved_grants", u(c.starved_grants), "count");

  if (sfx.empty()) {
    add("dma.descriptors_done", u(c.dma_done), "count");
    add("dma.bytes_moved", u(c.dma_bytes), "B");
    add("dma.busy_frac", ratio(u(c.dma_busy), u(c.cycles)), "frac");
    add("dma.queue_peak", u(c.dma_queue_peak), "count");
    add("dma.error_descriptors", u(c.dma_errors), "count");
    add("traffic.arrivals", u(c.arrivals), "count");
    add("traffic.completed", u(c.completed), "count");
    add("traffic.failed", u(c.req_failed), "count");
    add("traffic.achieved_over_offered", ratio(c.achieved, c.offered),
        "frac");
    add("traffic.queue_peak", u(c.traffic_queue_peak), "count");
    add("traffic.sojourn_p50_cyc", c.sojourn.percentile(50), "cyc");
    add("traffic.sojourn_p99_cyc", c.sojourn.percentile(99), "cyc");
  }
  add("sim.cycles", u(c.cycles), "cyc");
}

// ------------------------------------------------------------- tracing

/// Host-time accounting around the benchmark's calls into each layer, plus
/// optional Chrome trace-event recording of the same calls. Timing is the
/// same whether or not a repeat records, so traced and untraced repeats
/// differ only by the recording itself.
class Trace {
 public:
  /// Identifies the spans of one (system, point, repeat).
  struct Tag {
    std::uint64_t id = 0;
    std::string system;
    std::string point;
    unsigned repeat = 0;
  };

  void set_recording(bool on) { recording_ = on; }

  /// Runs `fn`, adds its host seconds to `*acc` (when non-null) and, while
  /// recording, keeps it as a complete event named `name`.
  template <class Fn>
  void span(const char* name, const Tag& tag, double* acc, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    const Clock::time_point end = Clock::now();
    if (acc != nullptr) {
      *acc += std::chrono::duration<double>(end - start).count();
    }
    if (recording_) events_.push_back({name, tag, us(start), us(end)});
  }

  /// Records `metrics` as counter events at the current time.
  void counters(const Metrics& metrics) {
    const double now = us(Clock::now());
    for (const Metric& m : metrics) counters_.push_back({m.name, m.value, now});
  }

  std::string to_json(const std::string& workload, std::uint64_t seed) const {
    util::JsonWriter w;
    w.begin_object();
    w.key("displayTimeUnit").value("ms");
    w.key("otherData").begin_object();
    w.key("workload").value(workload);
    w.key("seed").value(seed);
    w.end_object();
    w.key("traceEvents").begin_array();
    for (const Event& e : events_) {
      w.begin_object();
      w.key("name").value(e.name);
      w.key("cat").value("benchmark");
      w.key("ph").value("X");
      w.key("ts").value(e.start_us);
      w.key("dur").value(e.end_us - e.start_us);
      w.key("pid").value(1);
      w.key("tid").value(1);
      w.key("args").begin_object();
      w.key("id").value(e.tag.id);
      w.key("system").value(e.tag.system);
      w.key("point").value(e.tag.point);
      w.key("repeat").value(e.tag.repeat);
      w.end_object();
      w.end_object();
    }
    for (const Counter& c : counters_) {
      w.begin_object();
      w.key("name").value(c.name);
      w.key("ph").value("C");
      w.key("ts").value(c.ts_us);
      w.key("pid").value(1);
      w.key("args").begin_object();
      w.key("value").value(c.value);
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str();
  }

 private:
  struct Event {
    const char* name;
    Tag tag;
    double start_us;
    double end_us;
  };
  struct Counter {
    std::string name;
    double value;
    double ts_us;
  };

  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  bool recording_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Event> events_;
  std::vector<Counter> counters_;
};

// ------------------------------------------------------------- running

/// One point on one system.
struct PointRun {
  double cycles_per_op = 0.0;  ///< closed loop: run cycles; open: mean sojourn
  double r_util = 0.0;
  double energy_uj = 0.0;  ///< closed single-processor points only
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  double setup_s = 0.0;
  double sim_s = 0.0;
  std::string error;
};

/// Runs `p` on a freshly built system and adds its per-layer counts to each
/// of `layers`.
PointRun run_point(const Workload& w, const Point& p, bool pack,
                   std::uint64_t seed, bool naive, Trace& trace,
                   const Trace::Tag& tag,
                   const std::vector<LayerCounts*>& layers) {
  sys::SystemBuilder b = sys::ScenarioRegistry::instance().builder(
      pack ? w.pack_scenario : w.base_scenario);
  b.naive_kernel(naive);
  for (std::size_t i = 1; i < p.kernels.size(); ++i) {
    b.attach_processor(pack ? vproc::VlsuMode::pack : vproc::VlsuMode::base);
  }
  if (p.kind == PointKind::open_loop) {
    traffic::TrafficConfig tc;
    tc.arrival.kind = traffic::ArrivalKind::poisson;
    tc.arrival.rate_per_100k = p.rate;
    tc.arrival.seed = seed;
    tc.dma.use_pack = pack;
    b.traffic(tc);
  }

  PointRun out;
  std::unique_ptr<sys::System> system;
  std::vector<wl::WorkloadInstance> insts;
  trace.span("systems.build", tag, &out.setup_s, [&] { system = b.build(); });
  trace.span("workloads.build", tag, &out.setup_s, [&] {
    for (const KernelKind k : p.kernels) {
      wl::WorkloadConfig cfg = sys::plan_workload(k, b);
      cfg.seed = seed;
      insts.push_back(wl::build_workload(system->store(), cfg));
    }
  });

  sys::RunResult r;
  if (p.kind == PointKind::open_loop) {
    trace.span("systems.run_open_loop", tag, &out.sim_s,
               [&] { r = system->run_open_loop(kOpenLoopWindow); });
    traffic::OpenLoopDriver& driver = *system->traffic_driver();
    bool verified = false;
    trace.span("traffic.verify", tag, nullptr,
               [&] { verified = driver.verify(out.error); });
    if (!r.correct && out.error.empty()) out.error = r.error;
    out.ops = driver.stats().arrivals;
    out.failed = r.correct && verified ? driver.stats().failed : out.ops;
    out.cycles_per_op = r.latency.mean();
  } else {
    // Processors 1.. start first; System::run then starts processor 0,
    // drains every master and collects every channel's stats.
    std::vector<sys::MasterId> procs;
    for (sys::MasterId m = 0; m < system->num_masters(); ++m) {
      if (system->is_processor(m)) procs.push_back(m);
    }
    if (insts.size() > 1) {
      trace.span("vproc.start", tag, &out.sim_s, [&] {
        for (std::size_t i = 1; i < insts.size(); ++i) {
          system->processor(procs[i]).run(insts[i].program);
        }
      });
    }
    trace.span("systems.run", tag, &out.sim_s,
               [&] { r = system->run(insts[0]); });
    out.ops = insts.size();
    // System::run already checked instance 0; checking it again here sizes
    // verify time.
    bool first_ok = false;
    for (std::size_t i = 0; i < insts.size(); ++i) {
      bool check_ok = false;
      std::string msg;
      trace.span("workloads.check", tag, nullptr,
                 [&] { check_ok = insts[i].check(system->store(), msg); });
      if (i == 0) first_ok = check_ok;
      if (!check_ok) {
        ++out.failed;
        out.error = std::string(wl::kernel_name(p.kernels[i])) + ": " + msg;
      }
    }
    if (!r.correct && first_ok) {
      // Timeout, protocol violation or unrecoverable fault: no output of
      // the run can be trusted.
      out.failed = out.ops;
      out.error = r.error;
    }
    out.cycles_per_op = static_cast<double>(r.cycles);
    if (insts.size() == 1) out.energy_uj = energy::estimate(r).energy_uj;
  }
  out.r_util = r.r_util;
  for (LayerCounts* l : layers) l->add_run(*system, r);
  return out;
}

/// The modelled numbers of one point, compared bit-for-bit between the
/// gated and naive kernels.
Metrics point_signature(const PointRun& pr, const LayerCounts& layers) {
  Metrics m = {{"cycles_per_op", pr.cycles_per_op, "cyc"},
               {"r_util", pr.r_util, "frac"},
               {"ops", static_cast<double>(pr.ops), "count"},
               {"failed", static_cast<double>(pr.failed), "count"}};
  emit_layers(layers, "", m);
  return m;
}

/// Every point of a workload on both systems, built fresh.
struct RepeatRun {
  std::vector<PointRun> pack;
  std::vector<PointRun> base;
  LayerCounts pack_layers;  ///< summed over every point
  LayerCounts base_layers;
  LayerCounts first_point;  ///< the first AXI-Pack point alone

  double setup_s() const { return sum(&PointRun::setup_s); }
  double sim_s() const { return sum(&PointRun::sim_s); }
  std::uint64_t ops() const { return count(&PointRun::ops); }
  std::uint64_t failed() const { return count(&PointRun::failed); }

 private:
  double sum(double PointRun::*f) const {
    double s = 0.0;
    for (const PointRun& p : pack) s += p.*f;
    for (const PointRun& p : base) s += p.*f;
    return s;
  }
  std::uint64_t count(std::uint64_t PointRun::*f) const {
    std::uint64_t s = 0;
    for (const PointRun& p : pack) s += p.*f;
    for (const PointRun& p : base) s += p.*f;
    return s;
  }
};

RepeatRun run_repeat(const Workload& w, std::uint64_t seed, unsigned repeat,
                     Trace& trace, std::uint64_t& next_id) {
  RepeatRun rr;
  for (const Point& p : w.points) {
    for (const bool pack : {true, false}) {
      const Trace::Tag tag{++next_id, pack ? w.pack_scenario : w.base_scenario,
                           p.name, repeat};
      std::vector<LayerCounts*> layers{pack ? &rr.pack_layers
                                            : &rr.base_layers};
      if (pack && &p == &w.points.front()) layers.push_back(&rr.first_point);
      (pack ? rr.pack : rr.base)
          .push_back(run_point(w, p, pack, seed, /*naive=*/false, trace, tag,
                               layers));
    }
  }
  return rr;
}

std::vector<double> side_values(const std::vector<PointRun>& side,
                                double PointRun::*f) {
  std::vector<double> v;
  for (const PointRun& p : side) v.push_back(p.*f);
  return v;
}

/// Host seconds inside System::run* for one pass over every point of one
/// system, each point at its fastest repeat: on a shared host, interference
/// only adds time, and it comes in phases longer than a repeat.
double fastest_pass(const std::vector<RepeatRun>& repeats, bool pack) {
  double total = 0.0;
  for (std::size_t i = 0; i < repeats.front().pack.size(); ++i) {
    double best = 0.0;
    for (const RepeatRun& r : repeats) {
      const double s = (pack ? r.pack : r.base)[i].sim_s;
      if (&r == &repeats.front() || s < best) best = s;
    }
    total += best;
  }
  return total;
}

/// The modelled end-to-end metrics of one repeat. Latency percentiles are
/// per-layer metrics (vproc.mem_lat_*, traffic.sojourn_*): on the log2
/// latency histogram a workload's median moves by up to 10% and its p99 by
/// up to 16% from seed to seed, too much to gate on.
Metrics modelled_end_to_end(const RepeatRun& rr) {
  double r_util_sum = 0.0;
  for (const PointRun& p : rr.pack) r_util_sum += p.r_util;
  return {
      {"pack_cycles", geomean(side_values(rr.pack, &PointRun::cycles_per_op)),
       "cyc"},
      {"base_cycles", geomean(side_values(rr.base, &PointRun::cycles_per_op)),
       "cyc"},
      {"r_util", r_util_sum / static_cast<double>(rr.pack.size()), "frac"},
  };
}

/// The modelled per-layer metrics of one repeat (host-derived sim.* and
/// the traced-run numbers are added by the caller).
Metrics modelled_layers(const Workload& w, const RepeatRun& rr) {
  Metrics m;
  emit_layers(rr.pack_layers, "", m);
  emit_layers(rr.base_layers, ".base", m);
  for (const std::string& name : all_point_names()) {
    double pack_cycles = 0.0, base_cycles = 0.0;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
      if (w.points[i].name != name) continue;
      pack_cycles = rr.pack[i].cycles_per_op;
      base_cycles = rr.base[i].cycles_per_op;
    }
    m.push_back({"workloads." + name + ".cycles", pack_cycles, "cyc"});
    m.push_back({"workloads." + name + ".cycles.base", base_cycles, "cyc"});
  }
  return m;
}

/// First metric of `a` whose name or value differs from `b`, or "".
std::string first_difference(const Metrics& a, const Metrics& b) {
  if (a.size() != b.size()) return "metric count";
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].value != b[i].value) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s: %.17g vs %.17g", a[i].name.c_str(),
                    a[i].value, b[i].value);
      return buf;
    }
  }
  return "";
}

/// Open-loop knee of the workload's AXI-Pack system: the highest swept rate
/// whose p99 sojourn meets the SLO while keeping up with the offered rate.
double knee_rate(const Workload& w, std::uint64_t seed, Trace& trace,
                 std::uint64_t& next_id, std::uint64_t& ops,
                 std::uint64_t& failed) {
  double knee = 0.0;
  for (unsigned rate = kKneeStep; rate <= kKneeMax; rate += kKneeStep) {
    sys::SystemBuilder b =
        sys::ScenarioRegistry::instance().builder(w.pack_scenario);
    traffic::TrafficConfig tc;
    tc.arrival.rate_per_100k = rate;
    tc.arrival.seed = seed;
    tc.dma.use_pack = true;
    b.traffic(tc);
    const std::unique_ptr<sys::System> system = b.build();
    sys::RunResult r;
    const Trace::Tag tag{++next_id, w.pack_scenario,
                         "knee" + std::to_string(rate), 0};
    trace.span("traffic.knee_probe", tag, nullptr,
               [&] { r = system->run_open_loop(kKneeWindow); });
    const traffic::OpenLoopDriver::Stats& st =
        system->traffic_driver()->stats();
    ops += st.arrivals;
    failed += r.correct ? st.failed : st.arrivals;
    const bool met = r.correct && r.latency.percentile(99) <= kSloP99 &&
                     r.achieved_rate >= 0.95 * r.offered_rate;
    if (!met) break;
    knee = rate;
  }
  return knee;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ------------------------------------------------------------- main

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_given = false;
  unsigned repeats = 3;
  double seconds = 0.0;
  std::string out;
  std::string trace;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload=NAME --seed=N [--repeats=R] "
               "[--seconds=S] [--out=PATH] [--trace=PATH]\nworkloads:",
               argv0);
  for (const Workload& w : workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// Parses a whole decimal number; false on anything else.
bool parse_u64(const char* s, std::uint64_t& v) {
  if (*s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0' || *s == '-') return false;
  v = x;
  return true;
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const auto value = [a](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      return std::strncmp(a, flag, n) == 0 ? a + n : nullptr;
    };
    std::uint64_t v = 0;
    if (const char* s = value("--workload=")) {
      o.workload = s;
    } else if (const char* s = value("--seed=")) {
      if (!parse_u64(s, o.seed)) return false;
      o.seed_given = true;
    } else if (const char* s = value("--repeats=")) {
      if (!parse_u64(s, v) || v == 0 || v > 1000) return false;
      o.repeats = static_cast<unsigned>(v);
    } else if (const char* s = value("--seconds=")) {
      if (!parse_u64(s, v) || v > 3600) return false;
      o.seconds = static_cast<double>(v);
    } else if (const char* s = value("--out=")) {
      o.out = s;
    } else if (const char* s = value("--trace=")) {
      o.trace = s;
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.seed_given;
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
                  std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

void print_metrics(const Metrics& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void write_metrics(util::JsonWriter& w, const char* key,
                   const Metrics& metrics) {
  w.key(key).begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return usage(argv[0]);
  const Workload* found = nullptr;
  for (const Workload& w : workloads()) {
    if (w.name == opt.workload) found = &w;
  }
  if (found == nullptr) return usage(argv[0]);
  const Workload& w = *found;
  const bool tracing = !opt.trace.empty();

  // Repeats: untraced ones give the end-to-end metrics; with --trace every
  // other repeat records, and each traced repeat over the untraced one
  // before it gives the tracing overhead.
  Trace trace;
  std::uint64_t next_id = 0;
  std::vector<RepeatRun> untraced, traced;
  const Clock::time_point t0 = Clock::now();
  const auto elapsed = [&t0] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  // Past the minimum, start another repeat only while it is expected to end
  // nearer the time budget than stopping now would.
  const auto time_left = [&] {
    const double done = static_cast<double>(untraced.size() + traced.size());
    return elapsed() + 0.5 * elapsed() / done < opt.seconds;
  };
  while (untraced.size() < opt.repeats ||
         (tracing && traced.size() < opt.repeats) || time_left()) {
    const bool record = tracing && traced.size() < untraced.size();
    trace.set_recording(record);
    const unsigned repeat =
        static_cast<unsigned>(untraced.size() + traced.size());
    (record ? traced : untraced)
        .push_back(run_repeat(w, opt.seed, repeat, trace, next_id));
  }
  const double measured_s = elapsed();
  trace.set_recording(tracing);

  bool ok = true;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<const RepeatRun*> all;
  for (const RepeatRun& r : untraced) all.push_back(&r);
  for (const RepeatRun& r : traced) all.push_back(&r);
  for (const RepeatRun* r : all) {
    attempted += r->ops();
    failed += r->failed();
    for (const auto* side : {&r->pack, &r->base}) {
      for (const PointRun& p : *side) {
        if (p.failed != 0) {
          std::fprintf(stderr, "verification failed: %s\n", p.error.c_str());
        }
      }
    }
  }
  if (failed != 0) ok = false;

  // Determinism gate: every repeat reproduces every modelled number.
  const RepeatRun& first = untraced.front();
  const auto modelled = [&w](const RepeatRun& r) {
    Metrics m = modelled_end_to_end(r);
    const Metrics layers = modelled_layers(w, r);
    m.insert(m.end(), layers.begin(), layers.end());
    return m;
  };
  const Metrics reference = modelled(first);
  for (const RepeatRun* r : all) {
    const std::string diff = first_difference(reference, modelled(*r));
    if (!diff.empty()) {
      std::fprintf(stderr, "modelled metric differs between repeats: %s\n",
                   diff.c_str());
      ok = false;
    }
  }

  // Traced-run extras: the naive-kernel replay of the first point and the
  // open-loop knee sweep.
  double knee = 0.0;
  if (tracing) {
    const Point& p = w.points.front();
    const Trace::Tag tag{++next_id, w.pack_scenario, p.name + ".naive", 0};
    LayerCounts naive_layers;
    const PointRun naive = run_point(w, p, /*pack=*/true, opt.seed,
                                     /*naive=*/true, trace, tag,
                                     {&naive_layers});
    attempted += naive.ops;
    failed += naive.failed;
    const std::string diff = first_difference(
        point_signature(first.pack.front(), first.first_point),
        point_signature(naive, naive_layers));
    if (!diff.empty()) {
      std::fprintf(stderr, "naive kernel differs from gated: %s\n",
                   diff.c_str());
      ok = false;
    }
    if (w.points.front().kind == PointKind::open_loop) {
      knee = knee_rate(w, opt.seed, trace, next_id, attempted, failed);
    }
  }
  if (failed != 0) ok = false;

  // Host numbers from the untraced repeats: set-up time is their median,
  // simulation time their fastest pass.
  std::vector<double> sim_s, setup_s;
  for (const RepeatRun& r : untraced) {
    sim_s.push_back(r.sim_s());
    setup_s.push_back(r.setup_s());
  }
  const double pack_sim_s = fastest_pass(untraced, true);
  const double base_sim_s = fastest_pass(untraced, false);

  Metrics end_to_end = modelled_end_to_end(first);
  end_to_end.push_back({"sim_s", pack_sim_s + base_sim_s, "s"});
  end_to_end.push_back({"setup_s", median(setup_s), "s"});
  end_to_end.push_back({"peak_rss_mb", peak_rss_mib(), "MiB"});

  Metrics layers = modelled_layers(w, first);
  const auto sim_layer = [&](const LayerCounts& c, double s,
                             const std::string& sfx) {
    const double beats = static_cast<double>(c.bus.r_beats + c.bus.w_beats);
    layers.push_back(
        {"sim.cycles_per_s" + sfx, ratio(static_cast<double>(c.cycles), s),
         "cyc/s"});
    layers.push_back({"sim.ns_per_beat" + sfx, ratio(s * 1e9, beats), "ns"});
  };
  sim_layer(first.pack_layers, pack_sim_s, "");
  sim_layer(first.base_layers, base_sim_s, ".base");
  layers.push_back({"traffic.knee_rate", knee, "req/100k_cyc"});
  if (tracing) {
    // Each traced repeat directly follows an untraced one; pairing them keeps
    // the host's slow and fast phases out of the ratio.
    std::vector<double> paired;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      paired.push_back(ratio(traced[i].sim_s(), untraced[i].sim_s()));
    }
    layers.push_back({"trace.overhead", median(paired) - 1.0, "frac"});
  }

  // Not gated: speedup and, on the paper's own setup, the error against
  // the approximate Fig. 3a values and the SRAM-calibrated energy model.
  Metrics report;
  std::vector<double> speedups;
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    const double s =
        ratio(first.base[i].cycles_per_op, first.pack[i].cycles_per_op);
    speedups.push_back(s);
    report.push_back({"report.speedup." + w.points[i].name, s, "x"});
  }
  report.push_back({"report.speedup", geomean(speedups), "x"});
  if (w.paper_reference) {
    std::vector<double> pack_uj, gains;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
      pack_uj.push_back(first.pack[i].energy_uj);
      gains.push_back(ratio(first.base[i].energy_uj, first.pack[i].energy_uj));
      for (const PaperRef& ref : kPaperFig3a) {
        if (w.points[i].name != ref.kernel) continue;
        report.push_back({"report.paper_err.speedup." + w.points[i].name,
                          speedups[i] / ref.speedup - 1.0, "frac"});
        report.push_back({"report.paper_err.r_util." + w.points[i].name,
                          first.pack[i].r_util / ref.r_util - 1.0, "frac"});
      }
    }
    report.push_back({"report.pack_energy_uj", geomean(pack_uj), "uJ"});
    report.push_back({"report.energy_gain", geomean(gains), "x"});
  }

  std::printf("workload %s seed %llu repeats %zu+%zu measured_s %.3f\n",
              w.name.c_str(), static_cast<unsigned long long>(opt.seed),
              untraced.size(), traced.size(), measured_s);
  print_metrics(end_to_end);
  print_metrics(layers);
  print_metrics(report);
  std::printf("attempted %llu failed %llu correct %s\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), ok ? "true" : "false");

  if (!opt.out.empty()) {
    util::JsonWriter j;
    j.begin_object();
    j.key("workload").value(w.name);
    j.key("seed").value(opt.seed);
    j.key("repeats").value(static_cast<std::uint64_t>(untraced.size()));
    j.key("traced_repeats").value(static_cast<std::uint64_t>(traced.size()));
    j.key("build_type").value(AXIPACK_BENCH_BUILD_TYPE);
    j.key("nproc").value(std::thread::hardware_concurrency());
    j.key("correct").value(ok);
    j.key("attempted").value(attempted);
    j.key("failed").value(failed);
    write_metrics(j, "end_to_end", end_to_end);
    write_metrics(j, "per_layer", layers);
    write_metrics(j, "report", report);
    j.key("samples").begin_object();
    j.key("sim_s").begin_array();
    for (const double s : sim_s) j.value(s);
    j.end_array();
    j.key("setup_s").begin_array();
    for (const double s : setup_s) j.value(s);
    j.end_array();
    j.end_object();
    j.end_object();
    if (!write_file(opt.out, j.str())) {
      std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
      return 1;
    }
  }
  if (tracing) {
    trace.counters(layers);
    if (!write_file(opt.trace, trace.to_json(w.name, opt.seed))) {
      std::fprintf(stderr, "cannot write %s\n", opt.trace.c_str());
      return 1;
    }
  }
  return ok ? 0 : 1;
}
