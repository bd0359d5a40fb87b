#include "systems/scenario.hpp"

#include <cstdio>
#include <cstdlib>
#include <optional>

#include "systems/system.hpp"

namespace axipack::sys {

const char* system_name(SystemKind k) {
  switch (k) {
    case SystemKind::base: return "base";
    case SystemKind::pack: return "pack";
    case SystemKind::ideal: return "ideal";
  }
  return "?";
}

namespace {

/// One of the paper's SoCs: a single processor in the kind's VLSU mode on
/// the builder's default fabric (1-cycle banked SRAM, monitored link).
SystemBuilder soc_builder(SystemKind kind, unsigned bus_bits,
                          unsigned banks) {
  SystemBuilder b;
  b.bus_bits(bus_bits).banks(banks);
  switch (kind) {
    case SystemKind::base:
      b.attach_processor(vproc::VlsuMode::base);
      break;
    case SystemKind::pack:
      b.attach_processor(vproc::VlsuMode::pack);
      break;
    case SystemKind::ideal:
      b.attach_processor(vproc::VlsuMode::ideal);
      break;
  }
  return b;
}

/// Parses a decimal number from `s` starting at `pos`; advances `pos` past
/// it. Disengaged if no digits are present or the value is implausibly
/// large (guards against silent unsigned wrap-around accepting garbage
/// names like "pack-256-4294967313b").
std::optional<unsigned> parse_number(const std::string& s,
                                     std::size_t& pos) {
  constexpr unsigned kMaxValue = 1'000'000;
  if (pos >= s.size() || s[pos] < '0' || s[pos] > '9') return std::nullopt;
  std::uint64_t value = 0;
  while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(s[pos] - '0');
    if (value > kMaxValue) return std::nullopt;
    ++pos;
  }
  return static_cast<unsigned>(value);
}

/// The retry profile the scenario knobs imply: a small bounded budget with
/// a watchdog generous enough to never fire on legitimate DRAM latency
/// (refresh + row misses stay well under it).
sim::RetryConfig default_retry() {
  sim::RetryConfig rc;
  rc.max_attempts = 4;
  rc.timeout_cycles = 50'000;
  rc.backoff = 16;
  return rc;
}

/// Grows the builder's master list to `total` fabric masters: the SoC's
/// own processor plus extras alternating DMA engine / processor, all
/// matched to the SoC kind (base SoCs get narrow-burst DMA and base-mode
/// processors). Extra masters are left unprogrammed — they contend for the
/// fabric only when a harness drives them — so single-workload runs still
/// drain.
void attach_extra_masters(SystemBuilder& b, SystemKind kind,
                          unsigned total) {
  const bool pack = kind == SystemKind::pack;
  for (unsigned i = 1; i < total; ++i) {
    if (i % 2 == 1) {
      dma::DmaConfig dc;
      dc.use_pack = pack;
      b.attach_dma(dc);
    } else {
      b.attach_processor(pack ? vproc::VlsuMode::pack : vproc::VlsuMode::base);
    }
  }
}

}  // namespace

std::string scenario_name(SystemKind kind, unsigned bus_bits,
                          unsigned banks) {
  if (kind == SystemKind::ideal) {
    return "ideal-" + std::to_string(bus_bits);
  }
  return std::string(system_name(kind)) + "-" + std::to_string(bus_bits) +
         "-" + std::to_string(banks) + "b";
}

std::optional<SystemBuilder> parse_scenario(const std::string& name,
                                            std::string* error) {
  SystemKind kind;
  std::size_t pos;
  if (name.rfind("base-", 0) == 0) {
    kind = SystemKind::base;
    pos = 5;
  } else if (name.rfind("pack-", 0) == 0) {
    kind = SystemKind::pack;
    pos = 5;
  } else if (name.rfind("ideal-", 0) == 0) {
    kind = SystemKind::ideal;
    pos = 6;
  } else {
    return std::nullopt;
  }

  const auto bus_bits = parse_number(name, pos);
  if (!bus_bits ||
      (*bus_bits != 64 && *bus_bits != 128 && *bus_bits != 256)) {
    return std::nullopt;
  }
  if (kind == SystemKind::ideal) {
    if (pos != name.size()) return std::nullopt;
    return soc_builder(kind, *bus_bits, 17);
  }
  if (pos >= name.size() || name[pos] != '-') return std::nullopt;
  ++pos;
  if (name.compare(pos, 4, "dram") == 0) {
    // "{base|pack}-{bits}-dram[-w{W}][-c{C}][-q{Q}][-x{E}][-g{G}]
    //  [-f{F}][-r{R}][-ch{C}][-m{M}]": the paper SoC over the DRAM
    // backend, with optional knobs —
    // w = row-batching per-port lookahead window (1 = head-only; default:
    //     derived from the adapter, AxiPackAdapter::lane_inflight_words),
    // c = row-batching starvation cap in cycles (0 = no batching),
    // q = per-port memory request-FIFO depth (response depth keeps its
    //     default),
    // x = index-coalescer pending-table entries (enables the unit),
    // g = index-coalescer grouping-window lookahead (enables the unit):
    //     how many queued fetches a lane searches for one continuing the
    //     row it last issued to, while its head is in that row's bank (the
    //     closed-loop indirect kernels take the same cycles at x512-g1,
    //     -g16 and -g64; see fig8),
    // f = fault injection at F times the default mixed-fault rates
    //     (attaches a FaultPlan; f0 = plan with zero rates, for forcing),
    // r = master-side retry budget in total attempts (r0 = error handling
    //     off). f without r implies the default budget of 4 attempts.
    // ch = interleaved memory channels (default granule; ch1 is the
    //      single-endpoint system),
    // m = total fabric masters: the SoC's processor plus M-1 extras
    //     alternating DMA engine / processor (all kind-matched).
    // p = open-loop Poisson arrivals at P requests per 100k cycles against
    //     a scatter-gather ring DMA master (kind-matched pack/narrow);
    //     run with System::run_open_loop,
    // b = bursty on/off arrivals with burst length B (requires -p; the
    //     mean rate stays P).
    // Knobs may appear in any order, each at most once.
    pos += 4;
    SystemBuilder b = soc_builder(kind, *bus_bits, 17);
    b.memory("dram");
    std::size_t window = 0, cap = 0, req_depth = 0;  // 0 = not given
    std::size_t co_entries = 0, co_window = 0;
    unsigned fault_scale = 0, retry_attempts = 0;
    unsigned num_channels = 0, num_masters = 0;
    unsigned rate = 0, burst = 0;
    bool have_w = false, have_c = false, have_q = false;
    bool have_x = false, have_g = false;
    bool have_f = false, have_r = false;
    bool have_ch = false, have_m = false;
    bool have_p = false, have_b = false;
    // A repeated knob ("-w8-w16") is almost certainly a typo'd sweep point;
    // last-wins would silently run the wrong configuration, so name the
    // offender for the diagnostic instead of just disengaging.
    const auto repeated = [&](const char* k) {
      if (error != nullptr) {
        *error = "scenario \"" + name + "\": knob '-" + std::string(k) +
                 "' given more than once";
      }
    };
    while (pos != name.size()) {
      if (name[pos] != '-' || pos + 2 >= name.size()) return std::nullopt;
      // The two-letter "ch" knob must match before the one-letter switch:
      // a bare 'c' is the starvation cap.
      if (name.compare(pos + 1, 2, "ch") == 0 && pos + 3 < name.size() &&
          name[pos + 3] >= '0' && name[pos + 3] <= '9') {
        if (have_ch) return repeated("ch"), std::nullopt;
        pos += 3;
        const auto value = parse_number(name, pos);
        if (!value || *value == 0) return std::nullopt;
        // Reject bad geometry here instead of letting channels() abort:
        // a scenario *name* is user input, not programmer error.
        if (*value > 64 || (*value & (*value - 1)) != 0) {
          if (error != nullptr) {
            *error = "scenario \"" + name + "\": '-ch" +
                     std::to_string(*value) +
                     "' is not a power-of-two channel count in [1, 64]";
          }
          return std::nullopt;
        }
        num_channels = *value;
        have_ch = true;
        continue;
      }
      const char knob = name[pos + 1];
      pos += 2;
      const auto value = parse_number(name, pos);
      if (!value) return std::nullopt;
      switch (knob) {
        case 'w':
          if (have_w) return repeated("w"), std::nullopt;
          if (*value == 0) return std::nullopt;
          window = *value;
          have_w = true;
          break;
        case 'c':
          if (have_c) return repeated("c"), std::nullopt;
          cap = *value;
          have_c = true;
          break;
        case 'q':
          if (have_q) return repeated("q"), std::nullopt;
          if (*value == 0) return std::nullopt;
          req_depth = *value;
          have_q = true;
          break;
        case 'x':
          if (have_x) return repeated("x"), std::nullopt;
          if (*value == 0) return std::nullopt;
          co_entries = *value;
          have_x = true;
          break;
        case 'g':
          if (have_g) return repeated("g"), std::nullopt;
          if (*value == 0) return std::nullopt;
          co_window = *value;
          have_g = true;
          break;
        case 'f':
          if (have_f) return repeated("f"), std::nullopt;
          fault_scale = *value;
          have_f = true;
          break;
        case 'r':
          if (have_r) return repeated("r"), std::nullopt;
          retry_attempts = *value;
          have_r = true;
          break;
        case 'm':
          if (have_m) return repeated("m"), std::nullopt;
          if (*value == 0) return std::nullopt;
          num_masters = *value;
          have_m = true;
          break;
        case 'p':
          if (have_p) return repeated("p"), std::nullopt;
          if (*value == 0) return std::nullopt;
          rate = *value;
          have_p = true;
          break;
        case 'b':
          if (have_b) return repeated("b"), std::nullopt;
          if (*value == 0) return std::nullopt;
          burst = *value;
          have_b = true;
          break;
        default:
          return std::nullopt;
      }
    }
    mem::MemoryBackendConfig defaults;
    if (have_w || have_c) {
      // -c alone changes only the cap; the window stays derived.
      b.dram_sched(have_w ? std::optional<std::size_t>(window) : std::nullopt,
                   have_c ? cap : defaults.dram_starve_cap);
    }
    if (have_q) b.mem_queue_depths(req_depth, defaults.resp_depth);
    if (have_x || have_g) {
      pack::AdapterConfig ad;
      b.coalescer(true, have_x ? co_entries : ad.coalesce_entries,
                  have_g ? co_window : ad.coalesce_window);
    }
    if (have_f) {
      b.faults(sim::FaultConfig::defaults(static_cast<double>(fault_scale)));
    }
    if (have_f || have_r) {
      sim::RetryConfig rc = default_retry();
      if (have_r) rc.max_attempts = retry_attempts;
      b.retry(rc);
    }
    if (have_ch) b.channels(num_channels);
    if (have_m) attach_extra_masters(b, kind, num_masters);
    if (have_b && !have_p) {
      // A burst length without an arrival rate is always a typo'd sweep
      // point: there is no stream to shape. Name it, like repeated knobs.
      if (error != nullptr) {
        *error = "scenario \"" + name + "\": '-b" + std::to_string(burst) +
                 "' (burst length) requires an arrival rate '-p{R}'";
      }
      return std::nullopt;
    }
    if (have_p) {
      // The sg master is attached last so -m master numbering and the
      // closed-loop fabric are untouched by the traffic knob.
      traffic::TrafficConfig tc;
      tc.arrival.kind =
          have_b ? traffic::ArrivalKind::bursty : traffic::ArrivalKind::poisson;
      tc.arrival.rate_per_100k = rate;
      if (have_b) tc.arrival.burst_len = burst;
      tc.dma.use_pack = kind == SystemKind::pack;
      b.traffic(tc);
    }
    return b;
  }
  const auto banks = parse_number(name, pos);
  if (!banks || *banks == 0 || pos + 1 != name.size() || name[pos] != 'b') {
    return std::nullopt;
  }
  return soc_builder(kind, *bus_bits, *banks);
}

ScenarioRegistry::ScenarioRegistry() {
  // The paper's three SoCs at every swept bus width.
  for (const unsigned bits : {256u, 128u, 64u}) {
    for (const auto kind :
         {SystemKind::base, SystemKind::pack, SystemKind::ideal}) {
      const std::string name = scenario_name(kind, bits);
      std::string desc =
          std::string(system_name(kind)) + " SoC, " + std::to_string(bits) +
          "-bit bus" +
          (kind == SystemKind::ideal ? " (exclusive ideal memory)"
                                     : ", 17-bank memory");
      add({name, std::move(desc),
           [kind, bits] { return soc_builder(kind, bits, 17); }});
    }
  }

  // The paper SoCs in front of the cycle-level DRAM backend: where packing
  // meets row buffers instead of SRAM banks.
  for (const auto kind : {SystemKind::base, SystemKind::pack}) {
    const std::string name = std::string(system_name(kind)) + "-dram";
    add({name,
         std::string(system_name(kind)) +
             " SoC, 256-bit bus, cycle-level DRAM memory backend",
         [kind] {
           SystemBuilder b = soc_builder(kind, 256, 17);
           b.memory("dram");
           return b;
         }});
  }

  add({"pack-dram-coalesce",
       "PACK SoC, 256-bit bus, DRAM backend, index coalescing unit enabled "
       "(default entries/window; parametric: pack-256-dram-x{E}-g{G})",
       [] {
         SystemBuilder b = soc_builder(SystemKind::pack, 256, 17);
         b.memory("dram");
         b.coalescer(true);
         return b;
       }});

  // Open-loop traffic SoCs: the DRAM-backed systems under a sustained
  // Poisson arrival stream against a kind-matched scatter-gather ring DMA
  // master (run with System::run_open_loop). The names are shorthand for
  // the parametric spellings; sweep the rate with -p{R}.
  add({"open-loop-base-dram",
       "BASE SoC, DRAM backend, open-loop Poisson load on a narrow-burst "
       "scatter-gather ring DMA (= base-256-dram-p40)",
       [] { return *parse_scenario("base-256-dram-p40"); }});
  add({"open-loop-pack-dram",
       "PACK SoC, DRAM backend, open-loop Poisson load on an AXI-Pack "
       "scatter-gather ring DMA (= pack-256-dram-p40)",
       [] { return *parse_scenario("pack-256-dram-p40"); }});
  add({"open-loop-coalesce-dram",
       "PACK SoC, DRAM backend + index coalescing, open-loop Poisson load "
       "on an AXI-Pack scatter-gather ring DMA "
       "(= pack-256-dram-x512-g16-p40)",
       [] { return *parse_scenario("pack-256-dram-x512-g16-p40"); }});

  add({"pack-dram-faults",
       "PACK SoC, 256-bit bus, DRAM backend, default mixed-fault injection "
       "and a 4-attempt retry budget (parametric: pack-256-dram-f{F}-r{R})",
       [] {
         SystemBuilder b = soc_builder(SystemKind::pack, 256, 17);
         b.memory("dram");
         b.faults(sim::FaultConfig::defaults(1.0));
         b.retry(default_retry());
         return b;
       }});

  add({"pack-256-idealmem",
       "PACK pipeline over the conflict-free ideal memory backend",
       [] {
         SystemBuilder b = soc_builder(SystemKind::pack, 256, 17);
         b.memory("ideal");
         return b;
       }});

  add({"dual-master-pack",
       "vector processor + AXI-Pack DMA engine sharing xbar and adapter",
       [] {
         SystemBuilder b;
         b.bus_bits(256);
         b.attach_processor(vproc::VlsuMode::pack);
         b.attach_dma();
         return b;
       }});

  // Bare single-DMA fabrics (no monitor hop) for layout-transform studies;
  // "narrow" degrades the engine to conventional per-element bursts.
  for (const bool use_pack : {true, false}) {
    add({use_pack ? "single-dma-pack" : "single-dma-narrow",
         use_pack ? "one AXI-Pack DMA engine straight into the adapter"
                  : "one narrow-burst DMA engine straight into the adapter",
         [use_pack] {
           SystemBuilder b;
           b.bus_bits(256)
               .mem_region(0x8000'0000ull, 64ull << 20)
               .queue_depth(4)
               .monitor(false);
           dma::DmaConfig dc;
           dc.use_pack = use_pack;
           b.attach_dma(dc);
           return b;
         }});
  }

  add({"dual-dma-pack", "two AXI-Pack DMA engines sharing the fabric", [] {
         SystemBuilder b;
         b.bus_bits(256);
         b.attach_dma();
         b.attach_dma();
         return b;
       }});

  add({"quad-dma-pack", "four AXI-Pack DMA engines sharing the fabric", [] {
         SystemBuilder b;
         b.bus_bits(256);
         for (int i = 0; i < 4; ++i) b.attach_dma();
         return b;
       }});

  // Channel scale-out SoCs: many mixed masters (vector processors + DMA
  // engines, alternating) over interleaved DRAM channels. The master mix
  // and channel count are also parametric: "pack-256-dram-ch{C}-m{M}".
  for (const auto& [masters, chans] :
       {std::pair<unsigned, unsigned>{16, 4}, {32, 8}, {64, 8}}) {
    add({"many-master-pack-" + std::to_string(masters),
         std::to_string(masters) + " mixed masters (vproc + DMA) over " +
             std::to_string(chans) + " interleaved DRAM channels",
         [masters = masters, chans = chans] {
           SystemBuilder b = soc_builder(SystemKind::pack, 256, 17);
           b.memory("dram");
           b.channels(chans);
           attach_extra_masters(b, SystemKind::pack, masters);
           return b;
         }});
  }
}

ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry registry;
  return registry;
}

void ScenarioRegistry::add(Scenario scenario) {
  for (auto& existing : scenarios_) {
    if (existing.name == scenario.name) {
      existing = std::move(scenario);
      return;
    }
  }
  scenarios_.push_back(std::move(scenario));
}

bool ScenarioRegistry::contains(const std::string& name) const {
  return find(name) != nullptr || parse_scenario(name).has_value();
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(scenarios_.size());
  for (const auto& s : scenarios_) out.push_back(s.name);
  return out;
}

const Scenario* ScenarioRegistry::find(const std::string& name) const {
  for (const auto& s : scenarios_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

SystemBuilder ScenarioRegistry::builder(const std::string& name) const {
  if (const Scenario* s = find(name)) return s->recipe();
  std::string parse_error;
  if (auto parsed = parse_scenario(name, &parse_error)) return *parsed;
  // A typo'd scenario name must never yield a garbage topology: fail loudly
  // even in assert-free builds.
  if (!parse_error.empty()) {
    std::fprintf(stderr, "%s\n", parse_error.c_str());
    std::abort();
  }
  std::fprintf(stderr, "unknown scenario \"%s\"; registered: ", name.c_str());
  for (const auto& s : scenarios_) std::fprintf(stderr, "%s ", s.name.c_str());
  std::fprintf(stderr, "\n");
  std::abort();
}

std::unique_ptr<System> ScenarioRegistry::build(
    const std::string& name) const {
  return builder(name).build();
}

}  // namespace axipack::sys
