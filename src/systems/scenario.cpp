#include "systems/scenario.hpp"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <string_view>

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
  constexpr vproc::VlsuMode kMode[] = {  // in SystemKind order
      vproc::VlsuMode::base, vproc::VlsuMode::pack, vproc::VlsuMode::ideal};
  SystemBuilder b;
  b.bus_bits(bus_bits).banks(banks);
  b.attach_processor(kMode[static_cast<std::size_t>(kind)]);
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

/// The DRAM family after "{base|pack}-{bits}-dram": knobs of kDramKnobs
/// from `pos` on. Each "-{token}" takes the longest matching token ("-ch4"
/// is channels, "-c4" the starvation cap), then its value, checked against
/// the row's domain; a repeat or a missing requirement is named in `error`.
std::optional<SystemBuilder> parse_dram(const std::string& name,
                                        SystemKind kind, unsigned bus_bits,
                                        std::size_t pos, std::string* error) {
  constexpr std::size_t kRows = std::size(kDramKnobs);
  std::array<std::optional<unsigned>, kRows> given;
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = "scenario \"" + name + "\": " + why;
    return std::optional<SystemBuilder>();
  };
  const auto is_digit = [&](std::size_t i) {
    return i < name.size() && name[i] >= '0' && name[i] <= '9';
  };
  while (pos != name.size()) {
    if (name[pos] != '-') return std::nullopt;
    ++pos;
    std::size_t row = kRows, len = 0;
    for (std::size_t i = 0; i < kRows; ++i) {
      const std::string_view token = kDramKnobs[i].token;
      if (token.size() > len && name.compare(pos, token.size(), token) == 0) {
        row = i;
        len = token.size();
      }
    }
    if (row == kRows) return std::nullopt;  // no such knob: no family member
    const DramKnob& k = kDramKnobs[row];
    const std::string knob = std::string("'-") + k.token + "'";
    const std::size_t start = pos;
    pos += len;
    if (given[row]) return fail("knob " + knob + " given more than once");
    if (!is_digit(pos)) {
      return fail("knob " + knob + " needs a value: '-" + k.token + "{" +
                  k.metavar + "}'");
    }
    std::size_t end = pos;
    while (is_digit(end)) ++end;
    const auto value = parse_number(name, pos);  // disengaged past 10^6
    if (!value || *value < k.min || *value > k.max ||
        (k.pow2 && (*value & (*value - 1)) != 0)) {
      return fail("'-" + name.substr(start, end - start) +
                  "' is out of range: knob " + knob + " takes a " +
                  (k.pow2 ? "power-of-two " : "") + "value in [" +
                  std::to_string(k.min) + ", " + std::to_string(k.max) + "]");
    }
    given[row] = *value;
  }
  for (std::size_t i = 0; i < kRows; ++i) {
    const DramKnob& k = kDramKnobs[i];
    if (given[i] && k.needs >= 0 && !given[static_cast<std::size_t>(k.needs)]) {
      const DramKnob& need = kDramKnobs[static_cast<std::size_t>(k.needs)];
      return fail("'-" + std::string(k.token) + std::to_string(*given[i]) +
                  "' needs '-" + need.token + "{" + need.metavar +
                  "}' as well: " + need.doc);
    }
  }

  // Apply the knobs in a fixed order; -p attaches its master last so -m
  // numbering and the closed-loop fabric are untouched by the traffic knob.
  const auto get = [&](Knob k) { return given[static_cast<std::size_t>(k)]; };
  SystemBuilder b = soc_builder(kind, bus_bits, 17);
  b.memory(mem::MemoryKind::dram);
  const mem::MemoryBackendConfig mem_defaults;
  if (get(Knob::w) || get(Knob::c)) {
    // -c alone changes only the cap; the window stays derived.
    b.dram_sched(get(Knob::w),
                 get(Knob::c).value_or(mem_defaults.dram_starve_cap));
  }
  if (get(Knob::q)) b.mem_queue_depths(*get(Knob::q), mem_defaults.resp_depth);
  if (get(Knob::x) || get(Knob::g)) {
    const pack::AdapterConfig ad;
    b.coalescer(true, get(Knob::x).value_or(ad.coalesce_entries),
                get(Knob::g).value_or(ad.coalesce_window));
  }
  if (get(Knob::f)) b.faults(sim::FaultConfig::defaults(*get(Knob::f)));
  if (get(Knob::f) || get(Knob::r)) {
    sim::RetryConfig rc = default_retry();
    rc.max_attempts = get(Knob::r).value_or(rc.max_attempts);
    b.retry(rc);
  }
  if (get(Knob::ch)) b.channels(*get(Knob::ch));
  if (get(Knob::m)) attach_extra_masters(b, kind, *get(Knob::m));
  if (get(Knob::p)) {
    traffic::TrafficConfig tc;
    tc.arrival.kind = get(Knob::b) ? traffic::ArrivalKind::bursty
                                   : traffic::ArrivalKind::poisson;
    tc.arrival.rate_per_100k = *get(Knob::p);
    tc.arrival.burst_len = get(Knob::b).value_or(tc.arrival.burst_len);
    tc.dma.use_pack = kind == SystemKind::pack;
    b.traffic(tc);
  }
  return b;
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
    return parse_dram(name, kind, *bus_bits, pos + 4, error);
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

  // The fixed DRAM names are shorthand for their parametric spellings:
  // the paper SoCs in front of the cycle-level DRAM backend, and the same
  // systems under a sustained open-loop arrival stream against a
  // kind-matched scatter-gather ring DMA (run with System::run_open_loop).
  const auto alias = [this](const char* name, const std::string& what,
                            const std::string& spelling) {
    add({name, what + " (= " + spelling + ")",
         [spelling] { return *parse_scenario(spelling); }});
  };
  alias("base-dram", "BASE SoC, 256-bit bus, cycle-level DRAM memory backend",
        "base-256-dram");
  alias("pack-dram", "PACK SoC, 256-bit bus, cycle-level DRAM memory backend",
        "pack-256-dram");
  alias("pack-dram-coalesce",
        "PACK SoC, DRAM backend, index coalescing unit at its default "
        "entries and window",
        "pack-256-dram-x512-g16");
  alias("open-loop-base-dram",
        "BASE SoC, DRAM backend, open-loop Poisson load on a narrow-burst "
        "scatter-gather ring DMA",
        "base-256-dram-p40");
  alias("open-loop-pack-dram",
        "PACK SoC, DRAM backend, open-loop Poisson load on an AXI-Pack "
        "scatter-gather ring DMA",
        "pack-256-dram-p40");
  alias("open-loop-coalesce-dram",
        "PACK SoC, DRAM backend + index coalescing, open-loop Poisson load "
        "on an AXI-Pack scatter-gather ring DMA",
        "pack-256-dram-x512-g16-p40");
  alias("pack-dram-faults",
        "PACK SoC, DRAM backend, default mixed-fault injection and a "
        "4-attempt retry budget",
        "pack-256-dram-f1");

  add({"pack-256-idealmem",
       "PACK pipeline over the conflict-free ideal memory backend",
       [] {
         SystemBuilder b = soc_builder(SystemKind::pack, 256, 17);
         b.memory(mem::MemoryKind::ideal);
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
  // engines, alternating) over interleaved DRAM channels.
  alias("many-master-pack-16",
        "16 mixed masters (vproc + DMA) over 4 interleaved DRAM channels",
        "pack-256-dram-ch4-m16");
  alias("many-master-pack-32",
        "32 mixed masters (vproc + DMA) over 8 interleaved DRAM channels",
        "pack-256-dram-ch8-m32");
  alias("many-master-pack-64",
        "64 mixed masters (vproc + DMA) over 8 interleaved DRAM channels",
        "pack-256-dram-ch8-m64");
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
