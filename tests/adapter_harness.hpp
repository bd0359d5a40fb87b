// Test harness driving the AXI-Pack adapter directly over an AxiPort:
// issues read/write bursts as a master would and collects beats, so
// converter behaviour can be verified functionally and cycle counts
// measured. Shared by the adapter unit/property tests (the Fig. 5 benches
// use the attach_stream() recipes in systems/sensitivity.hpp instead).
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "axi/types.hpp"
#include "mem/backing_store.hpp"
#include "systems/builder.hpp"
#include "systems/system.hpp"

namespace axipack::testing {

struct AdapterHarnessConfig {
  unsigned bus_bytes = 32;
  unsigned banks = 17;       ///< 0 = ideal (conflict-free) memory backend
  unsigned queue_depth = 4;
  std::uint64_t mem_base = 0x8000'0000ull;
  std::uint64_t mem_size = 16ull << 20;
};

class AdapterHarness {
 public:
  explicit AdapterHarness(const AdapterHarnessConfig& cfg = {}) : cfg_(cfg) {
    sys::SystemBuilder b;
    b.bus_bits(cfg.bus_bytes * 8)
        .mem_region(cfg.mem_base, cfg.mem_size)
        .queue_depth(cfg.queue_depth)
        .monitor(false);
    if (cfg.banks == 0) {
      b.memory(mem::MemoryKind::ideal);
    } else {
      b.banks(cfg.banks);
    }
    tb_ = b.attach_port("tb");
    system_ = b.build();
  }

  mem::BackingStore& store() { return system_->store(); }
  sim::Kernel& kernel() { return system_->kernel(); }
  axi::AxiPort& port() { return system_->master_port(tb_); }
  pack::AxiPackAdapter& adapter() { return system_->adapter(); }

  /// Issues one read burst and collects all its beats. Returns the packed
  /// payload bytes (useful bytes of each beat, concatenated).
  std::vector<std::uint8_t> read_burst(const axi::AxiAr& ar,
                                       std::uint64_t max_cycles = 100'000) {
    std::vector<std::uint8_t> out;
    bool pushed = false;
    bool done = false;
    const bool ok = kernel().run_until(
        [&] {
          if (!pushed && port().ar.can_push()) {
            port().ar.push(ar);
            pushed = true;
          }
          while (port().r.can_pop()) {
            const axi::AxiR beat = port().r.pop();
            for (unsigned i = 0; i < beat.useful_bytes; ++i) {
              out.push_back(beat.data[i]);
            }
            if (beat.last) done = true;
          }
          return done;
        },
        max_cycles);
    assert(ok);
    (void)ok;
    return out;
  }

  /// Issues one read burst and returns the raw beats (data at natural byte
  /// lanes — needed to check regular narrow/unaligned bursts, where payload
  /// does not start at lane 0).
  std::vector<axi::AxiR> read_burst_beats(const axi::AxiAr& ar,
                                          std::uint64_t max_cycles = 100'000) {
    std::vector<axi::AxiR> beats;
    bool pushed = false;
    bool done = false;
    const bool ok = kernel().run_until(
        [&] {
          if (!pushed && port().ar.can_push()) {
            port().ar.push(ar);
            pushed = true;
          }
          while (port().r.can_pop()) {
            beats.push_back(port().r.pop());
            if (beats.back().last) done = true;
          }
          return done;
        },
        max_cycles);
    assert(ok);
    (void)ok;
    return beats;
  }

  /// Issues one write burst whose beats are produced by `make_beat(i)`;
  /// waits for B.
  template <typename MakeBeat>
  void write_burst_beats(const axi::AxiAw& aw, MakeBeat&& make_beat,
                         std::uint64_t max_cycles = 100'000) {
    bool aw_pushed = false;
    unsigned sent = 0;
    bool done = false;
    const bool ok = kernel().run_until(
        [&] {
          if (!aw_pushed && port().aw.can_push()) {
            port().aw.push(aw);
            aw_pushed = true;
          }
          if (aw_pushed && sent < aw.beats() && port().w.can_push()) {
            axi::AxiW beat = make_beat(sent);
            beat.last = sent + 1 == aw.beats();
            port().w.push(beat);
            ++sent;
          }
          if (port().b.can_pop()) {
            port().b.pop();
            done = true;
          }
          return done;
        },
        max_cycles);
    assert(ok);
    (void)ok;
  }

  /// Issues one write burst from packed payload bytes; waits for B.
  void write_burst(const axi::AxiAw& aw, const std::vector<std::uint8_t>& data,
                   std::uint64_t max_cycles = 100'000) {
    const unsigned epb = cfg_.bus_bytes / aw.beat_bytes();
    const unsigned bytes_per_beat = epb * aw.beat_bytes();
    bool aw_pushed = false;
    std::size_t sent = 0;
    unsigned beat_idx = 0;
    bool done = false;
    const bool ok = kernel().run_until(
        [&] {
          if (!aw_pushed && port().aw.can_push()) {
            port().aw.push(aw);
            aw_pushed = true;
          }
          if (aw_pushed && sent < data.size() && port().w.can_push()) {
            axi::AxiW beat;
            const std::size_t n =
                std::min<std::size_t>(bytes_per_beat, data.size() - sent);
            for (std::size_t i = 0; i < n; ++i) {
              beat.data[i] = data[sent + i];
            }
            beat.strb = axi::strb_mask(0, static_cast<unsigned>(n));
            beat.useful_bytes = static_cast<std::uint16_t>(n);
            sent += n;
            ++beat_idx;
            beat.last = beat_idx == aw.beats();
            port().w.push(beat);
          }
          if (port().b.can_pop()) {
            port().b.pop();
            done = true;
          }
          return done;
        },
        max_cycles);
    assert(ok);
    (void)ok;
  }

 private:
  AdapterHarnessConfig cfg_;
  sys::MasterId tb_ = 0;
  std::unique_ptr<sys::System> system_;
};

}  // namespace axipack::testing
