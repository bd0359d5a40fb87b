// Deterministic fault injection and master-side retry configuration.
//
// A FaultPlan is the single source of injected misbehaviour for one
// system: AXI links, the DRAM backend and the pack converters each hold a
// (possibly null) plan pointer and ask it, per data-path event, whether
// that event is faulted. Decisions are a pure hash of (seed, site,
// per-site event ordinal) — no global cycle state, no RNG stream shared
// across sites — so the fault schedule depends only on the traffic itself.
// The gated and naive kernels see identical traffic, hence identical
// faults, and stay cycle-identical with injection enabled; with no plan
// attached (or an all-zero config) every hook is a no-op and behaviour is
// bit- and cycle-identical to a build without this subsystem.
//
// Sites and fault kinds:
//   * link_r        — R beats crossing a monitored AxiLink: single-bit
//                     data flips (delivered with resp=SLVERR), burst
//                     truncation (an error beat with last set; the link
//                     discards the remainder of the real burst), and
//                     head-of-line stalls of a few cycles.
//   * dram_read     — reads granted by the DRAM scheduler: ECC-correctable
//                     (counted, data intact) or uncorrectable (poisoned
//                     data, error response).
//   * dram_write    — writes granted by the DRAM scheduler: the write is
//                     dropped and an error response returned, so memory is
//                     never silently corrupted — a retry simply rewrites.
//   * pack_strided / pack_indirect — packed R beats leaving the strided /
//                     indirect read converters: single-bit payload
//                     corruption, delivered with resp=SLVERR.
//
// Tests can pin exact faults with force(site, nth, kind) instead of (or on
// top of) the rate-driven schedule.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/kernel.hpp"

namespace axipack::sim {

/// Injection attach points (one independent event ordinal per site).
enum class FaultSite : std::uint32_t {
  link_r = 1,
  dram_read = 2,
  dram_write = 3,
  pack_strided = 4,
  pack_indirect = 5,
};

/// Outcome of one link R-beat query.
enum class LinkFault : std::uint8_t { none, flip, truncate, stall };

/// Per-event fault probabilities. All-zero (the default) disables every
/// site; rates are per data-path event (beat, grant), not per cycle.
struct FaultConfig {
  std::uint64_t seed = 1;
  double link_flip_rate = 0.0;      ///< R-beat single-bit flip (SLVERR)
  double link_truncate_rate = 0.0;  ///< R-burst truncation (SLVERR + last)
  double link_stall_rate = 0.0;     ///< R head-of-line stall
  Cycle link_stall_cycles = 6;      ///< length of an injected stall
  double dram_read_correctable_rate = 0.0;    ///< ECC corrects, data intact
  double dram_read_uncorrectable_rate = 0.0;  ///< poisoned data + SLVERR
  double dram_write_error_rate = 0.0;         ///< write dropped + SLVERR
  double pack_corrupt_rate = 0.0;   ///< packed-beat bit corruption (SLVERR)

  /// True when any site can fire (rate-driven; forced events inject even
  /// when this is false).
  bool any() const {
    return link_flip_rate > 0.0 || link_truncate_rate > 0.0 ||
           link_stall_rate > 0.0 || dram_read_correctable_rate > 0.0 ||
           dram_read_uncorrectable_rate > 0.0 ||
           dram_write_error_rate > 0.0 || pack_corrupt_rate > 0.0;
  }

  /// The default mixed-fault profile at `scale` times the base rates
  /// (scale 1.0 ~ a few faults per hundred thousand events: visible in
  /// every headline run, recoverable with a small retry budget).
  static FaultConfig defaults(double scale = 1.0) {
    FaultConfig f;
    f.link_flip_rate = 40e-6 * scale;
    f.link_truncate_rate = 10e-6 * scale;
    f.link_stall_rate = 20e-6 * scale;
    f.dram_read_correctable_rate = 40e-6 * scale;
    f.dram_read_uncorrectable_rate = 10e-6 * scale;
    f.dram_write_error_rate = 10e-6 * scale;
    f.pack_corrupt_rate = 20e-6 * scale;
    return f;
  }
};

/// Injection-side counters (what the plan actually fired).
struct FaultStats {
  std::uint64_t injected = 0;  ///< total faults fired, all sites
  std::uint64_t link_flips = 0;
  std::uint64_t link_truncations = 0;
  std::uint64_t link_stalls = 0;
  std::uint64_t dram_correctable = 0;    ///< ECC corrected in place
  std::uint64_t dram_uncorrectable = 0;
  std::uint64_t dram_write_errors = 0;
  std::uint64_t pack_corruptions = 0;
};

/// Master-side robustness knobs (vproc VLSU and the DMA engine).
struct RetryConfig {
  /// Total attempts per operation including the first (0 = error handling
  /// off: a detected fault fails the op immediately).
  unsigned max_attempts = 0;
  /// Watchdog: cycles without forward progress on an op with outstanding
  /// requests before it is aborted and retried (0 = no watchdog).
  Cycle timeout_cycles = 0;
  /// Backoff before re-issue, doubling per failed attempt.
  Cycle backoff = 16;
  /// Graceful degradation: after this many failed pack-path attempts the
  /// master trips a breaker and re-plans remaining pack ops in base
  /// (unpacked) mode (0 = breaker off).
  unsigned breaker_threshold = 0;

  bool enabled() const { return max_attempts > 0; }

  /// True once an operation with `attempts` failed attempts (or a fatal
  /// DECERR) is given up as failed instead of replayed.
  bool gives_up(unsigned attempts, bool fatal) const {
    return fatal || !enabled() || attempts >= max_attempts;
  }
  /// Backoff before the replay that follows failed attempt `attempts`
  /// (>= 1): `backoff`, doubling per attempt, capped at 2^16 times.
  Cycle backoff_after(unsigned attempts) const {
    return backoff << (attempts > 16 ? 16u : attempts - 1);
  }
  /// True when an operation with requests outstanding and no progress
  /// since `last_progress` has outlived the watchdog at cycle `now`.
  bool watchdog_expired(Cycle now, Cycle last_progress) const {
    return now >= watchdog_deadline(last_progress);
  }
  /// First cycle at which the watchdog expires with no progress since
  /// `last_progress` (kNeverCycle with the watchdog off).
  Cycle watchdog_deadline(Cycle last_progress) const {
    return enabled() && timeout_cycles != 0
               ? last_progress + timeout_cycles + 1
               : kNeverCycle;
  }
  /// True once `pack_fault_attempts` failed pack-path attempts trip the
  /// breaker.
  bool breaker_trips(std::uint64_t pack_fault_attempts) const {
    return breaker_threshold != 0 && pack_fault_attempts >= breaker_threshold;
  }
};

/// Master-side counters, aggregated into RunResult across masters.
struct RetryStats {
  std::uint64_t retries = 0;   ///< re-issued operations/transfers
  std::uint64_t timeouts = 0;  ///< watchdog expiries
  std::uint64_t failed_ops = 0;  ///< attempts exhausted (data unrecovered)
  bool degraded = false;         ///< breaker tripped, running in base mode

  bool operator==(const RetryStats&) const = default;
};

/// Deterministic seed-driven fault schedule (see file header).
class FaultPlan {
 public:
  explicit FaultPlan(const FaultConfig& cfg) : cfg_(cfg) {}

  const FaultConfig& config() const { return cfg_; }
  const FaultStats& stats() const { return stats_; }

  /// Pins fault `kind` onto the `nth` event (0-based) of `site`, overriding
  /// the rate schedule for that event. Kind encodes per site:
  ///   link_r: 1 = flip, 2 = truncate, 3 = stall
  ///   dram_read: 1 = correctable, 2 = uncorrectable
  ///   dram_write / pack_*: any nonzero value
  void force(FaultSite site, std::uint64_t nth, int kind) {
    forced_.push_back({site, nth, kind});
  }

  /// One R beat about to cross a link. On flip/truncate `*bit` is the data
  /// bit to corrupt; on stall `*stall_cycles` is the hold length.
  LinkFault next_link_r(Cycle* stall_cycles, unsigned* bit);

  /// One read granted by the DRAM scheduler; true = faulted, with
  /// `*correctable` distinguishing ECC-corrected from poisoned (for the
  /// latter `*bit` is the data bit to poison).
  bool next_dram_read(bool* correctable, unsigned* bit);

  /// One write granted by the DRAM scheduler; true = drop it and error.
  bool next_dram_write();

  /// One packed beat leaving a read converter; true = corrupt `*bit`.
  bool next_pack_beat(FaultSite site, unsigned* bit);

 private:
  struct Forced {
    FaultSite site;
    std::uint64_t nth;
    int kind;
  };

  /// splitmix64: the decision hash (statistically uniform, cheap).
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  std::uint64_t draw(FaultSite site, std::uint64_t ordinal,
                     std::uint64_t salt) const {
    return mix(cfg_.seed ^
               (static_cast<std::uint64_t>(site) * 0x9e3779b97f4a7c15ull) ^
               (ordinal * 0xc2b2ae3d27d4eb4full) ^ salt);
  }

  /// True iff the hash for (site, ordinal, salt) lands under `rate`.
  bool fires(FaultSite site, std::uint64_t ordinal, std::uint64_t salt,
             double rate) const {
    if (rate <= 0.0) return false;
    constexpr double k2_64 = 18446744073709551616.0;  // 2^64
    return static_cast<double>(draw(site, ordinal, salt)) < rate * k2_64;
  }

  /// Forced kind for this event, or 0.
  int forced_kind(FaultSite site, std::uint64_t ordinal) const {
    for (const Forced& f : forced_) {
      if (f.site == site && f.nth == ordinal) return f.kind;
    }
    return 0;
  }

  FaultConfig cfg_;
  FaultStats stats_;
  std::vector<Forced> forced_;
  std::uint64_t link_r_events_ = 0;
  std::uint64_t dram_read_events_ = 0;
  std::uint64_t dram_write_events_ = 0;
  std::uint64_t pack_strided_events_ = 0;
  std::uint64_t pack_indirect_events_ = 0;
};

}  // namespace axipack::sim
