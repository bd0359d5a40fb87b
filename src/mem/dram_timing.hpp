// DRAM timing parameters and address decomposition.
//
// The DRAM memory (MemoryKind::dram) models one channel of off-chip DRAM
// behind the word-port interface: bank groups x banks, each with a row
// buffer, served under the JEDEC-style core timing constraints below. All
// latencies are in fabric clock cycles; the defaults approximate a
// DDR4-2400-like part seen from a 1 GHz fabric (scaled, not cycle-exact to
// any datasheet — the model is about *relative* row-hit/row-miss/refresh
// behaviour, which is what the packed-bus sensitivity studies sweep).
#pragma once

#include <cstdint>

#include "sim/kernel.hpp"

namespace axipack::mem {

/// How word addresses spread across banks (the classic DRAM controller
/// mapping-policy choice):
///
///  * row_interleaved  — consecutive words fill one bank's row before
///    moving to the next bank ([row | bank | column] from the top).
///    Sequential streams maximize row hits but serialize on one bank.
///  * bank_interleaved — consecutive words rotate across banks
///    ([row | column | bank]). Sequential streams engage every bank in
///    parallel, but power-of-two strides collapse onto one bank — the
///    DRAM analogue of the SRAM stride pathology the paper's 17-bank
///    memory avoids (Fig. 5b), except DRAM bank counts are powers of two.
///  * permuted        — bank_interleaved with XOR bank folding
///    (permutation-based interleaving, the standard controller fix):
///    consecutive words still cover all banks, while power-of-two strides
///    spread across banks instead of landing on one. Row locality is
///    span-based, identical to bank_interleaved.
enum class DramMapping : std::uint8_t {
  row_interleaved,
  bank_interleaved,
  permuted,
};

const char* dram_mapping_name(DramMapping m);

/// Core timing set of the DRAM model (see MemoryBackendConfig::dram).
struct DramTimingConfig {
  // Bank organization. The grouping only determines the total bank count
  // (num_banks() = bank_groups * banks_per_group) and the address layout;
  // group-level command spacing (tCCD_S vs tCCD_L) is not modeled — tCCD
  // below applies per bank.
  unsigned bank_groups = 4;      ///< bank groups per channel
  unsigned banks_per_group = 4;  ///< banks per group (16 banks total)
  unsigned row_words = 512;      ///< row-buffer size in 32-bit words (2 KiB)

  sim::Cycle tRCD = 10;   ///< activate -> first column command
  sim::Cycle tCAS = 10;   ///< column read/write -> data (CL)
  sim::Cycle tRP = 10;    ///< precharge -> next activate
  sim::Cycle tRAS = 24;   ///< activate -> earliest precharge
  /// Column-to-column spacing within one bank. 1 = word-granularity
  /// streaming from the open row (burst-amortized command spacing, matching
  /// the SRAM banks' one-word-per-cycle rate); raise it to model stricter
  /// command-bus spacing.
  sim::Cycle tCCD = 1;
  sim::Cycle tREFI = 4680;  ///< refresh interval (all-bank); 0 disables
  sim::Cycle tRFC = 210;    ///< refresh duration (banks unavailable)

  /// permuted engages all banks on wide sequential beats *and* survives
  /// power-of-two strides (the sensible controller default for a wide
  /// near-memory bus); bank_interleaved is the plain rotation, and
  /// row_interleaved maximizes per-bank row locality instead.
  DramMapping mapping = DramMapping::permuted;

  unsigned num_banks() const { return bank_groups * banks_per_group; }

  /// Data latency of a column access to the open row.
  sim::Cycle row_hit_latency() const { return tCAS; }
  /// Data latency when a different row is open (precharge + activate).
  sim::Cycle row_miss_latency() const { return tRP + tRCD + tCAS; }
  /// Data latency on a precharged (closed) bank, e.g. after refresh.
  sim::Cycle closed_latency() const { return tRCD + tCAS; }
};

/// Decomposes word indices into (bank, row, column) under a mapping policy.
/// Row identifiers are globally unique per bank (row_of is what the row
/// buffer compares), columns index words within the row buffer.
///
/// Multi-channel systems hand each channel's DRAM the *absolute* word index
/// even though the channel only owns every channels-th interleave granule
/// (the router's XOR-folded selection). Decomposing the sparse index
/// directly would dilute row locality channels-fold, so the map first
/// *compacts* the granule index: the log2(channels) channel-select bits are
/// squeezed out, making this channel's address space dense again. The
/// XOR fold picks exactly one granule per channel out of every aligned
/// block of `channels` granules, so dropping the low granule-index bits is
/// injective per channel and consecutive owned granules stay consecutive —
/// the channel interleave composes with (instead of fighting) all three
/// bank mappings. channels = 1 is the identity.
class DramAddressMap {
 public:
  DramAddressMap(unsigned num_banks, unsigned row_words, DramMapping mapping,
                 unsigned channels = 1, std::uint64_t granule_words = 1)
      : banks_(num_banks), row_words_(row_words), mapping_(mapping) {
    while ((1u << shift_) < banks_) ++shift_;  // ceil(log2(banks))
    while ((1u << ch_shift_) < channels) ++ch_shift_;
    while ((std::uint64_t{1} << gran_shift_) < granule_words) ++gran_shift_;
  }

  unsigned num_banks() const { return banks_; }
  unsigned row_words() const { return row_words_; }
  DramMapping mapping() const { return mapping_; }

  /// Squeezes the channel-select bits out of a (channel-sparse) absolute
  /// word index; identity for single-channel maps. See the class comment.
  std::uint64_t compact(std::uint64_t word_index) const {
    if (ch_shift_ == 0) return word_index;
    return ((word_index >> (gran_shift_ + ch_shift_)) << gran_shift_) |
           (word_index & ((std::uint64_t{1} << gran_shift_) - 1));
  }

  unsigned bank_of(std::uint64_t sparse_index) const {
    const std::uint64_t word_index = compact(sparse_index);
    switch (mapping_) {
      case DramMapping::row_interleaved:
        return static_cast<unsigned>((word_index / row_words_) % banks_);
      case DramMapping::bank_interleaved:
        return static_cast<unsigned>(word_index % banks_);
      case DramMapping::permuted: {
        // XOR bank folding: fold shifted copies of the word index into the
        // bank selector so *every* power-of-two stride lands in some fold
        // term and spreads across banks (plain bank_interleaved collapses
        // them all onto one bank). Within an aligned banks_-word block the
        // higher terms are constant, so wide sequential beats still cover
        // every bank exactly once (for power-of-two bank counts).
        std::uint64_t h = word_index;
        h ^= word_index >> shift_;
        h ^= word_index >> (2 * shift_);
        h ^= word_index >> (3 * shift_);
        h ^= word_index >> (4 * shift_);
        h ^= word_index >> (5 * shift_);
        return static_cast<unsigned>(h % banks_);
      }
    }
    return 0;  // unreachable
  }
  std::uint64_t row_of(std::uint64_t sparse_index) const {
    const std::uint64_t word_index = compact(sparse_index);
    // For both interleaved policies (plain and permuted) the row is the
    // span of banks_ * row_words_ consecutive words the word falls in.
    return mapping_ == DramMapping::row_interleaved
               ? word_index / (static_cast<std::uint64_t>(row_words_) * banks_)
               : (word_index / banks_) / row_words_;
  }
  unsigned column_of(std::uint64_t sparse_index) const {
    const std::uint64_t word_index = compact(sparse_index);
    return mapping_ == DramMapping::row_interleaved
               ? static_cast<unsigned>(word_index % row_words_)
               : static_cast<unsigned>((word_index / banks_) % row_words_);
  }

 private:
  unsigned banks_;
  unsigned row_words_;
  DramMapping mapping_;
  unsigned shift_ = 1;      ///< fold distance of the permuted policy
  unsigned ch_shift_ = 0;   ///< log2(channels); 0 = single channel
  unsigned gran_shift_ = 0; ///< log2(interleave granule) in words
};

}  // namespace axipack::mem
