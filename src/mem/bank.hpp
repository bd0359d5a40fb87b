// Per-bank bookkeeping: interleaved address mapping and access statistics.
//
// Banks are W-bit single-port SRAMs; the crossbar grants at most one access
// per bank per cycle, so the bank model itself is pure bookkeeping (the
// fixed read latency is applied on the port response FIFO).
#pragma once

#include <cstdint>

#include "util/bits.hpp"

namespace axipack::mem {

/// Maps word indices onto `m` interleaved banks. Power-of-two counts use
/// mask/shift; other (e.g. prime) counts need modulo/divide units — this
/// distinction is what Fig. 5c's crossbar-area comparison is about, and the
/// mapping itself is what makes prime counts conflict-robust in Fig. 5b.
class BankMap {
 public:
  explicit BankMap(unsigned num_banks)
      : m_(num_banks), pow2_(util::is_pow2(num_banks)) {}

  unsigned num_banks() const { return m_; }
  bool is_pow2() const { return pow2_; }

  unsigned bank_of(std::uint64_t word_index) const {
    return pow2_ ? static_cast<unsigned>(word_index & (m_ - 1))
                 : static_cast<unsigned>(word_index % m_);
  }
  std::uint64_t row_of(std::uint64_t word_index) const {
    return pow2_ ? (word_index >> util::log2_exact(m_)) : (word_index / m_);
  }

 private:
  unsigned m_;
  bool pow2_;
};

}  // namespace axipack::mem
