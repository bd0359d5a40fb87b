// Functional byte-addressable memory image backing the timing models.
//
// All simulated data lives here: workload generators write inputs through
// the host interface, the banked memory performs its word accesses against
// it, and golden checks read results back. A simple bump allocator carves
// out aligned regions for workload buffers.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>

namespace axipack::mem {

class BackingStore {
 public:
  /// Memory window [base, base+size). `base` is typically 0x8000'0000.
  /// The image is allocated zeroed but lazily (calloc), so building a
  /// system with a large window does not touch every page up front — this
  /// keeps System construction cheap for parallel sweeps.
  BackingStore(std::uint64_t base, std::uint64_t size);

  std::uint64_t base() const { return base_; }
  std::uint64_t size() const { return size_; }
  bool contains(std::uint64_t addr, std::uint64_t n = 1) const;

  // Host (zero-time) access, used by generators, golden checks and the
  // scalar-core functional model. Host writes bypass the fabric, so each
  // one is reported to the write hook, if set.
  void write(std::uint64_t addr, const void* src, std::uint64_t n);
  void read(std::uint64_t addr, void* dst, std::uint64_t n) const;

  std::uint32_t read_u32(std::uint64_t addr) const;
  void write_u32(std::uint64_t addr, std::uint32_t value);
  float read_f32(std::uint64_t addr) const;
  void write_f32(std::uint64_t addr, float value);

  /// Called with (addr, bytes) after every host write: the coherence hook
  /// for copies the timing models keep (see System's coalescer wiring).
  void set_host_write_hook(
      std::function<void(std::uint64_t, std::uint64_t)> fn) {
    host_write_hook_ = std::move(fn);
  }

  /// Word access with byte strobes (timing models use this).
  void write_word(std::uint64_t addr, std::uint32_t wdata, std::uint8_t strb);

  /// Bump-allocates `n` bytes aligned to `align`; never freed.
  std::uint64_t alloc(std::uint64_t n, std::uint64_t align = 64);

  /// Resets the allocator (contents are kept).
  void reset_alloc() { next_ = base_; }

 private:
  struct FreeDeleter {
    void operator()(std::uint8_t* p) const { std::free(p); }
  };

  std::uint8_t* data() { return bytes_.get(); }
  const std::uint8_t* data() const { return bytes_.get(); }

  std::uint64_t base_;
  std::uint64_t next_;
  std::uint64_t size_;
  std::unique_ptr<std::uint8_t[], FreeDeleter> bytes_;
  std::function<void(std::uint64_t, std::uint64_t)> host_write_hook_;
};

}  // namespace axipack::mem
