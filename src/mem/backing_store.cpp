#include "mem/backing_store.hpp"

#include <cassert>
#include <cstdio>
#include <cstring>

#include "util/bits.hpp"

namespace axipack::mem {

BackingStore::BackingStore(std::uint64_t base, std::uint64_t size)
    : base_(base),
      next_(base),
      size_(size),
      bytes_(static_cast<std::uint8_t*>(std::calloc(size, 1))) {
  if (bytes_ == nullptr) {
    std::fprintf(stderr, "BackingStore: cannot allocate %llu bytes\n",
                 static_cast<unsigned long long>(size));
    std::abort();
  }
}

bool BackingStore::contains(std::uint64_t addr, std::uint64_t n) const {
  return addr >= base_ && addr + n <= base_ + size_;
}

void BackingStore::write(std::uint64_t addr, const void* src,
                         std::uint64_t n) {
  assert(contains(addr, n));
  std::memcpy(data() + (addr - base_), src, n);
  if (host_write_hook_) host_write_hook_(addr, n);
}

void BackingStore::read(std::uint64_t addr, void* dst, std::uint64_t n) const {
  assert(contains(addr, n));
  std::memcpy(dst, data() + (addr - base_), n);
}

std::uint32_t BackingStore::read_u32(std::uint64_t addr) const {
  std::uint32_t v;
  read(addr, &v, sizeof v);
  return v;
}

void BackingStore::write_u32(std::uint64_t addr, std::uint32_t value) {
  write(addr, &value, sizeof value);
}

float BackingStore::read_f32(std::uint64_t addr) const {
  float v;
  read(addr, &v, sizeof v);
  return v;
}

void BackingStore::write_f32(std::uint64_t addr, float value) {
  write(addr, &value, sizeof value);
}

void BackingStore::write_word(std::uint64_t addr, std::uint32_t wdata,
                              std::uint8_t strb) {
  assert(addr % 4 == 0);
  assert(contains(addr, 4));
  auto* p = data() + (addr - base_);
  for (unsigned i = 0; i < 4; ++i) {
    if (strb & (1u << i)) p[i] = static_cast<std::uint8_t>(wdata >> (8 * i));
  }
}

std::uint64_t BackingStore::alloc(std::uint64_t n, std::uint64_t align) {
  next_ = util::round_up(next_, align);
  const std::uint64_t addr = next_;
  assert(contains(addr, n) && "backing store exhausted");
  next_ += n;
  return addr;
}

}  // namespace axipack::mem
