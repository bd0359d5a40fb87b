// Positional size arguments shared by the examples.
#pragma once

#include <array>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "systems/sweep.hpp"

namespace axipack::examples {

/// Reads argv[1..] as the example's sizes, in order; `sizes` holds the
/// defaults for the ones not given. Each size must be a positive decimal
/// integer up to 65536 (the AXIPACK_THREADS grammar); a malformed size or
/// an extra argument prints the usage line and exits 2.
template <std::size_t N>
std::array<unsigned, N> size_args(int argc, char** argv,
                                  std::array<unsigned, N> sizes,
                                  const char* usage) {
  for (int i = 1; i < argc; ++i) {
    const std::optional<unsigned> n =
        static_cast<std::size_t>(i) <= N
            ? sys::SweepRunner::parse_threads(argv[i])
            : std::nullopt;
    if (!n) {
      std::fprintf(stderr, "%s: bad argument \"%s\"\nusage: %s %s\n",
                   argv[0], argv[i], argv[0], usage);
      std::exit(2);
    }
    sizes[i - 1] = *n;
  }
  return sizes;
}

}  // namespace axipack::examples
