// SweepRunner: a thread pool over independent simulations.
//
// Every figure-level sweep (fig3b-fig3e, the Fig. 5 sensitivity surfaces,
// headline_summary) is N independent (system, workload) points; each point
// builds its own Kernel/System/BackingStore, so points share no mutable
// state and parallelize trivially. SweepRunner::run_indexed runs such
// points across worker threads.
//
// Thread-safety contract: a job must not touch global mutable state. The
// process-wide ScenarioRegistry is initialized before the workers start and
// only read afterwards.
#pragma once

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <optional>
#include <thread>
#include <vector>

namespace axipack::sys {

class SweepRunner {
 public:
  /// `threads` = 0 picks the default: the AXIPACK_THREADS environment
  /// variable if set, else std::thread::hardware_concurrency().
  explicit SweepRunner(unsigned threads = 0)
      : threads_(threads != 0 ? threads : default_threads()) {}

  unsigned threads() const { return threads_; }

  /// Parses an AXIPACK_THREADS-style value: a plain positive decimal
  /// integer (optional surrounding whitespace). Disengaged for anything
  /// else — empty, zero, negative, non-numeric, trailing garbage, or an
  /// implausibly large count.
  static std::optional<unsigned> parse_threads(const char* text) {
    if (text == nullptr) return std::nullopt;
    while (*text == ' ' || *text == '\t') ++text;
    if (*text < '0' || *text > '9') return std::nullopt;
    constexpr unsigned long kMaxThreads = 65'536;
    unsigned long value = 0;
    while (*text >= '0' && *text <= '9') {
      value = value * 10 + static_cast<unsigned long>(*text - '0');
      if (value > kMaxThreads) return std::nullopt;
      ++text;
    }
    while (*text == ' ' || *text == '\t') ++text;
    if (*text != '\0' || value == 0) return std::nullopt;
    return static_cast<unsigned>(value);
  }

  /// Hardware/environment default worker count (>= 1). A set-but-invalid
  /// AXIPACK_THREADS is a config error, not a hint: silently falling back
  /// to hardware_concurrency() would run a sweep at the wrong width, so
  /// fail loudly instead.
  static unsigned default_threads() {
    if (const char* env = std::getenv("AXIPACK_THREADS")) {
      const std::optional<unsigned> n = parse_threads(env);
      if (!n) {
        std::fprintf(stderr,
                     "AXIPACK_THREADS=\"%s\" is not a valid worker count; "
                     "expected a positive integer (e.g. AXIPACK_THREADS=4)\n",
                     env);
        std::abort();
      }
      return *n;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
  }

  /// Invokes `body(i)` for i in [0, n) on the pool. Rethrows the first
  /// exception (the remaining indices still run).
  void run_indexed(std::size_t n,
                   const std::function<void(std::size_t)>& body) const {
    if (n == 0) return;
    const unsigned workers =
        static_cast<unsigned>(n < threads_ ? n : threads_);
    if (workers <= 1) {
      for (std::size_t i = 0; i < n; ++i) body(i);
      return;
    }
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::vector<std::thread> pool;
    pool.reserve(workers);
    const auto worker = [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= n) return;
        try {
          body(i);
        } catch (...) {
          if (!failed.exchange(true)) error = std::current_exception();
        }
      }
    };
    for (unsigned t = 0; t < workers; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
    if (failed.load()) std::rethrow_exception(error);
  }

 private:
  unsigned threads_;
};

}  // namespace axipack::sys
