// Shared CLI + emission layer for the figure-reproduction benches.
//
// Every bench binary declares its grids as ExperimentSpecs and runs them
// through a BenchContext, which applies the common command line:
//
//   --quick           shrink workloads for smoke runs (ctest uses it)
//   --csv             emit machine-readable CSV instead of aligned tables
//   --json=PATH       write all result sets as one JSON artifact
//   --filter=SUBSTR   keep only grid points with a matching axis label
//   --threads=N       sweep thread-pool width (N >= 1; 1 = serial)
//
// Unknown flags and bad values are rejected with a usage message and a
// non-zero exit.
#pragma once

#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "systems/experiment.hpp"
#include "systems/sweep.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace axipack::bench {

/// Prints the standard figure header.
inline void figure_header(const char* fig, const char* title) {
  std::printf("==========================================================\n");
  std::printf("%s — %s\n", fig, title);
  std::printf("==========================================================\n");
}

struct BenchOptions {
  bool quick = false;
  bool csv = false;
  unsigned threads = 0;  ///< 0: the sweep's default width
  std::string json_path;
  std::string filter;
};

/// Per-invocation state the emit() functions run against: the parsed
/// options plus the result sets collected for the --json artifact.
class BenchContext {
 public:
  explicit BenchContext(std::string bench_name, BenchOptions opts)
      : bench_name_(std::move(bench_name)), opts_(std::move(opts)) {}

  const BenchOptions& opts() const { return opts_; }
  bool quick() const { return opts_.quick; }

  /// Applies the CLI options (quick/filter/threads) to the spec, runs it,
  /// prints the result (aligned table, or CSV under --csv) and registers
  /// it for the --json artifact. The returned reference stays valid for
  /// the whole emit() call.
  const sys::ResultSet& run(sys::ExperimentSpec spec) {
    return report(prepare(spec).run());
  }

  /// Applies the CLI options to a spec without running it — for benches
  /// that run the spec themselves, enrich the rows with derived metrics
  /// (mutable_rows()) and then report() the set.
  sys::ExperimentSpec& prepare(sys::ExperimentSpec& spec) {
    if (opts_.quick) spec.quick(true);
    if (!opts_.filter.empty()) spec.filter(opts_.filter);
    if (opts_.threads != 0) spec.threads(opts_.threads);
    return spec;
  }

  /// Registers an already-run ResultSet (for benches that post-process
  /// before printing) and prints it like run() does.
  const sys::ResultSet& report(sys::ResultSet set) {
    if (opts_.csv) {
      std::cout << "experiment: " << set.name() << '\n';
      set.write_csv(std::cout);
    } else {
      set.print_table(std::cout);
    }
    results_.push_back(std::move(set));
    return results_.back();
  }

  /// Writes the collected result sets as one JSON artifact. Returns false
  /// (after complaining on stderr) when the file cannot be written.
  bool write_json_artifact() const {
    if (opts_.json_path.empty()) return true;
    util::JsonWriter w;
    w.begin_object();
    w.key("bench").value(bench_name_);
    w.key("quick").value(opts_.quick);
    w.key("experiments").begin_array();
    for (const sys::ResultSet& set : results_) set.write_json(w);
    w.end_array();
    w.end_object();
    std::ofstream out(opts_.json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opts_.json_path.c_str());
      return false;
    }
    out << w.str() << '\n';
    std::printf("wrote %s\n", opts_.json_path.c_str());
    return true;
  }

 private:
  std::string bench_name_;
  BenchOptions opts_;
  std::deque<sys::ResultSet> results_;  ///< deque: stable references
};

inline void print_usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--quick] [--csv] [--json=PATH] "
               "[--filter=SUBSTR] [--threads=N]\n",
               argv0);
}

/// Main-like entry: parses the common CLI, runs `emit(ctx)` (which prints
/// the figure tables and registers result sets), writes the --json
/// artifact. Unknown flags and bad values are a usage error (non-zero
/// exit).
inline int run_bench_main(int argc, char** argv,
                          void (*emit)(BenchContext&)) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--quick") == 0) {
      opts.quick = true;
    } else if (std::strcmp(arg, "--csv") == 0) {
      opts.csv = true;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      opts.json_path = arg + 7;
    } else if (std::strncmp(arg, "--filter=", 9) == 0) {
      opts.filter = arg + 9;
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      const std::optional<unsigned> n =
          sys::SweepRunner::parse_threads(arg + 10);
      if (!n) {
        std::fprintf(stderr, "%s: bad --threads value \"%s\"\n", argv[0],
                     arg + 10);
        print_usage(argv[0]);
        return 2;
      }
      opts.threads = *n;
    } else if (std::strcmp(arg, "--help") == 0 ||
               std::strcmp(arg, "-h") == 0) {
      print_usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown flag \"%s\"\n", argv[0], arg);
      print_usage(argv[0]);
      return 2;
    }
  }

  // Bench name = binary basename (the figure the binary reproduces).
  std::string name = argv[0];
  const std::size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);

  BenchContext ctx(name, opts);
  emit(ctx);
  return ctx.write_json_artifact() ? 0 : 1;
}

}  // namespace axipack::bench
