// Declarative experiment layer: the paper's evaluation expressed as grids.
//
// Every figure-level evaluation is a Cartesian grid — (system kind × bus
// width × kernel × dataflow × timing knobs) — with a designated baseline
// column, derived metrics (speedup-vs-baseline, read utilization, row-hit
// ratio) and a table to print. ExperimentSpec captures that shape once:
//
//   auto results =
//       ExperimentSpec("fig3b")
//           .kernels_axis({wl::KernelKind::gemv})
//           .axis("dataflow", {AxisValue::patch("row-wise", set_rowwise),
//                              AxisValue::patch("col-wise", set_colwise)})
//           .systems_axis({SystemKind::base, SystemKind::pack,
//                          SystemKind::ideal})
//           .baseline("system", "base")
//           .run();
//   results.print_table(std::cout);   // or write_csv / to_json
//
// Expansion walks the axes outermost-first (first axis slowest), plans
// each point's workload with plan_workload against the point's resolved
// builder and applies the axis config patches in axis order. run() then
// runs every point on the SweepRunner thread pool — by default
// run_workload on the point's scenario builder with its builder patches
// applied. This is the one way to run a set of points: non-workload grids
// (the sensitivity harness, the area/energy models) plug in a custom point
// runner and flow through the same ResultSet emitters.
#pragma once

#include <functional>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "systems/runner.hpp"

namespace axipack::util {
class JsonWriter;
}

namespace axipack::sys {

/// Mutable description of one grid point while the axes are applied, in
/// axis order. An axis value's `shape` hook edits this draft; later axes
/// see earlier axes' edits, so a late axis can compose (e.g. build a
/// parametric scenario name from the kind and knobs set before it).
struct PointDraft {
  SystemKind kind = SystemKind::pack;
  unsigned bus_bits = 256;
  unsigned banks = 17;
  /// Non-empty overrides the "{kind}-{bus}-{banks}b" name derived from the
  /// fields above.
  std::string scenario;
  wl::KernelKind kernel = wl::KernelKind::gemv;
  /// Free-form numeric knobs for later shapes and custom runners.
  std::map<std::string, double> params;
  /// Builder tweaks applied in order after the scenario resolves —
  /// anything the scenario-name grammar cannot express (timing structs,
  /// adapter tuning).
  std::vector<std::function<void(SystemBuilder&)>> builder_patches;

  /// Parameter set by an earlier axis (aborts with the key name when the
  /// axes are ordered so it is not set yet — use this, not params.at(),
  /// in shape hooks that compose across axes).
  double param(const std::string& key) const;
};

/// One value of an axis: the label that keys tables/CSV/JSON plus its
/// effect on the grid point.
struct AxisValue {
  std::string label;
  /// Applied while drafting the point (axis order, before planning).
  std::function<void(PointDraft&)> shape;
  /// Applied to the planned WorkloadConfig (axis order, after planning) —
  /// patches always override plan_workload's choices.
  std::function<void(wl::WorkloadConfig&)> patch;

  // ---- common value kinds ----------------------------------------------
  /// Selects a scenario by name.
  static AxisValue scenario(std::string name);
  /// Selects a system kind ("base"/"pack"/"ideal" label); the scenario
  /// stays the parametric "{kind}-{bus}-{banks}b" family.
  static AxisValue system(SystemKind kind);
  /// Selects the kernel.
  static AxisValue kernel(wl::KernelKind k);
  /// Pins the gemv/trmv dataflow ("row-wise"/"col-wise" labels),
  /// overriding plan_workload's backend-aware choice.
  static AxisValue dataflow(wl::Dataflow df);
  /// Sets the fabric bus width (label = the bit count).
  static AxisValue bus_bits(unsigned bits);
  /// Sets a numeric parameter (label = its decimal rendering).
  static AxisValue param(const std::string& key, double value);
  /// Labelled WorkloadConfig patch.
  static AxisValue config(std::string label,
                          std::function<void(wl::WorkloadConfig&)> patch);
  /// Labelled PointDraft shape hook.
  static AxisValue shaped(std::string label,
                          std::function<void(PointDraft&)> shape);
};

struct Axis {
  std::string name;
  std::vector<AxisValue> values;
};

/// One expanded, run-ready grid point.
struct GridPoint {
  /// (axis name, value label) in axis order — the point's key.
  std::vector<std::pair<std::string, std::string>> coords;
  std::string scenario;
  wl::KernelKind kernel = wl::KernelKind::gemv;
  wl::WorkloadConfig cfg;  ///< planned, patched (and shrunk when quick)
  std::map<std::string, double> params;
  bool quick = false;  ///< custom runners should shrink their work too
  std::vector<std::function<void(SystemBuilder&)>> builder_patches;

  /// Label of `axis` (aborts if the axis does not exist).
  const std::string& coord(const std::string& axis) const;
  /// Numeric parameter set via AxisValue::param (aborts if missing).
  double param(const std::string& key) const;
};

/// What running one grid point produced. Custom runners fill `metrics`
/// with whatever they measure (kGE, utilization averages, ...); the
/// default runner fills `run` from the simulation.
struct PointResult {
  RunResult run;
  std::map<std::string, double> metrics;
};

/// One row of a ResultSet: the point, its measurements, and the derived
/// baseline join.
struct ResultRow {
  GridPoint point;
  RunResult run;
  std::map<std::string, double> metrics;
  /// cycles(baseline partner) / cycles(this row); disengaged when no
  /// baseline is set, the partner was filtered out, or either side ran
  /// zero cycles.
  std::optional<double> speedup;

  const std::string& coord(const std::string& axis) const {
    return point.coord(axis);
  }
};

/// Results keyed by axis values, with paper-style table, CSV and JSON
/// emitters.
class ResultSet {
 public:
  const std::string& name() const { return name_; }
  const std::vector<ResultRow>& rows() const { return rows_; }
  std::size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// True when every simulated row verified (rows from custom runners
  /// that report no simulation are skipped).
  bool all_correct() const;

  /// First row matching all the given (axis, label) pairs, or nullptr.
  const ResultRow* find(
      std::initializer_list<std::pair<std::string, std::string>> key) const;

  /// Mutable row access for derived-metric enrichment (power/energy models
  /// computed from the runs) before the set is printed or serialized.
  std::vector<ResultRow>& mutable_rows() { return rows_; }

  /// Paper-style aligned table. Axis columns always print; cycles /
  /// R-util / ok only when any row simulated; speedup only when a
  /// baseline was set; row-hit% only when any row touched a dram backend;
  /// custom metrics in first-appearance order.
  void print_table(std::ostream& os) const;

  /// Machine-readable flat CSV (full column set, header row first).
  void write_csv(std::ostream& os) const;

  /// Appends this result set as one JSON object (see to_json for shape).
  void write_json(util::JsonWriter& w) const;

  /// Standalone JSON document:
  ///   {"experiment": ..., "axes": [{"name":..., "values":[...]}, ...],
  ///    "baseline": {"axis":..., "value":...} | null,
  ///    "points": [{"coords": {axis: label, ...}, "scenario":...,
  ///                "kernel":..., "speedup":..., "metrics":{...},
  ///                "run": {...RunResult...}}, ...]}
  std::string to_json() const;

 private:
  friend class ExperimentSpec;
  std::string name_;
  std::vector<Axis> axes_;  ///< value labels as expanded (for the JSON axes)
  std::optional<std::pair<std::string, std::string>> baseline_;
  std::vector<ResultRow> rows_;
  bool has_runs_ = false;      ///< any row carries a real simulation
  bool has_row_stats_ = false; ///< any row touched a dram backend
};

class ExperimentSpec {
 public:
  explicit ExperimentSpec(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Appends an axis (first axis added = outermost loop).
  ExperimentSpec& axis(std::string name, std::vector<AxisValue> values);

  // ---- convenience axes ------------------------------------------------
  /// "system" axis over SoC kinds (labels "base"/"pack"/"ideal").
  ExperimentSpec& systems_axis(std::vector<SystemKind> kinds);
  /// Scenario-name axis (labels = the names).
  ExperimentSpec& scenarios_axis(std::string name,
                                 std::vector<std::string> scenarios);
  /// "kernel" axis (labels = kernel names).
  ExperimentSpec& kernels_axis(std::vector<wl::KernelKind> kernels);
  /// Numeric-parameter axis (labels = decimal renderings).
  ExperimentSpec& param_axis(std::string name, const std::string& key,
                             std::vector<double> values);

  /// Spec-level base patch, applied to every point's planned config
  /// before the axis patches (grid-wide sizing like "n = 192").
  ExperimentSpec& configure(std::function<void(wl::WorkloadConfig&)> patch);

  /// Designates the baseline value on one axis; every row gains
  /// speedup = cycles(partner with this value) / cycles(row).
  ExperimentSpec& baseline(std::string axis, std::string label);

  /// Shrinks every point's workload (n<=48, nnz<=8, 1 iteration) and sets
  /// GridPoint::quick for custom runners — the bench smoke mode.
  ExperimentSpec& quick(bool on = true);

  /// Keeps only points with a coord label containing `substring`
  /// (baseline partners of kept points survive too). Empty = keep all.
  ExperimentSpec& filter(std::string substring);

  /// Sweep thread-pool width (0 = default, 1 = serial).
  ExperimentSpec& threads(unsigned n);

  /// Replaces the default simulate-and-verify runner — the hook that lets
  /// sensitivity/area/energy grids reuse the expansion and emitters.
  ExperimentSpec& runner(std::function<PointResult(const GridPoint&)> fn);

  /// Expands the grid (filter applied, baseline partners retained) in
  /// row-major order, first axis outermost.
  std::vector<GridPoint> expand() const;

  /// Expands, runs every point on the SweepRunner pool, joins baselines.
  ResultSet run() const;

 private:
  std::string name_;
  std::vector<Axis> axes_;
  std::optional<std::pair<std::string, std::string>> baseline_;
  std::function<void(wl::WorkloadConfig&)> configure_;
  bool quick_ = false;
  std::string filter_;
  unsigned threads_ = 0;
  std::function<PointResult(const GridPoint&)> runner_;
};

}  // namespace axipack::sys
