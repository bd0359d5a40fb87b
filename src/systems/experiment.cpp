#include "systems/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>

#include "mem/backend.hpp"
#include "systems/sweep.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace axipack::sys {

namespace {

/// Compact decimal rendering for numeric axis labels and metric cells:
/// integers print without a fraction, everything else as %.4g.
std::string fmt_num(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

/// Row key for the baseline join: coord labels joined on a separator that
/// cannot appear in them.
std::string coord_key(
    const std::vector<std::pair<std::string, std::string>>& coords) {
  std::string key;
  for (const auto& [axis, label] : coords) {
    key += label;
    key += '\x1f';
  }
  return key;
}

std::string csv_cell(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// Metric keys in first-appearance order across rows (each row's map is
/// already alphabetical; cross-row order follows the first row that
/// reports the key).
std::vector<std::string> metric_keys(const std::vector<ResultRow>& rows) {
  std::vector<std::string> keys;
  for (const ResultRow& row : rows) {
    for (const auto& [key, value] : row.metrics) {
      (void)value;
      if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
        keys.push_back(key);
      }
    }
  }
  return keys;
}

/// The point's scenario builder with its builder patches applied, in order.
SystemBuilder point_builder(const GridPoint& point) {
  SystemBuilder builder = ScenarioRegistry::instance().builder(point.scenario);
  for (const auto& patch : point.builder_patches) patch(builder);
  return builder;
}

}  // namespace

// ----------------------------------------------------------- AxisValue

AxisValue AxisValue::scenario(std::string name) {
  AxisValue v;
  v.label = name;
  v.shape = [name = std::move(name)](PointDraft& d) { d.scenario = name; };
  return v;
}

AxisValue AxisValue::system(SystemKind kind) {
  AxisValue v;
  v.label = system_name(kind);
  v.shape = [kind](PointDraft& d) { d.kind = kind; };
  return v;
}

AxisValue AxisValue::kernel(wl::KernelKind k) {
  AxisValue v;
  v.label = wl::kernel_name(k);
  v.shape = [k](PointDraft& d) { d.kernel = k; };
  return v;
}

AxisValue AxisValue::dataflow(wl::Dataflow df) {
  AxisValue v;
  v.label = df == wl::Dataflow::rowwise ? "row-wise" : "col-wise";
  v.patch = [df](wl::WorkloadConfig& c) { c.dataflow = df; };
  return v;
}

AxisValue AxisValue::bus_bits(unsigned bits) {
  AxisValue v;
  v.label = std::to_string(bits);
  v.shape = [bits](PointDraft& d) { d.bus_bits = bits; };
  return v;
}

AxisValue AxisValue::param(const std::string& key, double value) {
  AxisValue v;
  v.label = fmt_num(value);
  v.shape = [key, value](PointDraft& d) { d.params[key] = value; };
  return v;
}

AxisValue AxisValue::config(std::string label,
                            std::function<void(wl::WorkloadConfig&)> patch) {
  AxisValue v;
  v.label = std::move(label);
  v.patch = std::move(patch);
  return v;
}

AxisValue AxisValue::shaped(std::string label,
                            std::function<void(PointDraft&)> shape) {
  AxisValue v;
  v.label = std::move(label);
  v.shape = std::move(shape);
  return v;
}

// ----------------------------------------------------------- PointDraft

double PointDraft::param(const std::string& key) const {
  const auto it = params.find(key);
  if (it == params.end()) {
    std::fprintf(stderr,
                 "PointDraft::param: no parameter \"%s\" — is the axis "
                 "that sets it ordered before the one reading it?\n",
                 key.c_str());
    std::abort();
  }
  return it->second;
}

// ----------------------------------------------------------- GridPoint

const std::string& GridPoint::coord(const std::string& axis) const {
  for (const auto& [name, label] : coords) {
    if (name == axis) return label;
  }
  std::fprintf(stderr, "GridPoint::coord: no axis \"%s\"\n", axis.c_str());
  std::abort();
}

double GridPoint::param(const std::string& key) const {
  const auto it = params.find(key);
  if (it == params.end()) {
    std::fprintf(stderr, "GridPoint::param: no parameter \"%s\"\n",
                 key.c_str());
    std::abort();
  }
  return it->second;
}

// ------------------------------------------------------ ExperimentSpec

ExperimentSpec& ExperimentSpec::axis(std::string name,
                                     std::vector<AxisValue> values) {
  if (values.empty()) {
    std::fprintf(stderr, "ExperimentSpec \"%s\": axis \"%s\" has no values\n",
                 name_.c_str(), name.c_str());
    std::abort();
  }
  axes_.push_back({std::move(name), std::move(values)});
  return *this;
}

ExperimentSpec& ExperimentSpec::systems_axis(std::vector<SystemKind> kinds) {
  std::vector<AxisValue> values;
  for (const SystemKind kind : kinds) values.push_back(AxisValue::system(kind));
  return axis("system", std::move(values));
}

ExperimentSpec& ExperimentSpec::scenarios_axis(
    std::string name, std::vector<std::string> scenarios) {
  std::vector<AxisValue> values;
  for (std::string& s : scenarios) {
    values.push_back(AxisValue::scenario(std::move(s)));
  }
  return axis(std::move(name), std::move(values));
}

ExperimentSpec& ExperimentSpec::kernels_axis(
    std::vector<wl::KernelKind> kernels) {
  std::vector<AxisValue> values;
  for (const wl::KernelKind k : kernels) values.push_back(AxisValue::kernel(k));
  return axis("kernel", std::move(values));
}

ExperimentSpec& ExperimentSpec::param_axis(std::string name,
                                           const std::string& key,
                                           std::vector<double> values) {
  std::vector<AxisValue> axis_values;
  for (const double v : values) axis_values.push_back(AxisValue::param(key, v));
  return axis(std::move(name), std::move(axis_values));
}

ExperimentSpec& ExperimentSpec::configure(
    std::function<void(wl::WorkloadConfig&)> patch) {
  configure_ = std::move(patch);
  return *this;
}

ExperimentSpec& ExperimentSpec::baseline(std::string axis,
                                         std::string label) {
  baseline_ = {std::move(axis), std::move(label)};
  return *this;
}

ExperimentSpec& ExperimentSpec::quick(bool on) {
  quick_ = on;
  return *this;
}

ExperimentSpec& ExperimentSpec::filter(std::string substring) {
  filter_ = std::move(substring);
  return *this;
}

ExperimentSpec& ExperimentSpec::threads(unsigned n) {
  threads_ = n;
  return *this;
}

ExperimentSpec& ExperimentSpec::runner(
    std::function<PointResult(const GridPoint&)> fn) {
  runner_ = std::move(fn);
  return *this;
}

std::vector<GridPoint> ExperimentSpec::expand() const {
  if (axes_.empty()) {
    std::fprintf(stderr, "ExperimentSpec \"%s\": no axes\n", name_.c_str());
    std::abort();
  }
  if (baseline_) {
    bool found = false;
    for (const Axis& axis : axes_) {
      if (axis.name != baseline_->first) continue;
      for (const AxisValue& v : axis.values) {
        found = found || v.label == baseline_->second;
      }
    }
    if (!found) {
      std::fprintf(stderr,
                   "ExperimentSpec \"%s\": baseline %s=%s names no axis "
                   "value\n",
                   name_.c_str(), baseline_->first.c_str(),
                   baseline_->second.c_str());
      std::abort();
    }
  }

  std::size_t total = 1;
  for (const Axis& axis : axes_) total *= axis.values.size();

  std::vector<GridPoint> points;
  points.reserve(total);
  std::vector<std::size_t> idx(axes_.size(), 0);
  for (std::size_t flat = 0; flat < total; ++flat) {
    // Decode row-major: first axis outermost (slowest).
    std::size_t rem = flat;
    for (std::size_t a = axes_.size(); a-- > 0;) {
      idx[a] = rem % axes_[a].values.size();
      rem /= axes_[a].values.size();
    }

    PointDraft draft;
    GridPoint point;
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      const AxisValue& value = axes_[a].values[idx[a]];
      point.coords.emplace_back(axes_[a].name, value.label);
      if (value.shape) value.shape(draft);
    }
    point.scenario = draft.scenario.empty()
                         ? scenario_name(draft.kind, draft.bus_bits,
                                         draft.banks)
                         : draft.scenario;
    point.kernel = draft.kernel;
    point.params = std::move(draft.params);
    point.builder_patches = std::move(draft.builder_patches);
    point.quick = quick_;

    // Plan against the point's actual builder — patches included, so the
    // planner sees the resolved memory backend.
    point.cfg = plan_workload(point.kernel, point_builder(point));
    if (configure_) configure_(point.cfg);
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      const AxisValue& value = axes_[a].values[idx[a]];
      if (value.patch) value.patch(point.cfg);
    }
    if (quick_) {
      point.cfg.n = std::min(point.cfg.n, 48u);
      point.cfg.nnz_per_row = std::min(point.cfg.nnz_per_row, 8u);
      point.cfg.iterations = std::min(point.cfg.iterations, 1u);
    }
    points.push_back(std::move(point));
  }

  if (filter_.empty()) return points;

  // Keep points with a matching coord label, plus the baseline partners
  // kept points join against.
  std::vector<bool> keep(points.size(), false);
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (const auto& [axis, label] : points[i].coords) {
      (void)axis;
      if (label.find(filter_) != std::string::npos) keep[i] = true;
    }
  }
  if (baseline_) {
    std::map<std::string, std::size_t> by_key;
    for (std::size_t i = 0; i < points.size(); ++i) {
      by_key[coord_key(points[i].coords)] = i;
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (!keep[i]) continue;
      auto partner = points[i].coords;
      for (auto& [axis, label] : partner) {
        if (axis == baseline_->first) label = baseline_->second;
      }
      const auto it = by_key.find(coord_key(partner));
      if (it != by_key.end()) keep[it->second] = true;
    }
  }
  std::vector<GridPoint> kept;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (keep[i]) kept.push_back(std::move(points[i]));
  }
  return kept;
}

ResultSet ExperimentSpec::run() const {
  const std::vector<GridPoint> points = expand();
  // Pre-warm the process-wide registry so worker threads only read.
  (void)ScenarioRegistry::instance();
  std::vector<PointResult> outcomes(points.size());
  if (runner_) {
    SweepRunner(threads_).run_indexed(points.size(), [&](std::size_t i) {
      outcomes[i] = runner_(points[i]);
    });
  } else {
    // Resolve every builder on this thread: registry access stays off the
    // pool.
    std::vector<SystemBuilder> builders;
    builders.reserve(points.size());
    for (const GridPoint& point : points) {
      builders.push_back(point_builder(point));
    }
    SweepRunner(threads_).run_indexed(points.size(), [&](std::size_t i) {
      outcomes[i].run = run_workload(builders[i], points[i].cfg);
    });
  }

  ResultSet set;
  set.name_ = name_;
  set.axes_ = axes_;
  set.baseline_ = baseline_;
  set.rows_.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    ResultRow row;
    row.point = points[i];
    row.run = std::move(outcomes[i].run);
    row.metrics = std::move(outcomes[i].metrics);
    set.has_runs_ = set.has_runs_ || row.run.cycles > 0;
    set.has_row_stats_ =
        set.has_row_stats_ || row.run.row_hits + row.run.row_misses > 0;
    set.rows_.push_back(std::move(row));
  }

  if (baseline_) {
    std::map<std::string, std::size_t> by_key;
    for (std::size_t i = 0; i < set.rows_.size(); ++i) {
      by_key[coord_key(set.rows_[i].point.coords)] = i;
    }
    for (ResultRow& row : set.rows_) {
      auto partner = row.point.coords;
      for (auto& [axis, label] : partner) {
        if (axis == baseline_->first) label = baseline_->second;
      }
      const auto it = by_key.find(coord_key(partner));
      if (it == by_key.end()) continue;
      const RunResult& base = set.rows_[it->second].run;
      if (base.cycles == 0 || row.run.cycles == 0) continue;
      row.speedup = static_cast<double>(base.cycles) /
                    static_cast<double>(row.run.cycles);
    }
  }
  return set;
}

// ------------------------------------------------------------ ResultSet

bool ResultSet::all_correct() const {
  for (const ResultRow& row : rows_) {
    if (row.run.cycles > 0 && !row.run.correct) return false;
  }
  return true;
}

const ResultRow* ResultSet::find(
    std::initializer_list<std::pair<std::string, std::string>> key) const {
  for (const ResultRow& row : rows_) {
    bool match = true;
    for (const auto& [axis, label] : key) {
      match = match && row.point.coord(axis) == label;
    }
    if (match) return &row;
  }
  return nullptr;
}

void ResultSet::print_table(std::ostream& os) const {
  const std::vector<std::string> keys = metric_keys(rows_);
  std::vector<std::string> header;
  for (const Axis& axis : axes_) header.push_back(axis.name);
  if (has_runs_) {
    header.push_back("cycles");
    header.push_back("R util");
  }
  if (has_row_stats_) header.push_back("row hit%");
  if (baseline_) header.push_back("speedup");
  for (const std::string& key : keys) header.push_back(key);
  if (has_runs_) header.push_back("ok");

  util::Table table(header);
  for (const ResultRow& row : rows_) {
    table.row();
    for (const auto& [axis, label] : row.point.coords) {
      (void)axis;
      table.cell(label);
    }
    if (has_runs_) {
      table.cell(row.run.cycles);
      table.cell(row.run.cycles > 0 ? util::fmt_pct(row.run.r_util)
                                    : std::string("-"));
    }
    if (has_row_stats_) {
      table.cell(util::fmt_pct(row.run.row_hit_ratio()));
    }
    if (baseline_) {
      table.cell(row.speedup ? util::fmt(*row.speedup, 2) + "x"
                             : std::string("-"));
    }
    for (const std::string& key : keys) {
      const auto it = row.metrics.find(key);
      table.cell(it == row.metrics.end() ? std::string("-")
                                         : fmt_num(it->second));
    }
    if (has_runs_) {
      table.cell(row.run.cycles == 0 ? "-"
                 : row.run.correct   ? "yes"
                                     : "NO");
    }
  }
  table.print(os);
}

void ResultSet::write_csv(std::ostream& os) const {
  const std::vector<std::string> keys = metric_keys(rows_);
  for (const Axis& axis : axes_) os << csv_cell(axis.name) << ',';
  // "planned_kernel", not "kernel": specs built with kernels_axis already
  // have a "kernel" axis column, and duplicate CSV headers are ambiguous.
  os << "scenario,planned_kernel,cycles,r_util,r_util_no_idx,w_util,"
        "row_hit_ratio,speedup,correct";
  for (const std::string& key : keys) os << ',' << csv_cell(key);
  os << '\n';
  for (const ResultRow& row : rows_) {
    for (const auto& [axis, label] : row.point.coords) {
      (void)axis;
      os << csv_cell(label) << ',';
    }
    os << csv_cell(row.point.scenario) << ','
       << wl::kernel_name(row.point.kernel) << ',' << row.run.cycles << ','
       << util::json_number(row.run.r_util) << ','
       << util::json_number(row.run.r_util_no_idx) << ','
       << util::json_number(row.run.w_util) << ','
       << util::json_number(row.run.row_hit_ratio()) << ',';
    if (row.speedup) os << util::json_number(*row.speedup);
    os << ',' << (row.run.correct ? "true" : "false");
    for (const std::string& key : keys) {
      os << ',';
      const auto it = row.metrics.find(key);
      if (it != row.metrics.end()) os << util::json_number(it->second);
    }
    os << '\n';
  }
}

void ResultSet::write_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("experiment").value(name_);
  w.key("axes").begin_array();
  for (const Axis& axis : axes_) {
    w.begin_object();
    w.key("name").value(axis.name);
    w.key("values").begin_array();
    for (const AxisValue& value : axis.values) w.value(value.label);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("baseline");
  if (baseline_) {
    w.begin_object();
    w.key("axis").value(baseline_->first);
    w.key("value").value(baseline_->second);
    w.end_object();
  } else {
    w.null();
  }
  w.key("points").begin_array();
  for (const ResultRow& row : rows_) {
    w.begin_object();
    w.key("coords").begin_object();
    for (const auto& [axis, label] : row.point.coords) {
      w.key(axis).value(label);
    }
    w.end_object();
    w.key("scenario").value(row.point.scenario);
    w.key("kernel").value(wl::kernel_name(row.point.kernel));
    w.key("speedup");
    if (row.speedup) {
      w.value(*row.speedup);
    } else {
      w.null();
    }
    w.key("metrics").begin_object();
    for (const auto& [key, value] : row.metrics) w.key(key).value(value);
    w.end_object();
    w.key("run").raw(row.run.to_json());
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string ResultSet::to_json() const {
  util::JsonWriter w;
  write_json(w);
  return w.str();
}

}  // namespace axipack::sys
