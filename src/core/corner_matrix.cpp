#include "core/corner_matrix.hpp"

#include <cstdio>
#include <filesystem>
#include <utility>

#include "core/failure.hpp"
#include "spice/backend.hpp"
#include "util/budget.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/obs.hpp"
#include "util/thread_pool.hpp"

namespace cryo::core {

namespace obs = util::obs;

namespace {

std::string fmt_g(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// Resolve benchmark names into constructed circuits; "" axis = the
/// mini suite. An unknown name rejects the whole matrix up front.
std::vector<epfl::Benchmark> resolve_benches(
    const std::vector<std::string>& names) {
  if (names.empty()) {
    return epfl::mini_suite();
  }
  std::vector<epfl::Benchmark> suite;
  suite.reserve(names.size());
  for (const auto& name : names) {
    logic::Aig aig;
    if (!epfl::find_benchmark(name, aig)) {
      throw Error{ErrorKind::kRecipe,
                  "unknown benchmark '" + name +
                      "' (cryoeda bench lists the suite)"};
    }
    suite.push_back({name, /*arithmetic=*/false, std::move(aig)});
  }
  return suite;
}

util::Json scenario_json(const ScenarioResult& s) {
  util::Json j = util::Json::object();
  j["scenario"] = util::Json{s.scenario};
  j["ok"] = util::Json{s.ok};
  if (!s.ok) {
    j["error"] = util::Json{s.error};
    j["error_kind"] = util::Json{s.error_kind};
  }
  j["degraded"] = util::Json{s.degraded};
  j["total_power_w"] = util::Json{s.total_power};
  j["delay_s"] = util::Json{s.delay};
  j["area_um2"] = util::Json{s.area};
  j["gates"] = util::Json{static_cast<int>(s.gates)};
  return j;
}

util::Json row_json(const MatrixRow& row) {
  util::Json j = util::Json::object();
  j["bench"] = util::Json{row.bench};
  j["ok"] = util::Json{row.ok && row.comparison.ok()};
  if (!row.ok) {
    j["error"] = util::Json{row.error};
    j["error_kind"] = util::Json{row.error_kind};
  }
  if (row.ok) {
    j["clock_period_s"] = util::Json{row.comparison.clock_period};
    util::Json scenarios = util::Json::array();
    scenarios.push_back(scenario_json(row.comparison.baseline));
    scenarios.push_back(scenario_json(row.comparison.pad));
    scenarios.push_back(scenario_json(row.comparison.pda));
    j["scenarios"] = std::move(scenarios);
    j["power_saving_pad"] = util::Json{row.comparison.power_saving_pad()};
    j["power_saving_pda"] = util::Json{row.comparison.power_saving_pda()};
    j["delay_overhead_pad"] = util::Json{row.comparison.delay_overhead_pad()};
    j["delay_overhead_pda"] = util::Json{row.comparison.delay_overhead_pda()};
  }
  return j;
}

}  // namespace

std::shared_ptr<const Corner> load_corner(
    const std::string& lib_path, const std::vector<cells::CellSpec>& catalog,
    double temperature_k, const cells::CharOptions& options) {
  const auto dir = std::filesystem::path{lib_path}.parent_path();
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
  }
  return std::make_shared<const Corner>(cells::load_or_characterize(
      lib_path, catalog, temperature_k, options));
}

std::string MatrixCorner::label() const {
  return preset.name + "@" + fmt_g(temperature_k) + "K/" + fmt_g(vdd) + "V";
}

std::vector<MatrixCorner> enumerate_corners(const MatrixAxes& axes) {
  std::vector<std::string> preset_names = axes.presets;
  if (preset_names.empty()) {
    preset_names.push_back(device::default_preset().name);
  }
  std::vector<MatrixCorner> corners;
  for (const auto& name : preset_names) {
    const device::Preset& preset = device::resolve_preset(name);
    const std::vector<double>& temps =
        axes.temps.empty() ? preset.corner_temps : axes.temps;
    std::vector<double> vdds = axes.vdds;
    if (vdds.empty()) {
      vdds.push_back(preset.default_vdd);
    }
    if (temps.empty()) {
      throw Error{ErrorKind::kRecipe,
                  "preset '" + preset.name +
                      "' declares no corner temperatures; pass --temp"};
    }
    for (const double t : temps) {
      for (const double v : vdds) {
        // Reject the *whole* matrix before any corner runs: a grid
        // that mixes presets must be valid for every one of them.
        device::validate_corner(preset, t, v);
        corners.push_back({preset, t, v});
      }
    }
  }
  return corners;
}

int MatrixResult::corners_ok() const {
  int n = 0;
  for (const auto& c : corners) {
    n += c.ok ? 1 : 0;
  }
  return n;
}

int MatrixResult::rows_total() const {
  int n = 0;
  for (const auto& c : corners) {
    n += static_cast<int>(c.rows.size());
  }
  return n;
}

int MatrixResult::rows_ok() const {
  int n = 0;
  for (const auto& c : corners) {
    for (const auto& row : c.rows) {
      n += (row.ok && row.comparison.ok()) ? 1 : 0;
    }
  }
  return n;
}

bool MatrixResult::all_ok() const {
  return corners_ok() == static_cast<int>(corners.size()) &&
         rows_ok() == rows_total();
}

MatrixResult run_matrix(const MatrixOptions& options) {
  validate(options.experiment);
  // Engine, axes, and benches are all validated before the first corner
  // runs: a typo'd flag must fail fast with kRecipe, not after an hour
  // of characterization.
  const spice::Backend& backend = spice::resolve_backend(options.backend);
  const std::vector<MatrixCorner> corners = enumerate_corners(options.axes);
  const std::vector<epfl::Benchmark> suite = resolve_benches(options.benches);
  const std::vector<cells::CellSpec> catalog =
      options.catalog.empty() ? cells::standard_catalog() : options.catalog;

  MatrixResult result;
  result.backend_identity = backend.identity();
  result.corners.reserve(corners.size());
  for (const auto& corner : corners) {
    // Global cancellation still stops the whole matrix between corners
    // (inside a corner it surfaces as that corner's kBudget fault).
    util::Budget::global().check_cancelled("core.matrix");
    const obs::ScopedSpan span{"core.matrix:" + corner.label()};
    MatrixCornerResult entry;
    entry.corner = corner;
    entry.lib_path =
        cells::default_lib_path(options.lib_dir, corner.preset,
                                backend.name(), corner.temperature_k,
                                corner.vdd);
    try {
      util::faultinject::maybe_fail("core.matrix", ErrorKind::kInternal);
      // Per-corner deadline: bounds this corner's characterization
      // alone, so a pathological corner cannot starve the rest of the
      // grid.
      util::Budget corner_budget;
      cells::CharOptions copt = options.char_options;
      copt.vdd = corner.vdd;
      copt.preset = corner.preset;
      copt.backend = options.backend;
      copt.verbose = options.verbose;
      if (options.per_corner_deadline_s > 0.0) {
        corner_budget.set_deadline_in(options.per_corner_deadline_s);
        copt.budget = &corner_budget;
      }
      const auto loaded = load_corner(entry.lib_path, catalog,
                                      corner.temperature_k, copt);
      entry.library = loaded->library.name;
      entry.rows = util::parallel_map(
          suite.size(),
          [&](std::size_t b) {
            MatrixRow row;
            row.bench = suite[b].name;
            // Row-level fault isolation, same contract as the scenario
            // fleet: anything but budget exhaustion stays in this row
            // (budget exhaustion faults the whole corner below).
            isolate(row, "matrix.row_errors", [&] {
              row.comparison = compare_circuit(suite[b], loaded->matcher,
                                               options.experiment);
            });
            return row;
          },
          options.experiment.threads);
    } catch (const std::exception& e) {
      // Corner-level boundary: every failure, kBudget included, stays in
      // this corner's entry.
      const Failure failure = describe(e);
      entry.ok = false;
      entry.error = failure.error;
      entry.error_kind = std::string{failure.error_kind()};
      entry.rows.clear();
      obs::counter("matrix.corner_errors").add();
    }
    obs::counter("matrix.corners").add();
    result.corners.push_back(std::move(entry));
  }
  return result;
}

util::Json matrix_report(const MatrixResult& result) {
  util::Json report = util::Json::object();
  report["schema"] = util::Json{std::string{"cryoeda-matrix-v1"}};
  report["backend"] = util::Json{result.backend_identity};
  util::Json corners = util::Json::array();
  for (const auto& entry : result.corners) {
    util::Json c = util::Json::object();
    c["preset"] = util::Json{entry.corner.preset.name};
    c["technology"] = util::Json{entry.corner.preset.technology};
    c["temperature_k"] = util::Json{entry.corner.temperature_k};
    c["vdd"] = util::Json{entry.corner.vdd};
    c["label"] = util::Json{entry.corner.label()};
    c["library"] = util::Json{entry.library};
    c["lib_path"] = util::Json{entry.lib_path};
    c["ok"] = util::Json{entry.ok};
    if (!entry.ok) {
      c["error"] = util::Json{entry.error};
      c["error_kind"] = util::Json{entry.error_kind};
    }
    util::Json rows = util::Json::array();
    for (const auto& row : entry.rows) {
      rows.push_back(row_json(row));
    }
    c["rows"] = std::move(rows);
    corners.push_back(std::move(c));
  }
  report["corners"] = std::move(corners);
  util::Json summary = util::Json::object();
  summary["corners"] = util::Json{static_cast<int>(result.corners.size())};
  summary["corners_ok"] = util::Json{result.corners_ok()};
  summary["rows"] = util::Json{result.rows_total()};
  summary["rows_ok"] = util::Json{result.rows_ok()};
  summary["all_ok"] = util::Json{result.all_ok()};
  report["summary"] = std::move(summary);
  return report;
}

}  // namespace cryo::core
