#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cells/catalog.hpp"
#include "cells/characterize.hpp"
#include "core/experiment.hpp"
#include "device/preset.hpp"
#include "liberty/library.hpp"
#include "map/matcher.hpp"
#include "util/json.hpp"

namespace cryo::core {

/// A characterized corner: a liberty library and the cell matcher built
/// over it. The matcher points into `library`, so a corner lives on the
/// heap and is shared, never copied.
struct Corner {
  explicit Corner(liberty::Library lib)
      : library{std::move(lib)}, matcher{library} {}
  Corner(const Corner&) = delete;
  Corner& operator=(const Corner&) = delete;

  liberty::Library library;
  map::CellMatcher matcher;
};

/// The one path from a temperature corner to a matcher: load the
/// liberty cache at `lib_path` (characterizing `catalog` at
/// `temperature_k` and writing the cache when it is missing or stale —
/// `cells::load_or_characterize`), then build the matcher. Creates the
/// parent directory of `lib_path`. Used by the one-shot CLI, the
/// corner matrix, and the daemon's resident corner map.
std::shared_ptr<const Corner> load_corner(
    const std::string& lib_path, const std::vector<cells::CellSpec>& catalog,
    double temperature_k, const cells::CharOptions& options);

/// The axes of a corner matrix: every (preset, temperature, Vdd) triple
/// of the cross product is one characterization + synthesis corner.
/// Empty axes take preset-derived defaults, so `cryoeda matrix` with no
/// flags reproduces each platform's paper-style evaluation corners.
struct MatrixAxes {
  /// Preset names; empty = the default platform only.
  std::vector<std::string> presets;
  /// Temperatures [K]; empty = each preset's `corner_temps`.
  std::vector<double> temps;
  /// Supplies [V]; empty = each preset's `default_vdd`.
  std::vector<double> vdds;
};

/// One resolved corner of the matrix.
struct MatrixCorner {
  device::Preset preset;
  double temperature_k = 0.0;
  double vdd = 0.0;

  /// Human-readable corner tag: "<preset>@<T>K/<Vdd>V".
  std::string label() const;
};

/// Options of a corner-matrix run.
struct MatrixOptions {
  MatrixAxes axes;
  /// Benchmark names (epfl::find_benchmark); empty = the mini suite.
  std::vector<std::string> benches;
  /// Shared synthesis/signoff knobs, applied identically per corner.
  ExperimentOptions experiment;
  /// SPICE engine name; "" resolves via $CRYOEDA_SPICE_BACKEND.
  std::string backend;
  /// Directory of the per-corner characterized-library caches.
  std::string lib_dir = "cryoeda_out";
  /// Per-corner wall-clock bound on characterization [s]; 0 = none.
  /// (Synthesis remains governed by the global budget — a blown corner
  /// deadline faults that corner only.)
  double per_corner_deadline_s = 0.0;
  /// Cell catalog; empty = the standard catalog. Injectable so tests
  /// can run the matrix on the mini catalog with a coarse grid.
  std::vector<cells::CellSpec> catalog;
  /// Characterization knobs; vdd/preset/backend/budget are overwritten
  /// per corner from the axes above.
  cells::CharOptions char_options;
  bool verbose = false;
};

/// Expand the axes into the ordered corner list: preset-major, then
/// temperatures, then supplies, each in the order given (or the
/// preset's own defaults where an axis is empty). Every corner is
/// validated against its preset's declared envelope up front — one
/// out-of-range triple rejects the whole matrix with
/// cryo::Error{kRecipe} before any work runs.
std::vector<MatrixCorner> enumerate_corners(const MatrixAxes& axes);

/// One (corner, benchmark) row of the matrix.
struct MatrixRow {
  std::string bench;
  CircuitComparison comparison;
  /// Fault isolation at the row level: a benchmark whose comparison
  /// threw records the failure here instead of sinking its siblings.
  bool ok = true;
  std::string error;
  std::string error_kind;
};

/// All rows of one corner, plus the corner-level failure record: a
/// corner whose library characterization failed has no rows, and the
/// failure stays confined to this entry.
struct MatrixCornerResult {
  MatrixCorner corner;
  std::string library;   ///< canonical library name (empty on failure)
  std::string lib_path;  ///< on-disk cache the corner used
  std::vector<MatrixRow> rows;
  bool ok = true;
  std::string error;
  std::string error_kind;
};

/// The full matrix run.
struct MatrixResult {
  std::string backend_identity;  ///< engine that produced every corner
  std::vector<MatrixCornerResult> corners;

  int corners_ok() const;
  int rows_total() const;
  /// Rows whose comparison ran *and* whose three scenarios all
  /// produced valid figures.
  int rows_ok() const;
  bool all_ok() const;
};

/// Run the matrix: corners execute serially (parallelism lives inside
/// characterization and the per-corner benchmark fleet), each behind
/// its own fault-isolation boundary, so one poisoned corner degrades
/// exactly its own entry. Throws cryo::Error{kRecipe} for unusable
/// axes/benches/engine before any corner runs; propagates global
/// cancellation between corners.
MatrixResult run_matrix(const MatrixOptions& options);

/// Deterministic `cryoeda-matrix-v1` report of a run: stable key order,
/// no wall-clock or host-dependent values, so byte-identical inputs
/// give byte-identical reports (the property `check_regression.py
/// --matrix-from` gates on).
util::Json matrix_report(const MatrixResult& result);

}  // namespace cryo::core
