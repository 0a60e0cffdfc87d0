#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "cells/catalog.hpp"
#include "cells/characterize.hpp"
#include "core/corner_matrix.hpp"
#include "device/finfet.hpp"
#include "device/preset.hpp"
#include "device/serialize.hpp"
#include "util/artifact_cache.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"

namespace {

namespace fs = std::filesystem;
namespace fi = cryo::util::faultinject;

using cryo::Error;
using cryo::ErrorKind;
using cryo::core::MatrixAxes;
using cryo::core::MatrixOptions;
using cryo::core::MatrixResult;
using cryo::util::Json;

// ---------------------------------------------------------------------
// preset registry
// ---------------------------------------------------------------------

TEST(Presets, RegistryNamesAndDefault) {
  const auto names = cryo::device::preset_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "finfet5");
  EXPECT_EQ(names[1], "soi4k");
  EXPECT_EQ(names[2], "sky130_77k");
  EXPECT_EQ(cryo::device::default_preset().name, "finfet5");
  EXPECT_EQ(cryo::device::resolve_preset("").name, "finfet5");
}

/// The default preset IS the paper platform: any drift from the
/// hard-coded nominal 5 nm parameters would silently change every
/// default-flow figure.
TEST(Presets, Finfet5IsThePaperPlatformBitForBit) {
  const auto& preset = cryo::device::default_preset();
  EXPECT_EQ(cryo::device::to_json(preset.nfet).dump(),
            cryo::device::to_json(cryo::device::nominal_nfet_5nm()).dump());
  EXPECT_EQ(cryo::device::to_json(preset.pfet).dump(),
            cryo::device::to_json(cryo::device::nominal_pfet_5nm()).dump());
  ASSERT_EQ(preset.corner_temps.size(), 2u);
  EXPECT_EQ(preset.corner_temps[0], 300.0);
  EXPECT_EQ(preset.corner_temps[1], 10.0);
}

TEST(Presets, UnknownNameIsARecipeError) {
  try {
    cryo::device::resolve_preset("tsmc3");
    FAIL() << "expected cryo::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kRecipe);
    // The message lists the registry so the fix is one copy-paste away.
    EXPECT_NE(std::string{e.what()}.find("finfet5"), std::string::npos);
  }
}

TEST(Presets, EnvelopeValidationRejectsExtrapolation) {
  const auto& soi = cryo::device::resolve_preset("soi4k");
  EXPECT_NO_THROW(cryo::device::validate_corner(soi, 4.0, 0.8));
  for (const auto& [temp, vdd] : std::vector<std::pair<double, double>>{
           {1.0, 0.8}, {360.0, 0.8}, {4.0, 0.3}, {4.0, 1.3}}) {
    try {
      cryo::device::validate_corner(soi, temp, vdd);
      FAIL() << temp << " K / " << vdd << " V";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kRecipe);
    }
  }
}

TEST(Presets, DeviceJsonCarriesFullParameterSets) {
  const Json j =
      cryo::device::preset_device_json(cryo::device::resolve_preset("soi4k"));
  EXPECT_EQ(j.at("name").as_string(), "soi4k");
  // Parameters, not just the name: cache keys must change if a preset
  // is ever re-bound to different physics.
  EXPECT_NE(j.at("nfet").dump(), j.at("pfet").dump());
}

// ---------------------------------------------------------------------
// library naming / lib paths: no cross-platform aliasing
// ---------------------------------------------------------------------

TEST(LibraryNaming, DefaultPlatformKeepsLegacySpelling) {
  const auto& finfet5 = cryo::device::default_preset();
  EXPECT_EQ(cryo::cells::library_name(finfet5, "builtin/1", 10.0),
            "cryoeda_10K");
  EXPECT_EQ(cryo::cells::default_lib_path("out", finfet5, "builtin", 10.0,
                                          0.7),
            "out/cryoeda_lib_10K.lib");
  EXPECT_EQ(cryo::cells::default_lib_path("out", finfet5, "builtin", 10.0,
                                          0.65),
            "out/cryoeda_lib_10K_0.65V.lib");
}

TEST(LibraryNaming, PresetsAndEnginesNeverAlias) {
  const auto& finfet5 = cryo::device::default_preset();
  const auto& soi = cryo::device::resolve_preset("soi4k");
  const std::string a = cryo::cells::library_name(finfet5, "builtin/1", 300.0);
  const std::string b = cryo::cells::library_name(soi, "builtin/1", 300.0);
  const std::string c =
      cryo::cells::library_name(finfet5, "ngspice/42", 300.0);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
  EXPECT_EQ(b, "cryoeda_soi4k_builtin_1_300K");
  EXPECT_NE(cryo::cells::default_lib_path("", soi, "builtin", 300.0, 0.8),
            cryo::cells::default_lib_path("", finfet5, "builtin", 300.0,
                                          0.8));
}

// ---------------------------------------------------------------------
// corner enumeration
// ---------------------------------------------------------------------

TEST(CornerEnumeration, DefaultsToThePaperCornersOfEachPreset) {
  const auto corners = cryo::core::enumerate_corners({});
  ASSERT_EQ(corners.size(), 2u);
  EXPECT_EQ(corners[0].label(), "finfet5@300K/0.7V");
  EXPECT_EQ(corners[1].label(), "finfet5@10K/0.7V");
}

TEST(CornerEnumeration, CrossProductIsPresetMajorInInputOrder) {
  MatrixAxes axes;
  axes.presets = {"soi4k", "finfet5"};
  axes.temps = {300.0, 77.0};
  axes.vdds = {0.8, 0.9};
  const auto corners = cryo::core::enumerate_corners(axes);
  ASSERT_EQ(corners.size(), 8u);
  EXPECT_EQ(corners[0].label(), "soi4k@300K/0.8V");
  EXPECT_EQ(corners[1].label(), "soi4k@300K/0.9V");
  EXPECT_EQ(corners[2].label(), "soi4k@77K/0.8V");
  EXPECT_EQ(corners[3].label(), "soi4k@77K/0.9V");
  EXPECT_EQ(corners[4].label(), "finfet5@300K/0.8V");
  EXPECT_EQ(corners[7].label(), "finfet5@77K/0.9V");
}

TEST(CornerEnumeration, OneBadTripleRejectsTheWholeMatrix) {
  MatrixAxes axes;
  axes.presets = {"finfet5", "sky130_77k"};
  axes.temps = {300.0, 10.0};  // 10 K is below sky130_77k's 50 K floor
  axes.vdds = {0.7};
  try {
    cryo::core::enumerate_corners(axes);
    FAIL() << "expected cryo::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kRecipe);
    EXPECT_NE(std::string{e.what()}.find("sky130_77k"), std::string::npos);
  }
  MatrixAxes unknown;
  unknown.presets = {"tsmc3"};
  EXPECT_THROW(cryo::core::enumerate_corners(unknown), Error);
}

// ---------------------------------------------------------------------
// matrix runs (mini catalog, coarse grid — the test_flow cheap config)
// ---------------------------------------------------------------------

class MatrixRun : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    root_ = new fs::path{fs::temp_directory_path() /
                         ("cryoeda_test_matrix_" +
                          std::to_string(::getpid()))};
    fs::remove_all(*root_);
    fs::create_directories(*root_);
    cryo::util::ArtifactCache::Config config;
    config.root = *root_ / "cache";
    cryo::util::ArtifactCache::global().configure(std::move(config));
  }
  static void TearDownTestSuite() {
    cryo::util::ArtifactCache::global().configure(
        cryo::util::ArtifactCache::env_config());
    std::error_code ec;
    fs::remove_all(*root_, ec);
    delete root_;
    root_ = nullptr;
  }
  void TearDown() override { fi::configure(""); }

  static MatrixOptions cheap_options(const std::string& tag) {
    MatrixOptions options;
    options.axes.temps = {300.0, 10.0};
    options.benches = {"dec4"};
    options.lib_dir = (*root_ / tag).string();
    options.catalog = cryo::cells::mini_catalog();
    options.char_options.slews = {4e-12, 16e-12, 48e-12};
    options.char_options.loads = {2e-16, 1e-15, 4e-15};
    options.char_options.include_sequential = false;
    options.verbose = false;
    return options;
  }

  static fs::path* root_;
};

fs::path* MatrixRun::root_ = nullptr;

TEST_F(MatrixRun, RunsTheGridAndReportsDeterministically) {
  const MatrixOptions options = cheap_options("grid");
  const MatrixResult result = cryo::core::run_matrix(options);
  ASSERT_EQ(result.corners.size(), 2u);
  EXPECT_TRUE(result.all_ok());
  EXPECT_EQ(result.backend_identity, "builtin/1");
  EXPECT_EQ(result.rows_total(), 2);
  for (const auto& corner : result.corners) {
    EXPECT_TRUE(fs::exists(corner.lib_path)) << corner.lib_path;
    ASSERT_EQ(corner.rows.size(), 1u);
    EXPECT_EQ(corner.rows[0].bench, "dec4");
    EXPECT_TRUE(corner.rows[0].comparison.ok());
    EXPECT_GT(corner.rows[0].comparison.baseline.total_power, 0.0);
  }
  // Colder corner leaks less: the 10 K library must actually differ.
  EXPECT_LT(result.corners[1].rows[0].comparison.baseline.total_power,
            result.corners[0].rows[0].comparison.baseline.total_power);

  const Json report = cryo::core::matrix_report(result);
  EXPECT_EQ(report.at("schema").as_string(), "cryoeda-matrix-v1");
  EXPECT_EQ(report.at("summary").at("corners").as_int(), 2);
  EXPECT_EQ(report.at("summary").at("rows_ok").as_int(), 2);
  EXPECT_TRUE(report.at("summary").at("all_ok").as_bool());

  // Second run (warm library + artifact caches): byte-identical report.
  const Json again = cryo::core::matrix_report(cryo::core::run_matrix(options));
  EXPECT_EQ(again.dump(2), report.dump(2));
}

TEST_F(MatrixRun, InjectedCornerFaultDegradesOnlyItsEntry) {
  MatrixOptions options = cheap_options("fault");
  // Deterministic injection at the per-corner seam: the first corner
  // faults, the second must still complete.
  fi::configure("core.matrix=once@1");
  const MatrixResult result = cryo::core::run_matrix(options);
  fi::configure("");
  ASSERT_EQ(result.corners.size(), 2u);
  EXPECT_FALSE(result.corners[0].ok);
  EXPECT_EQ(result.corners[0].error_kind, "internal");
  EXPECT_TRUE(result.corners[0].rows.empty());
  EXPECT_TRUE(result.corners[1].ok);
  ASSERT_EQ(result.corners[1].rows.size(), 1u);
  EXPECT_TRUE(result.corners[1].rows[0].comparison.ok());
  EXPECT_FALSE(result.all_ok());
  EXPECT_EQ(result.corners_ok(), 1);
  const Json report = cryo::core::matrix_report(result);
  EXPECT_FALSE(report.at("summary").at("all_ok").as_bool());
  EXPECT_EQ(report.at("corners").at(0).at("error_kind").as_string(),
            "internal");
}

TEST_F(MatrixRun, CharacterizationFaultIsConfinedToItsCorner) {
  MatrixOptions options = cheap_options("charfault");
  options.char_options.threads = 1;
  options.experiment.threads = 1;
  // Fail the first per-cell characterization worker arrival: corner 1
  // cannot build its library; corner 2 characterizes from scratch and
  // synthesizes normally.
  fi::configure("cells.characterize=once@1");
  const MatrixResult result = cryo::core::run_matrix(options);
  fi::configure("");
  ASSERT_EQ(result.corners.size(), 2u);
  EXPECT_FALSE(result.corners[0].ok);
  EXPECT_EQ(result.corners[0].error_kind, "internal");
  EXPECT_TRUE(result.corners[1].ok);
  EXPECT_EQ(result.rows_ok(), 1);
}

TEST_F(MatrixRun, TwoPresetsAtTheSameCornerGetDistinctLibraries) {
  MatrixOptions options = cheap_options("presets");
  options.axes.presets = {"finfet5", "soi4k"};
  options.axes.temps = {300.0};
  options.axes.vdds = {0.8};
  const MatrixResult result = cryo::core::run_matrix(options);
  ASSERT_EQ(result.corners.size(), 2u);
  EXPECT_TRUE(result.all_ok());
  // Satellite guarantee: same (T, Vdd), different preset — different
  // library file, different library name, different figures.
  EXPECT_NE(result.corners[0].lib_path, result.corners[1].lib_path);
  EXPECT_NE(result.corners[0].library, result.corners[1].library);
  EXPECT_NE(result.corners[0].rows[0].comparison.baseline.total_power,
            result.corners[1].rows[0].comparison.baseline.total_power);
}

TEST_F(MatrixRun, UnknownBenchmarkFailsFast) {
  MatrixOptions options = cheap_options("badbench");
  options.benches = {"no_such_bench"};
  try {
    cryo::core::run_matrix(options);
    FAIL() << "expected cryo::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kRecipe);
  }
  // Failing fast means no corner ran: no library files were written.
  EXPECT_FALSE(fs::exists(options.lib_dir));
}

}  // namespace
