#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>

#include "cells/catalog.hpp"
#include "cells/characterize.hpp"
#include "liberty/function.hpp"
#include "liberty/json_io.hpp"

namespace {

using namespace cryo::cells;

const CellSpec* find_spec(const std::vector<CellSpec>& catalog,
                          const std::string& name) {
  for (const auto& spec : catalog) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

/// A temp-dir path unique to the running test and process: ctest -j
/// runs every test in its own process, all sharing one temp directory.
std::string unique_temp_path(const std::string& stem) {
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  return (std::filesystem::temp_directory_path() /
          (stem + "_" + test->name() + "_" + std::to_string(::getpid()) +
           ".lib"))
      .string();
}

TEST(Catalog, SizeIsPaperScale) {
  const auto catalog = standard_catalog();
  // Paper: "a whole standard cell library, which consists of 200
  // combinational and sequential logic gates".
  EXPECT_GE(catalog.size(), 150u);
  EXPECT_LE(catalog.size(), 260u);
}

TEST(Catalog, NamesAreUnique) {
  const auto catalog = standard_catalog();
  std::set<std::string> names;
  for (const auto& spec : catalog) {
    EXPECT_TRUE(names.insert(spec.name).second) << spec.name;
  }
}

struct ExpectedFunction {
  const char* cell;
  std::uint64_t tt;
  unsigned inputs;
};

/// Names each case after its cell. Without it gtest prints the raw
/// bytes of the struct, which hold a string address and padding, so the
/// discovered ctest names change from one build (and run) to the next.
void PrintTo(const ExpectedFunction& expected, std::ostream* os) {
  *os << expected.cell;
}

class KnownFunctions : public ::testing::TestWithParam<ExpectedFunction> {};

TEST_P(KnownFunctions, TruthTableMatches) {
  const auto catalog = standard_catalog();
  const auto& expected = GetParam();
  const CellSpec* spec = find_spec(catalog, expected.cell);
  ASSERT_NE(spec, nullptr) << expected.cell;
  ASSERT_EQ(spec->inputs.size(), expected.inputs);
  EXPECT_EQ(spec->truth_table(), expected.tt) << expected.cell;
}

INSTANTIATE_TEST_SUITE_P(
    Cells, KnownFunctions,
    ::testing::Values(
        ExpectedFunction{"INV_X1", 0x1, 1},
        ExpectedFunction{"BUF_X2", 0x2, 1},
        ExpectedFunction{"NAND2_X1", 0x7, 2},
        ExpectedFunction{"NOR2_X1", 0x1, 2},
        ExpectedFunction{"AND3_X1", 0x80, 3},
        ExpectedFunction{"OR4_X1", 0xFFFE, 4},
        ExpectedFunction{"XOR2_X1", 0x6, 2},
        ExpectedFunction{"XNOR2_X1", 0x9, 2},
        ExpectedFunction{"XOR3_X1", 0x96, 3},
        ExpectedFunction{"XNOR3_X1", 0x69, 3},
        ExpectedFunction{"MUX2_X1", 0xCA, 3},
        ExpectedFunction{"MAJ3_X1", 0xE8, 3},
        // AOI21: !(A1&A2 | B1) over (A1, A2, B1).
        ExpectedFunction{"AOI21_X1", 0x07, 3},
        ExpectedFunction{"OAI21_X1", 0x1F, 3},
        ExpectedFunction{"AOI22_X1", 0x0777, 4},
        ExpectedFunction{"NAND2B_X1", 0xB, 2},
        ExpectedFunction{"NOR2B_X1", 0x2, 2}));

TEST(Catalog, FunctionStringsMatchTruthTables) {
  for (const auto& spec : standard_catalog()) {
    if (spec.sequential || spec.inputs.size() > 6) {
      continue;
    }
    const std::uint64_t via_string = cryo::liberty::function_truth_table(
        spec.function_string(), spec.inputs);
    EXPECT_EQ(via_string, spec.truth_table()) << spec.name;
  }
}

TEST(Catalog, AreasGrowWithDriveStrength) {
  const auto catalog = standard_catalog();
  const auto* x1 = find_spec(catalog, "INV_X1");
  const auto* x4 = find_spec(catalog, "INV_X4");
  ASSERT_NE(x1, nullptr);
  ASSERT_NE(x4, nullptr);
  EXPECT_GT(x4->area, x1->area);
}

TEST(Pdn, DepthAndDeviceCount) {
  const auto catalog = standard_catalog();
  const auto* nand4 = find_spec(catalog, "NAND4_X1");
  ASSERT_NE(nand4, nullptr);
  EXPECT_EQ(nand4->stages[0].pdn.depth(), 4u);
  EXPECT_EQ(nand4->stages[0].pdn.num_devices(), 4u);
  const auto* nor4 = find_spec(catalog, "NOR4_X1");
  ASSERT_NE(nor4, nullptr);
  EXPECT_EQ(nor4->stages[0].pdn.depth(), 1u);
}

// ---------------------------------------------------- characterization ---

class CharacterizedMini : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    CharOptions options;
    // Smaller grid for speed; still exercises the full pipeline.
    options.slews = {4e-12, 16e-12, 48e-12};
    options.loads = {2e-16, 1e-15, 4e-15};
    warm_ = new cryo::liberty::Library(
        characterize(mini_catalog(), 300.0, options));
    cold_ = new cryo::liberty::Library(
        characterize(mini_catalog(), 10.0, options));
  }
  static void TearDownTestSuite() {
    delete warm_;
    delete cold_;
    warm_ = nullptr;
    cold_ = nullptr;
  }
  static cryo::liberty::Library* warm_;
  static cryo::liberty::Library* cold_;
};

cryo::liberty::Library* CharacterizedMini::warm_ = nullptr;
cryo::liberty::Library* CharacterizedMini::cold_ = nullptr;

TEST_F(CharacterizedMini, AllCellsPresentWithArcs) {
  ASSERT_EQ(warm_->cells.size(), mini_catalog().size());
  for (const auto& cell : warm_->cells) {
    EXPECT_FALSE(cell.arcs.empty()) << cell.name;
    EXPECT_FALSE(cell.power_arcs.empty()) << cell.name;
    EXPECT_GT(cell.leakage_power, 0.0) << cell.name;
    ASSERT_NE(cell.output_pin(), nullptr) << cell.name;
    EXPECT_FALSE(cell.output_pin()->function.empty()) << cell.name;
  }
}

TEST_F(CharacterizedMini, DelayIncreasesWithLoadAndSlew) {
  for (const auto& cell : warm_->cells) {
    for (const auto& arc : cell.arcs) {
      const double fast = arc.cell_rise.lookup(4e-12, 2e-16);
      const double loaded = arc.cell_rise.lookup(4e-12, 4e-15);
      EXPECT_GT(loaded, fast) << cell.name;
      const double slow_in = arc.cell_rise.lookup(48e-12, 2e-16);
      EXPECT_GT(slow_in, fast * 0.8) << cell.name;
    }
  }
}

TEST_F(CharacterizedMini, CryoLeakageCollapses) {
  // Paper Fig. 2(c): leakage becomes negligible at 10 K.
  for (std::size_t i = 0; i < warm_->cells.size(); ++i) {
    EXPECT_LT(cold_->cells[i].leakage_power,
              warm_->cells[i].leakage_power * 1e-2)
        << warm_->cells[i].name;
  }
}

TEST_F(CharacterizedMini, CryoDelayMarginallyImpacted) {
  // Paper Fig. 2(a): the delay distributions largely overlap.
  for (std::size_t i = 0; i < warm_->cells.size(); ++i) {
    const double dw = warm_->cells[i].typical_delay(10e-12, 1e-15);
    const double dc = cold_->cells[i].typical_delay(10e-12, 1e-15);
    EXPECT_LT(std::abs(dc / dw - 1.0), 0.30) << warm_->cells[i].name;
  }
}

TEST_F(CharacterizedMini, CryoSwitchingEnergySlightlyLower) {
  // Paper Fig. 2(b): slightly less energy at 10 K (on average).
  double warm_total = 0.0;
  double cold_total = 0.0;
  for (std::size_t i = 0; i < warm_->cells.size(); ++i) {
    warm_total += warm_->cells[i].typical_energy(10e-12, 1e-15);
    cold_total += cold_->cells[i].typical_energy(10e-12, 1e-15);
  }
  EXPECT_LT(cold_total, warm_total);
  EXPECT_GT(cold_total, warm_total * 0.5);
}

TEST_F(CharacterizedMini, InputCapsArePhysical) {
  for (const auto& cell : warm_->cells) {
    for (const auto& pin : cell.pins) {
      if (!pin.is_output) {
        EXPECT_GT(pin.capacitance, 1e-17) << cell.name << "/" << pin.name;
        EXPECT_LT(pin.capacitance, 1e-13) << cell.name << "/" << pin.name;
      }
    }
  }
}

TEST(Characterize, CacheRoundTrip) {
  const auto path = unique_temp_path("cryo_cache_test");
  std::filesystem::remove(path);
  CharOptions options;
  options.slews = {4e-12, 16e-12};
  options.loads = {2e-16, 2e-15};
  options.include_sequential = false;
  const auto catalog = mini_catalog();
  const auto fresh = load_or_characterize(path, catalog, 10.0, options);
  ASSERT_TRUE(std::filesystem::exists(path));
  const auto cached = load_or_characterize(path, catalog, 10.0, options);
  ASSERT_EQ(cached.cells.size(), fresh.cells.size());
  for (std::size_t i = 0; i < fresh.cells.size(); ++i) {
    EXPECT_EQ(cached.cells[i].name, fresh.cells[i].name);
    EXPECT_NEAR(cached.cells[i].leakage_power, fresh.cells[i].leakage_power,
                std::abs(fresh.cells[i].leakage_power) * 1e-3 + 1e-18);
  }
  // Cold/warm coherence: the cold call returns the *re-read* library, so
  // a warm load must be bit-identical — same fingerprint, same scenario
  // cache keys, byte-identical signoff reports regardless of cache state.
  EXPECT_EQ(cryo::liberty::fingerprint(cached),
            cryo::liberty::fingerprint(fresh));
  std::filesystem::remove(path);
}

/// Satellite guarantee of the preset/backend refactor: a cached library
/// characterized for one device preset must never be returned for a
/// request naming a different preset at the same (temperature, Vdd) —
/// the canonical library name embeds the platform, and
/// load_or_characterize re-characterizes on mismatch.
TEST(Characterize, CacheRejectsADifferentPresetAtTheSameCorner) {
  const auto path = unique_temp_path("cryo_cache_preset_alias_test");
  std::filesystem::remove(path);
  CharOptions options;
  options.vdd = 0.8;
  options.slews = {4e-12, 16e-12};
  options.loads = {2e-16, 2e-15};
  options.include_sequential = false;
  const auto catalog = mini_catalog();
  const auto finfet = load_or_characterize(path, catalog, 300.0, options);
  EXPECT_EQ(finfet.name, "cryoeda_300K");

  CharOptions soi_options = options;
  soi_options.preset = cryo::device::resolve_preset("soi4k");
  const auto soi = load_or_characterize(path, catalog, 300.0, soi_options);
  EXPECT_EQ(soi.name, "cryoeda_soi4k_builtin_1_300K");
  // Different physics, not a replay of the cached finfet5 file.
  EXPECT_NE(cryo::liberty::fingerprint(soi),
            cryo::liberty::fingerprint(finfet));
  std::filesystem::remove(path);
}

TEST(Characterize, SequentialCellsGetClockArcs) {
  CharOptions options;
  options.slews = {8e-12};
  options.loads = {1e-15};
  std::vector<CellSpec> specs;
  for (const auto& spec : standard_catalog()) {
    if (spec.sequential && spec.name == "DFF_X1") {
      specs.push_back(spec);
    }
  }
  ASSERT_EQ(specs.size(), 1u);
  const auto lib = characterize(specs, 300.0, options);
  ASSERT_EQ(lib.cells.size(), 1u);
  const auto& dff = lib.cells[0];
  EXPECT_TRUE(dff.is_sequential);
  ASSERT_EQ(dff.arcs.size(), 1u);
  EXPECT_EQ(dff.arcs[0].related_pin, "CK");
  // clk->q delay positive and sane.
  const double d = dff.arcs[0].cell_rise.lookup(8e-12, 1e-15);
  EXPECT_GT(d, 1e-12);
  EXPECT_LT(d, 300e-12);
}

}  // namespace
