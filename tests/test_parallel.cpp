// Tests of the concurrency layer (util::ThreadPool / parallel_for) and
// of the edge-case fixes that ride along with it: determinism of the
// parallel characterization and synthesis fleets, NLDM clamped lookups,
// characterization-cache validation, waveform-plateau crossing times,
// and STA option validation.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>

#include "cells/catalog.hpp"
#include "cells/characterize.hpp"
#include "core/experiment.hpp"
#include "epfl/benchmarks.hpp"
#include "liberty/library.hpp"
#include "liberty/nldm.hpp"
#include "map/matcher.hpp"
#include "spice/measure.hpp"
#include "sta/sta.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace cryo;

// ------------------------------------------------------- thread pool ----

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    util::ThreadPool pool{4};
    EXPECT_EQ(pool.size(), 4);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
    // Destructor drains the queue and joins.
  }
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, InWorkerIsFalseOnCaller) {
  EXPECT_FALSE(util::ThreadPool::in_worker());
}

TEST(ThreadPool, ResolveThreadsPrefersRequestThenEnvThenHardware) {
  EXPECT_EQ(util::resolve_threads(3), 3);
  ::setenv("CRYOEDA_THREADS", "5", 1);
  EXPECT_EQ(util::resolve_threads(0), 5);
  EXPECT_EQ(util::resolve_threads(2), 2);  // explicit request wins
  ::setenv("CRYOEDA_THREADS", "not-a-number", 1);
  EXPECT_GE(util::resolve_threads(0), 1);  // falls back to hardware
  ::unsetenv("CRYOEDA_THREADS");
  EXPECT_GE(util::resolve_threads(0), 1);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<int> hits(kN, 0);
  util::parallel_for(
      kN, [&](std::size_t i) { ++hits[i]; }, 8);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i], 1) << i;
  }
}

TEST(ParallelFor, ResultsWrittenByIndexMatchSerial) {
  constexpr std::size_t kN = 513;
  auto f = [](std::size_t i) { return static_cast<double>(i * i) + 0.5; };
  std::vector<double> serial(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    serial[i] = f(i);
  }
  const auto parallel = util::parallel_map(kN, f, 7);
  EXPECT_EQ(parallel, serial);
}

TEST(ParallelFor, NestedCallsRunInline) {
  std::atomic<int> total{0};
  util::parallel_for(
      4,
      [&](std::size_t) {
        // The nested loop must complete inline without deadlocking on
        // the shared pool.
        util::parallel_for(
            8, [&](std::size_t) { total.fetch_add(1); }, 4);
      },
      4);
  EXPECT_EQ(total.load(), 32);
}

TEST(ParallelFor, PropagatesTheFirstException) {
  EXPECT_THROW(
      util::parallel_for(
          100,
          [](std::size_t i) {
            if (i == 37) {
              throw std::runtime_error{"boom"};
            }
          },
          4),
      std::runtime_error);
}

TEST(ParallelFor, HandlesEmptyAndSingleElementRanges) {
  int calls = 0;
  util::parallel_for(
      0, [&](std::size_t) { ++calls; }, 4);
  EXPECT_EQ(calls, 0);
  util::parallel_for(
      1, [&](std::size_t) { ++calls; }, 4);
  EXPECT_EQ(calls, 1);
}

TEST(ScopedTimer, MeasuresElapsedTime) {
  util::ScopedTimer timer{"test-phase", /*log=*/false};
  EXPECT_GE(timer.elapsed_s(), 0.0);
}

// ------------------------------------------------------ nldm clamping ---

TEST(NldmClamp, ClampReturnsEdgeValuesOffGrid) {
  const liberty::NldmTable t{{0.0, 1.0}, {0.0, 2.0}, {0.0, 20.0, 1.0, 21.0}};
  // Inside the grid both modes agree.
  EXPECT_DOUBLE_EQ(t.lookup(0.5, 1.0, liberty::LookupMode::kClamp),
                   t.lookup(0.5, 1.0));
  // Off-grid, raw lookup extrapolates linearly (and can go negative)...
  EXPECT_NEAR(t.lookup(-1.0, 0.0), -1.0, 1e-12);
  EXPECT_NEAR(t.lookup(2.0, 0.0), 2.0, 1e-12);
  // ...while clamp pins the query to the grid edge.
  EXPECT_DOUBLE_EQ(t.lookup(-1.0, 0.0, liberty::LookupMode::kClamp), 0.0);
  EXPECT_DOUBLE_EQ(t.lookup(2.0, 0.0, liberty::LookupMode::kClamp), 1.0);
  EXPECT_DOUBLE_EQ(t.lookup(0.0, 100.0, liberty::LookupMode::kClamp), 20.0);
  EXPECT_DOUBLE_EQ(t.lookup(5.0, 100.0, liberty::LookupMode::kClamp), 21.0);
}

TEST(NldmClamp, ClampNeverProducesValuesOutsideTheTableRange) {
  // A decreasing-then-flat delay table whose linear extrapolation below
  // the first slew would dive negative.
  const liberty::NldmTable t{{1.0, 2.0}, {1.0, 2.0}, {1.0, 2.0, 3.0, 4.0}};
  for (const double x1 : {-10.0, 0.0, 1.5, 3.0, 50.0}) {
    for (const double x2 : {-10.0, 0.0, 1.5, 3.0, 50.0}) {
      const double v = t.lookup(x1, x2, liberty::LookupMode::kClamp);
      EXPECT_GE(v, 1.0) << x1 << "," << x2;
      EXPECT_LE(v, 4.0) << x1 << "," << x2;
    }
  }
  // The legacy mode is still available and does extrapolate.
  EXPECT_LT(t.lookup(-10.0, -10.0), 0.0);
}

// ------------------------------------------------ waveform plateaus -----

TEST(CrossingTime, PlateauSittingOnThresholdIsFiniteNotNaN) {
  const std::vector<double> times{0.0, 1.0, 2.0, 3.0};
  const std::vector<double> flat{0.5, 0.5, 0.5, 0.5};
  const auto t = spice::crossing_time(times, flat, 0.5, /*rising=*/true);
  ASSERT_TRUE(t.has_value());
  EXPECT_TRUE(std::isfinite(*t));
  EXPECT_DOUBLE_EQ(*t, 0.0);
}

TEST(CrossingTime, WaveformStartingAtThresholdIsDetected) {
  // Starts exactly at the threshold, then rises: the strict-inequality
  // detection alone would miss the crossing entirely.
  const std::vector<double> times{0.0, 1.0, 2.0};
  const std::vector<double> values{0.5, 0.5, 1.0};
  const auto t = spice::crossing_time(times, values, 0.5, /*rising=*/true);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(*t, 0.0);
}

TEST(CrossingTime, NormalCrossingsAreUnchanged) {
  const std::vector<double> times{0.0, 1.0, 2.0};
  const std::vector<double> values{0.0, 1.0, 1.0};
  const auto t = spice::crossing_time(times, values, 0.5, /*rising=*/true);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(*t, 0.5);
  EXPECT_FALSE(
      spice::crossing_time(times, values, 0.5, /*rising=*/false).has_value());
}

// ------------------------------------------------- sta validation -------

TEST(StaValidation, RejectsNonPositiveClockPeriod) {
  const map::Netlist netlist;
  sta::StaOptions options;
  options.clock_period = 0.0;
  EXPECT_THROW(sta::analyze(netlist, options), std::invalid_argument);
  options.clock_period = -1e-9;
  EXPECT_THROW(sta::analyze(netlist, options), std::invalid_argument);
}

TEST(StaValidation, RejectsBadSlewAndLoad) {
  const map::Netlist netlist;
  sta::StaOptions options;
  options.input_slew = 0.0;
  EXPECT_THROW(sta::analyze(netlist, options), std::invalid_argument);
  options.input_slew = 10e-12;
  options.output_load = -1e-15;
  EXPECT_THROW(sta::analyze(netlist, options), std::invalid_argument);
}

// --------------------------------------- characterization determinism ---

cells::CharOptions fast_char_options() {
  cells::CharOptions options;
  options.slews = {4e-12, 16e-12, 48e-12};
  options.loads = {2e-16, 1e-15, 4e-15};
  options.include_sequential = false;
  return options;
}

TEST(ParallelCharacterize, LibertyOutputIsIdenticalForAnyThreadCount) {
  auto serial_options = fast_char_options();
  serial_options.threads = 1;
  auto parallel_options = fast_char_options();
  parallel_options.threads = 4;
  const auto catalog = cells::mini_catalog();
  const auto serial = cells::characterize(catalog, 10.0, serial_options);
  const auto parallel = cells::characterize(catalog, 10.0, parallel_options);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  EXPECT_EQ(liberty::to_liberty(serial), liberty::to_liberty(parallel));
}

TEST(ParallelFlow, ComparisonRowsAreIdenticalForAnyThreadCount) {
  auto char_options = fast_char_options();
  char_options.threads = 0;  // characterize at full speed; STA input fixed
  const auto lib = cells::characterize(cells::mini_catalog(), 10.0,
                                       char_options);
  const map::CellMatcher matcher{lib};
  auto suite = epfl::mini_suite();
  suite.resize(3);

  core::ExperimentOptions serial;
  serial.threads = 1;
  core::ExperimentOptions parallel;
  parallel.threads = 4;
  const auto rows_serial =
      core::run_synthesis_comparison(suite, matcher, serial);
  const auto rows_parallel =
      core::run_synthesis_comparison(suite, matcher, parallel);

  ASSERT_EQ(rows_serial.size(), rows_parallel.size());
  for (std::size_t i = 0; i < rows_serial.size(); ++i) {
    const auto& a = rows_serial[i];
    const auto& b = rows_parallel[i];
    EXPECT_EQ(a.circuit, b.circuit);
    EXPECT_EQ(a.clock_period, b.clock_period);
    for (const auto& [sa, sb] :
         {std::pair{&a.baseline, &b.baseline}, std::pair{&a.pad, &b.pad},
          std::pair{&a.pda, &b.pda}}) {
      EXPECT_EQ(sa->total_power, sb->total_power) << a.circuit;
      EXPECT_EQ(sa->delay, sb->delay) << a.circuit;
      EXPECT_EQ(sa->area, sb->area) << a.circuit;
      EXPECT_EQ(sa->gates, sb->gates) << a.circuit;
      EXPECT_EQ(sa->power.leakage, sb->power.leakage) << a.circuit;
      EXPECT_EQ(sa->power.internal, sb->power.internal) << a.circuit;
      EXPECT_EQ(sa->power.switching, sb->power.switching) << a.circuit;
    }
  }
}

// ------------------------------------------------- cache validation -----

class CacheValidation : public ::testing::Test {
protected:
  static std::vector<cells::CellSpec> tiny_catalog() {
    std::vector<cells::CellSpec> catalog;
    for (const auto& spec : cells::mini_catalog()) {
      if (spec.name == "INV_X1" || spec.name == "NAND2_X1") {
        catalog.push_back(spec);
      }
    }
    return catalog;
  }

  static cells::CharOptions tiny_options() {
    cells::CharOptions options;
    options.slews = {4e-12, 16e-12};
    options.loads = {2e-16, 1e-15};
    options.include_sequential = false;
    return options;
  }

  // Unique per test and process: ctest -j runs every test of this
  // fixture in its own process, concurrently, in one temp directory.
  std::string cache_path_ =
      ::testing::TempDir() + "/cryoeda_cache_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      std::to_string(::getpid()) + ".lib";

  void TearDown() override { std::remove(cache_path_.c_str()); }
};

TEST_F(CacheValidation, MatchingCacheIsReusedVerbatim) {
  const auto catalog = tiny_catalog();
  ASSERT_EQ(catalog.size(), 2u);
  const auto options = tiny_options();
  const auto first =
      cells::load_or_characterize(cache_path_, catalog, 10.0, options);
  const auto second =
      cells::load_or_characterize(cache_path_, catalog, 10.0, options);
  EXPECT_EQ(second.cells.size(), first.cells.size());
  EXPECT_NEAR(second.temperature_k, 10.0, 1e-6);
}

TEST_F(CacheValidation, TemperatureMismatchForcesRecharacterization) {
  const auto catalog = tiny_catalog();
  const auto options = tiny_options();
  // Seed the cache at 300 K, then request 10 K from the same path.
  cells::load_or_characterize(cache_path_, catalog, 300.0, options);
  const auto lib =
      cells::load_or_characterize(cache_path_, catalog, 10.0, options);
  EXPECT_NEAR(lib.temperature_k, 10.0, 1e-6);
  // The cache must have been overwritten with the new corner.
  const auto reloaded = liberty::read_liberty(cache_path_);
  EXPECT_NEAR(reloaded.temperature_k, 10.0, 1e-6);
}

TEST_F(CacheValidation, VoltageMismatchForcesRecharacterization) {
  const auto catalog = tiny_catalog();
  auto low_vdd = tiny_options();
  low_vdd.vdd = 0.55;
  cells::load_or_characterize(cache_path_, catalog, 10.0, low_vdd);
  const auto lib = cells::load_or_characterize(cache_path_, catalog, 10.0,
                                               tiny_options());
  EXPECT_NEAR(lib.voltage, 0.7, 1e-9);
}

TEST_F(CacheValidation, MissingCellsForceRecharacterization) {
  const auto catalog = tiny_catalog();
  const auto options = tiny_options();
  // Cache characterized for a subset (INV only) must not satisfy a
  // request for the full tiny catalog.
  std::vector<cells::CellSpec> subset{catalog[0]};
  cells::load_or_characterize(cache_path_, subset, 10.0, options);
  const auto lib =
      cells::load_or_characterize(cache_path_, catalog, 10.0, options);
  EXPECT_EQ(lib.cells.size(), catalog.size());
  for (const auto& spec : catalog) {
    EXPECT_NE(lib.find(spec.name), nullptr) << spec.name;
  }
}

TEST_F(CacheValidation, CorruptCacheIsRegeneratedNotTrusted) {
  {
    std::ofstream out{cache_path_};
    out << "library (garbage) { this is not : valid liberty ";
  }
  const auto catalog = tiny_catalog();
  const auto lib = cells::load_or_characterize(cache_path_, catalog, 10.0,
                                               tiny_options());
  EXPECT_EQ(lib.cells.size(), catalog.size());
  // And the rewritten cache now parses.
  EXPECT_NO_THROW(liberty::read_liberty(cache_path_));
}

}  // namespace
