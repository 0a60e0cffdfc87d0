// cryoeda — the unified flow driver.
//
// One binary that wires the whole stack (library characterization,
// matcher, pass pipeline, STA signoff, reporting) and exposes the
// scriptable pass pipeline directly:
//
//   cryoeda input.aig --script "c2rs; dch; if -K 6 -p pad; mfs; strash; map -p pad"
//   cryoeda --bench dec4 --temp 10 --priority pda --out dec4.v --report run.json
//   cryoeda serve --threads 4            # resident NDJSON daemon
//   cryoeda cec before.aig after.aig     # SAT equivalence check
//   cryoeda --list-passes
//
// Exit codes: 0 success, 1 internal failure, 2 usage / recipe error,
// 3 I/O error, 4 budget exhausted / cancelled, 5 numerical failure.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cells/characterize.hpp"
#include "core/corner_matrix.hpp"
#include "core/experiment.hpp"
#include "core/failure.hpp"
#include "core/pipeline.hpp"
#include "core/search.hpp"
#include "device/preset.hpp"
#include "epfl/benchmarks.hpp"
#include "logic/aiger.hpp"
#include "map/verilog.hpp"
#include "sat/cnf.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "spice/backend.hpp"
#include "sta/sta.hpp"
#include "util/budget.hpp"
#include "util/error.hpp"
#include "util/obs.hpp"

using namespace cryo;

namespace {

constexpr const char* kUsage =
    "usage: cryoeda [input.aig|aag] [options]\n"
    "       cryoeda serve [--threads N] [--lib-dir D] [--socket PATH]\n"
    "       cryoeda cec A.aig B.aig [--conflict-limit N]\n"
    "       cryoeda matrix [--preset P]... [--temp K]... [--vdd V]...\n"
    "                      [--bench NAME]... [--out REPORT.json] [options]\n"
    "\n"
    "input: an AIGER file, or --bench NAME for a built-in benchmark\n"
    "       (EPFL-style generators: adder, bar, ..., voter; mini-suite\n"
    "       names: adder8, mult4, dec4, priority16, voter15)\n"
    "\n"
    "flow options:\n"
    "  --script RECIPE    pass recipe (default: the canonical recipe for\n"
    "                     the chosen --priority; see --list-passes)\n"
    "  --priority P       baseline | pad | pda       (default pda)\n"
    "  --temp K           corner temperature          (default 10)\n"
    "  --vdd V            corner supply voltage       (default 0.7)\n"
    "                     (--temp/--vdd are checked against the preset's\n"
    "                     declared model envelope; out-of-range corners\n"
    "                     are a usage error, not an extrapolation)\n"
    "  --preset NAME      device/technology preset    (default finfet5;\n"
    "                     see --list-presets)\n"
    "  --spice-backend B  SPICE engine: builtin | ngspice (default: the\n"
    "                     CRYOEDA_SPICE_BACKEND env var, else builtin)\n"
    "  --lut-k N          k of the LUT stage, 2..16   (default 6)\n"
    "  --epsilon E        cost tie-break threshold    (default 0.02)\n"
    "  --activity A       PI toggle rate, (0,1]       (default 0.2)\n"
    "  --seed N           flow seed                   (default 29)\n"
    "\n"
    "budget options:\n"
    "  --deadline S       wall-clock budget in seconds; when it runs out\n"
    "                     remaining optimization passes degrade (skip /\n"
    "                     stop early) but 'map' still produces a netlist\n"
    "  --sat-budget N     per-call SAT conflict ceiling of dch sweeping\n"
    "                     (>= 1, or -1 for unlimited; default 500)\n"
    "\n"
    "search options:\n"
    "  --search N         recipe-search mode: evaluate N recipe variants\n"
    "                     (the Fig. 3 seeds plus deterministic mutations)\n"
    "                     and report the best signoff instead of running\n"
    "                     one recipe; prefix-sharing variants reuse the\n"
    "                     per-pass artifact cache\n"
    "  --search-report P  write the search report (JSON) to P\n"
    "                     (default cryoeda_out/search.json)\n"
    "  --search-seed N    variant mutation seed            (default 1)\n"
    "  --search-deadline S  wall budget of one variant in seconds;\n"
    "                     a variant that blows it is excluded from best\n"
    "  --threads N        search workers (0 = CRYOEDA_THREADS env or\n"
    "                     hardware concurrency, 1 = serial; default 0)\n"
    "\n"
    "i/o options:\n"
    "  --lib PATH         liberty cache path (default\n"
    "                     cryoeda_out/cryoeda_lib_<T>K.lib)\n"
    "  --out PATH         write the mapped netlist as structural Verilog\n"
    "  --pre-aig PATH     write the input AIG (binary AIGER) before any\n"
    "                     pass runs (for external equivalence checks)\n"
    "  --out-aig PATH     write the optimized AIG (binary AIGER) after\n"
    "                     the recipe's AIG stages\n"
    "  --report PATH      write the observability run report (JSON)\n"
    "  --job-report PATH  write the deterministic per-job report\n"
    "                     (schema cryoeda-job-v1; byte-identical to the\n"
    "                     'report' field a `cryoeda serve` daemon replies\n"
    "                     with for the same job)\n"
    "  --quiet            suppress progress chatter\n"
    "  --list-passes      print the pass registry and exit\n"
    "  --list-presets     print the device preset registry and exit\n"
    "  --list-backends    print the SPICE engine registry and exit\n"
    "  -h, --help         this text\n"
    "\n"
    "matrix options (cryoeda matrix):\n"
    "  --preset/--temp/--vdd  repeatable; the cross product is the corner\n"
    "                     grid. Defaults per preset: its paper corner\n"
    "                     temperatures at its default Vdd.\n"
    "  --bench NAME       repeatable; default: the mini suite\n"
    "  --out PATH         matrix report (default cryoeda_out/matrix.json)\n"
    "  --lib-dir D        per-corner library cache dir (default\n"
    "                     cryoeda_out)\n"
    "  --corner-deadline S  per-corner characterization wall budget\n"
    "  --mini             mini cell catalog + coarse char grid (CI smoke)\n"
    "  exit 0 = every corner and row clean; 1 = some corner/row faulted\n"
    "  (the report records each fault; siblings still complete)\n"
    "\n"
    "exit codes: 0 success, 1 internal failure, 2 usage/recipe error,\n"
    "            3 I/O error, 4 budget exhausted/cancelled, 5 numerical\n"
    "            failure\n";

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "cryoeda: %s\n\n%s", message.c_str(), kUsage);
  std::exit(2);
}

struct Args {
  std::string input_path;
  std::string bench_name;
  std::string script;
  std::string lib_path;
  std::string out_path;
  std::string report_path;
  std::string job_report_path;
  std::string pre_aig_path;
  std::string out_aig_path;
  double temperature = 10.0;
  double vdd = 0.7;
  std::string preset;   ///< "" = the default platform
  std::string backend;  ///< "" = $CRYOEDA_SPICE_BACKEND / builtin
  bool quiet = false;
  core::FlowOptions flow;
  std::size_t search_variants = 0;  ///< 0 = normal single-recipe mode
  std::string search_report_path = "cryoeda_out/search.json";
  std::uint64_t search_seed = 1;
  double search_deadline = 0.0;
  int threads = 0;
};

double parse_double(const std::string& flag, const std::string& raw) {
  char* end = nullptr;
  const double value = std::strtod(raw.c_str(), &end);
  if (raw.empty() || end != raw.c_str() + raw.size()) {
    usage_error("bad value for " + flag + ": '" + raw + "'");
  }
  return value;
}

unsigned long parse_uint(const std::string& flag, const std::string& raw) {
  char* end = nullptr;
  const unsigned long value = std::strtoul(raw.c_str(), &end, 10);
  if (raw.empty() || raw[0] == '-' || end != raw.c_str() + raw.size()) {
    usage_error("bad value for " + flag + ": '" + raw + "'");
  }
  return value;
}

void list_passes() {
  std::printf("passes (compose with ';' in --script):\n\n");
  for (const core::Pass* pass : core::PassRegistry::global().passes()) {
    std::printf("  %-10s %s\n", pass->name.c_str(), pass->help.c_str());
    for (const auto& arg : pass->args) {
      if (arg.kind == core::ArgKind::kUInt) {
        std::printf("      %s <%u..%u>  %s\n", arg.flag.c_str(), arg.min_uint,
                    arg.max_uint, arg.help.c_str());
      } else {
        std::printf("      %s <name>  %s\n", arg.flag.c_str(),
                    arg.help.c_str());
      }
    }
  }
  std::printf("\ncanonical recipe (defaults): %s\n",
              core::canonical_recipe(core::FlowOptions{}).c_str());
}

void list_presets() {
  std::printf("device presets (--preset NAME):\n\n");
  for (const device::Preset& p : device::preset_registry()) {
    std::printf("  %-12s %-14s T [%g, %g] K, Vdd [%g, %g] V, default %g K / "
                "%g V\n",
                p.name.c_str(), p.technology.c_str(), p.temp_min_k,
                p.temp_max_k, p.vdd_min, p.vdd_max, p.default_temp_k,
                p.default_vdd);
    std::printf("               %s\n", p.description.c_str());
  }
}

void list_backends() {
  std::printf("SPICE engines (--spice-backend NAME, or the\n"
              "CRYOEDA_SPICE_BACKEND env var):\n\n");
  for (const std::string& name : spice::backend_names()) {
    const spice::Backend* backend = spice::find_backend(name);
    if (backend->available()) {
      std::printf("  %-10s %s (available)\n", name.c_str(),
                  backend->identity().c_str());
    } else {
      std::printf("  %-10s unavailable: %s\n", name.c_str(),
                  backend->unavailable_reason().c_str());
    }
  }
}

logic::Aig resolve_benchmark(const std::string& name) {
  logic::Aig aig;
  if (epfl::find_benchmark(name, aig)) {
    return aig;
  }
  std::string known;
  for (const std::string& candidate : epfl::benchmark_names()) {
    known += (known.empty() ? "" : ", ") + candidate;
  }
  usage_error("unknown benchmark '" + name + "' (known: " + known + ")");
}

Args parse_args(int argc, char** argv) {
  Args args;
  args.flow.priority = opt::CostPriority::kPowerDelayArea;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage_error("missing value for " + arg);
      }
      return argv[++i];
    };
    if (arg == "--script") {
      args.script = next();
    } else if (arg == "--priority") {
      const std::string p = next();
      const auto priority = opt::priority_from_string(p);
      if (!priority) {
        usage_error("unknown priority '" + p +
                    "' (expected baseline | pad | pda)");
      }
      args.flow.priority = *priority;
    } else if (arg == "--temp") {
      args.temperature = parse_double(arg, next());
      if (!(args.temperature > 0.0)) {
        usage_error("--temp must be a positive temperature in kelvin");
      }
    } else if (arg == "--vdd") {
      args.vdd = parse_double(arg, next());
      if (!(args.vdd > 0.0)) {
        usage_error("--vdd must be a positive supply in volts");
      }
    } else if (arg == "--lut-k") {
      args.flow.lut_k = static_cast<unsigned>(parse_uint(arg, next()));
    } else if (arg == "--epsilon") {
      args.flow.epsilon = parse_double(arg, next());
    } else if (arg == "--activity") {
      args.flow.input_activity = parse_double(arg, next());
    } else if (arg == "--seed") {
      args.flow.seed = parse_uint(arg, next());
    } else if (arg == "--deadline") {
      const double seconds = parse_double(arg, next());
      if (!(seconds > 0.0)) {
        usage_error("--deadline must be a positive time in seconds");
      }
      util::Budget::global().set_deadline_in(seconds);
    } else if (arg == "--sat-budget") {
      const std::string raw = next();
      char* end = nullptr;
      const long long conflicts = std::strtoll(raw.c_str(), &end, 10);
      if (raw.empty() || end != raw.c_str() + raw.size() ||
          (conflicts != -1 && conflicts < 1)) {
        usage_error("bad value for --sat-budget: '" + raw +
                    "' (expected an integer >= 1, or -1 for unlimited)");
      }
      args.flow.sat_conflict_budget = conflicts;
    } else if (arg == "--search") {
      args.search_variants = parse_uint(arg, next());
      if (args.search_variants == 0) {
        usage_error("--search needs at least 1 variant");
      }
    } else if (arg == "--search-report") {
      args.search_report_path = next();
    } else if (arg == "--search-seed") {
      args.search_seed = parse_uint(arg, next());
    } else if (arg == "--search-deadline") {
      args.search_deadline = parse_double(arg, next());
      if (!(args.search_deadline > 0.0)) {
        usage_error("--search-deadline must be a positive time in seconds");
      }
    } else if (arg == "--threads") {
      args.threads = static_cast<int>(parse_uint(arg, next()));
    } else if (arg == "--bench") {
      args.bench_name = next();
    } else if (arg == "--lib") {
      args.lib_path = next();
    } else if (arg == "--out") {
      args.out_path = next();
    } else if (arg == "--report") {
      args.report_path = next();
    } else if (arg == "--job-report") {
      args.job_report_path = next();
    } else if (arg == "--pre-aig") {
      args.pre_aig_path = next();
    } else if (arg == "--out-aig") {
      args.out_aig_path = next();
    } else if (arg == "--preset") {
      args.preset = next();
    } else if (arg == "--spice-backend") {
      args.backend = next();
    } else if (arg == "--quiet") {
      args.quiet = true;
    } else if (arg == "--list-passes") {
      list_passes();
      std::exit(0);
    } else if (arg == "--list-presets") {
      list_presets();
      std::exit(0);
    } else if (arg == "--list-backends") {
      list_backends();
      std::exit(0);
    } else if (arg == "--help" || arg == "-h") {
      std::printf("%s", kUsage);
      std::exit(0);
    } else if (!arg.empty() && arg[0] == '-') {
      usage_error("unknown option '" + arg + "'");
    } else if (args.input_path.empty()) {
      args.input_path = arg;
    } else {
      usage_error("unexpected extra operand '" + arg + "' (input already '" +
                  args.input_path + "')");
    }
  }
  if (args.input_path.empty() && args.bench_name.empty()) {
    usage_error("no input: give an AIGER file or --bench NAME");
  }
  if (!args.input_path.empty() && !args.bench_name.empty()) {
    usage_error("give either an AIGER file or --bench, not both");
  }
  if (args.search_variants > 0 && !args.script.empty()) {
    usage_error("--search enumerates its own recipes; drop --script");
  }
  return args;
}

// `cryoeda serve`: run the resident NDJSON daemon over stdin/stdout or
// an AF_UNIX socket. Per-job failures are structured error replies; the
// session exit code is 0 unless the daemon itself cannot run.
int run_serve(int argc, char** argv) {
  service::ServeOptions options;
  std::string socket_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage_error("missing value for " + arg);
      }
      return argv[++i];
    };
    if (arg == "--threads") {
      options.threads = static_cast<int>(parse_uint(arg, next()));
    } else if (arg == "--lib-dir") {
      options.lib_dir = next();
    } else if (arg == "--socket") {
      socket_path = next();
    } else {
      usage_error("unknown serve option '" + arg + "'");
    }
  }
  try {
    service::Server server{std::move(options)};
    if (!socket_path.empty()) {
      std::fprintf(stderr, "cryoeda: serving on %s\n", socket_path.c_str());
      return server.serve_unix(socket_path);
    }
    return server.serve(std::cin, std::cout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cryoeda: %s\n", e.what());
    return core::describe(e).exit_code();
  }
}

// `cryoeda cec A B`: SAT equivalence check of two AIGER files.
// Exit codes: 0 equivalent, 1 NOT equivalent, 4 unknown (conflict limit
// hit), 2 usage / interface mismatch, 3 I/O failure.
int run_cec(int argc, char** argv) {
  std::vector<std::string> paths;
  std::int64_t conflict_limit = -1;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--conflict-limit") {
      if (i + 1 >= argc) {
        usage_error("missing value for " + arg);
      }
      conflict_limit = static_cast<std::int64_t>(parse_uint(arg, argv[++i]));
    } else if (!arg.empty() && arg[0] == '-') {
      usage_error("unknown cec option '" + arg + "'");
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) {
    usage_error("cec needs exactly two AIGER files");
  }
  try {
    const logic::Aig a = logic::read_aiger_file(paths[0]);
    const logic::Aig b = logic::read_aiger_file(paths[1]);
    const sat::CecResult result =
        sat::check_equivalence(a, b, conflict_limit);
    if (result.equivalent()) {
      std::printf("EQUIVALENT: %s == %s\n", paths[0].c_str(),
                  paths[1].c_str());
      return 0;
    }
    if (!result.proven()) {
      std::printf("UNKNOWN: conflict limit %lld hit before a proof\n",
                  static_cast<long long>(conflict_limit));
      return 4;
    }
    std::string cex;
    for (const bool bit : result.counterexample) {
      cex += bit ? '1' : '0';
    }
    std::printf("NOT EQUIVALENT: distinguishing input %s\n", cex.c_str());
    return 1;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "cryoeda: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cryoeda: %s\n", e.what());
    return core::describe(e).exit_code();
  }
}

// `cryoeda matrix`: characterize + synthesize a temperature x Vdd x
// technology corner grid through the cached pipeline, one fault-isolated
// corner at a time, and write the deterministic cryoeda-matrix-v1
// report. Exit 0 only when every corner and row is clean; 1 when some
// entry faulted (the report says which); usage errors (unknown preset /
// benchmark / engine, out-of-envelope corner) exit 2 before any corner
// runs.
int run_matrix_cmd(int argc, char** argv) {
  core::MatrixOptions options;
  std::string report_path = "cryoeda_out/matrix.json";
  bool mini = false;
  bool quiet = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage_error("missing value for " + arg);
      }
      return argv[++i];
    };
    if (arg == "--preset") {
      options.axes.presets.push_back(next());
    } else if (arg == "--temp") {
      options.axes.temps.push_back(parse_double(arg, next()));
    } else if (arg == "--vdd") {
      options.axes.vdds.push_back(parse_double(arg, next()));
    } else if (arg == "--bench") {
      options.benches.push_back(next());
    } else if (arg == "--spice-backend") {
      options.backend = next();
    } else if (arg == "--lib-dir") {
      options.lib_dir = next();
    } else if (arg == "--out") {
      report_path = next();
    } else if (arg == "--corner-deadline") {
      options.per_corner_deadline_s = parse_double(arg, next());
      if (!(options.per_corner_deadline_s > 0.0)) {
        usage_error("--corner-deadline must be a positive time in seconds");
      }
    } else if (arg == "--threads") {
      const int threads = static_cast<int>(parse_uint(arg, next()));
      options.experiment.threads = threads;
      options.char_options.threads = threads;
    } else if (arg == "--seed") {
      options.experiment.flow.seed = parse_uint(arg, next());
    } else if (arg == "--mini") {
      mini = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      usage_error("unknown matrix option '" + arg + "'");
    }
  }
  if (mini) {
    // CI-smoke configuration: the mini catalog on a coarse 3x3 grid
    // keeps an 8-corner matrix in tens of seconds instead of hours.
    options.catalog = cells::mini_catalog();
    options.char_options.slews = {4e-12, 16e-12, 48e-12};
    options.char_options.loads = {2e-16, 1e-15, 4e-15};
  }
  options.verbose = !quiet;
  try {
    const core::MatrixResult result = core::run_matrix(options);
    for (const auto& corner : result.corners) {
      if (!quiet) {
        std::printf("corner %-28s %s\n", corner.corner.label().c_str(),
                    corner.ok ? "ok" : corner.error.c_str());
        for (const auto& row : corner.rows) {
          std::printf("  %-12s %s\n", row.bench.c_str(),
                      !row.ok ? row.error.c_str()
                              : (row.comparison.ok() ? "ok"
                                                     : "scenario fault"));
        }
      }
    }
    const util::Json report = core::matrix_report(result);
    const auto report_dir = std::filesystem::path{report_path}.parent_path();
    if (!report_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(report_dir, ec);
    }
    std::ofstream out{report_path};
    if (!out) {
      throw Error{ErrorKind::kIo, "cannot open matrix report path '" +
                                      report_path + "' for writing"};
    }
    out << report.dump(2) << '\n';
    std::printf("matrix : %zu corners (%d ok), %d rows (%d ok), engine %s\n",
                result.corners.size(), result.corners_ok(),
                result.rows_total(), result.rows_ok(),
                result.backend_identity.c_str());
    std::printf("matrix report written to %s\n", report_path.c_str());
    return result.all_ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cryoeda: %s\n", e.what());
    return core::describe(e).exit_code();
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string{argv[1]} == "serve") {
    return run_serve(argc, argv);
  }
  if (argc >= 2 && std::string{argv[1]} == "cec") {
    return run_cec(argc, argv);
  }
  if (argc >= 2 && std::string{argv[1]} == "matrix") {
    return run_matrix_cmd(argc, argv);
  }
  const Args args = parse_args(argc, argv);

  // Compile the recipe first: a typo should fail before we spend
  // characterization time.
  const std::string script = args.script.empty()
                                 ? core::canonical_recipe(args.flow)
                                 : args.script;
  core::Pipeline pipeline;
  const device::Preset* preset = nullptr;
  try {
    core::validate(args.flow);
    pipeline = core::Pipeline::parse(script);
    // The corner must sit inside the preset's declared model envelope —
    // silently extrapolating the compact model is a usage error, caught
    // before any characterization time is spent. The engine name is
    // resolved here too so a typo'd --spice-backend fails just as fast.
    preset = &device::resolve_preset(args.preset);
    device::validate_corner(*preset, args.temperature, args.vdd);
    spice::resolve_backend(args.backend);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cryoeda: %s\n", e.what());
    return 2;
  }

  try {
    logic::Aig design = args.bench_name.empty()
                            ? logic::read_aiger_file(args.input_path)
                            : resolve_benchmark(args.bench_name);
    if (design.name().empty()) {
      design.set_name("user_design");
    }
    if (!args.quiet) {
      std::printf("design : %s — %u PIs, %u POs, %u AND nodes, depth %u\n",
                  design.name().c_str(), design.num_pis(), design.num_pos(),
                  design.num_ands(), design.depth());
      std::printf("recipe : %s\n", pipeline.to_string().c_str());
    }

    if (!args.pre_aig_path.empty()) {
      logic::write_aiger_file(design, args.pre_aig_path);
      if (!args.quiet) {
        std::printf("input AIG written to %s\n", args.pre_aig_path.c_str());
      }
    }

    std::string lib_path = args.lib_path;
    if (lib_path.empty()) {
      // Shared with the `cryoeda serve` daemon and `cryoeda matrix`, so
      // all three resolve a (preset, engine, corner) to the same
      // characterized-library bytes.
      lib_path = cells::default_lib_path(
          "cryoeda_out", *preset, spice::resolve_backend(args.backend).name(),
          args.temperature, args.vdd);
    }
    if (!args.quiet) {
      std::printf("library: %s @ %g K, %g V\n", lib_path.c_str(),
                  args.temperature, args.vdd);
    }
    cells::CharOptions char_options;
    char_options.vdd = args.vdd;
    char_options.preset = *preset;
    char_options.backend = args.backend;
    const auto corner = core::load_corner(lib_path, cells::standard_catalog(),
                                          args.temperature, char_options);
    const map::CellMatcher& matcher = corner->matcher;

    // The deterministic per-job report goes through the same
    // `core::run_scenario` entry point the daemon uses, so the two are
    // byte-identical for the same job (the scenario cache serves the
    // figures; the pipeline run below reuses the warm pass cache).
    if (args.job_report_path.empty() == false && args.search_variants == 0) {
      core::ExperimentOptions experiment;
      experiment.flow = args.flow;
      const core::ScenarioSpec spec{opt::short_name(args.flow.priority),
                                    args.flow.priority, script};
      const core::ScenarioResult scenario =
          core::run_scenario(design, matcher, experiment, spec);
      const util::Json job_report = service::job_report_json(
          design, args.temperature, args.vdd, preset->name,
          spice::resolve_backend(args.backend).identity(),
          pipeline.to_string(), scenario);
      const auto report_dir =
          std::filesystem::path{args.job_report_path}.parent_path();
      if (!report_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(report_dir, ec);
      }
      std::ofstream job_out{args.job_report_path};
      if (!job_out) {
        throw Error{ErrorKind::kIo, "cannot open job report path '" +
                                        args.job_report_path +
                                        "' for writing"};
      }
      job_out << job_report.dump() << '\n';
      if (!args.quiet) {
        std::printf("job report written to %s\n",
                    args.job_report_path.c_str());
      }
    }

    if (args.search_variants > 0) {
      core::SearchOptions search;
      search.experiment.flow = args.flow;
      search.experiment.verbose = !args.quiet;
      search.experiment.threads = args.threads;
      search.variants = args.search_variants;
      search.seed = args.search_seed;
      search.per_variant_deadline_s = args.search_deadline;

      std::vector<epfl::Benchmark> suite;
      suite.push_back({design.name(), false, std::move(design)});
      const auto results = core::search_recipes(suite, matcher, search);

      std::printf("\nsearch results (%zu variants):\n", args.search_variants);
      for (const auto& circuit : results) {
        if (circuit.best < 0) {
          std::printf("  %s: no variant produced a clean signoff\n",
                      circuit.circuit.c_str());
          continue;
        }
        const auto& best =
            circuit.trials[static_cast<std::size_t>(circuit.best)];
        std::printf("  %s: %.4g W, %.1f ps, %.2f um^2, %zu gates\n",
                    circuit.circuit.c_str(), best.result.total_power,
                    best.result.delay * 1e12, best.result.area,
                    best.result.gates);
        std::printf("    recipe: %s\n", best.recipe.c_str());
      }

      const auto report_dir =
          std::filesystem::path{args.search_report_path}.parent_path();
      if (!report_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(report_dir, ec);
      }
      std::ofstream out{args.search_report_path};
      if (!out) {
        throw Error{ErrorKind::kIo, "cannot open search report path '" +
                                        args.search_report_path +
                                        "' for writing"};
      }
      out << core::search_report(results, search).dump(2) << '\n';
      std::printf("  search report written to %s\n",
                  args.search_report_path.c_str());

      if (!args.report_path.empty()) {
        util::obs::ReportOptions report;
        report.flow = "cryoeda-search";
        util::obs::write_report(args.report_path, report);
        std::printf("  run report written to %s\n", args.report_path.c_str());
      }
      return 0;
    }

    core::FlowState state;
    state.aig = std::move(design);
    state.matcher = &matcher;
    state.options = args.flow;
    pipeline.run(state);

    std::printf("\nresults:\n");
    std::printf("  AIG          : %u -> %u AND nodes\n", state.initial_ands,
                state.aig.num_ands());
    if (state.has_netlist) {
      std::printf("  netlist      : %zu gates, %.2f um^2\n",
                  state.netlist.gate_count(), state.netlist.total_area());
      const auto signoff = sta::analyze(state.netlist, {});
      std::printf("  critical path: %.1f ps\n",
                  signoff.critical_delay * 1e12);
      std::printf("  power @1GHz  : %.4g W (leakage %.4g, internal %.4g, "
                  "switching %.4g)\n",
                  signoff.power.total(), signoff.power.leakage,
                  signoff.power.internal, signoff.power.switching);
    } else {
      std::printf("  (recipe has no 'map' pass — no netlist/signoff)\n");
    }

    if (!args.out_aig_path.empty()) {
      logic::write_aiger_file(state.aig, args.out_aig_path);
      std::printf("  optimized AIG written to %s\n",
                  args.out_aig_path.c_str());
    }
    if (!args.out_path.empty()) {
      if (!state.has_netlist) {
        std::fprintf(stderr,
                     "cryoeda: --out needs a mapped netlist; add 'map' to "
                     "the recipe\n");
        return 2;
      }
      map::write_verilog(state.netlist, args.out_path);
      std::printf("  netlist written to %s\n", args.out_path.c_str());
    }
    if (!args.report_path.empty()) {
      util::obs::ReportOptions report;
      report.flow = "cryoeda";
      util::obs::write_report(args.report_path, report);
      std::printf("  run report written to %s\n", args.report_path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cryoeda: %s\n", e.what());
    return core::describe(e).exit_code();
  }
}
