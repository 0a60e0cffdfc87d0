#pragma once

#include <cstddef>
#include <string>

#include "core/experiment.hpp"
#include "core/flow.hpp"
#include "logic/aig.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace cryo::service {

/// Wire protocol of `cryoeda serve`: newline-delimited JSON, one request
/// object per line on the way in, one reply object per line on the way
/// out, in request order.
///
/// Request schema (all fields optional unless noted):
///
///   {"op": "synth",            // default; also ping | stats | shutdown
///    "id": "job-1",            // echoed verbatim in the reply
///    "bench": "dec4",          // built-in benchmark ...
///    "aiger_path": "f.aig",    // ... or an AIGER file (exactly one)
///    "recipe": "c2rs; ...",    // default: the canonical recipe
///    "priority": "pda",        // baseline | pad | pda (default pda)
///    "temp": 10,               // corner temperature [K]
///    "vdd": 0.7,               // corner supply [V]
///    "preset": "finfet5",      // device preset (default finfet5); the
///                              //   corner must sit inside its envelope
///    "backend": "builtin",     // SPICE engine (default: the
///                              //   CRYOEDA_SPICE_BACKEND env var)
///    "deadline_s": 5.0,        // per-job wall-clock budget (0 = none)
///    "seed": 29}               // flow seed
///
/// Reply schema:
///
///   ok:    {"id", "status": "ok", "report": {...}, "cache": {...},
///           "corner_warm": bool}
///   error: {"id", "status": "error", "error_kind": "budget",
///           "exit_code": 4, "error": "<message>"}
///
/// Validation is strict: unknown fields, wrong types, and out-of-range
/// values are rejected with cryo::Error{kRecipe} (a structured error
/// reply; the daemon keeps serving).

/// Longest accepted request line in bytes; longer lines get a kRecipe
/// error reply and the line is discarded.
inline constexpr std::size_t kMaxRequestLine = 1u << 20;

/// Deterministic job-report schema tag (also used by `cryoeda
/// --job-report` so one-shot and daemon reports are byte-comparable).
inline constexpr const char* kJobReportSchema = "cryoeda-job-v1";

/// A parsed, validated job request.
struct JobRequest {
  std::string op = "synth";
  std::string id;
  std::string bench;
  std::string aiger_path;
  std::string recipe;  ///< empty = canonical recipe for `flow`
  double temp = 10.0;
  double vdd = 0.7;
  std::string preset;   ///< device preset name; "" = the default
  std::string backend;  ///< SPICE engine; "" = env / builtin
  double deadline_s = 0.0;
  core::FlowOptions flow;  ///< priority/seed applied from the request
};

/// Parse and validate one request object. Throws cryo::Error{kRecipe}
/// with an actionable message on unknown fields / types / values.
JobRequest parse_request(const util::Json& json);

/// The deterministic per-job report both `cryoeda --job-report` and the
/// daemon emit: schema tag, design interface, corner, canonical recipe,
/// and the scenario signoff figures. Contains no wall-clock data, so a
/// daemon reply is byte-identical to the one-shot run of the same job.
util::Json job_report_json(const logic::Aig& design, double temperature_k,
                           double vdd, const std::string& preset,
                           const std::string& backend_identity,
                           const std::string& canonical_recipe,
                           const core::ScenarioResult& result);

/// Reply constructors (key order is part of the wire format).
util::Json ok_reply(const std::string& id, util::Json report,
                    util::Json cache_stats, bool corner_warm);
util::Json error_reply(const std::string& id, ErrorKind kind,
                       const std::string& message);

}  // namespace cryo::service
