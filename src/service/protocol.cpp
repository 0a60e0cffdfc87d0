#include "service/protocol.hpp"

#include <cstdio>

#include "device/preset.hpp"
#include "opt/cost.hpp"
#include "spice/backend.hpp"
#include "util/error.hpp"

namespace cryo::service {

namespace {

[[noreturn]] void reject(const std::string& message) {
  throw Error{ErrorKind::kRecipe, "request: " + message};
}

std::string expect_string(const std::string& key, const util::Json& value) {
  if (value.type() != util::Json::Type::kString) {
    reject("field '" + key + "' must be a string");
  }
  return value.as_string();
}

double expect_number(const std::string& key, const util::Json& value) {
  if (!value.is_number()) {
    reject("field '" + key + "' must be a number");
  }
  return value.as_double();
}

}  // namespace

JobRequest parse_request(const util::Json& json) {
  if (!json.is_object()) {
    reject("a request must be a JSON object");
  }
  JobRequest req;
  bool seen_priority = false;
  for (const auto& [key, value] : json.members()) {
    if (key == "op") {
      req.op = expect_string(key, value);
    } else if (key == "id") {
      req.id = expect_string(key, value);
    } else if (key == "bench") {
      req.bench = expect_string(key, value);
    } else if (key == "aiger_path") {
      req.aiger_path = expect_string(key, value);
    } else if (key == "recipe") {
      req.recipe = expect_string(key, value);
    } else if (key == "priority") {
      const std::string p = expect_string(key, value);
      const auto priority = opt::priority_from_string(p);
      if (!priority) {
        reject("unknown priority '" + p + "' (expected baseline | pad | pda)");
      }
      req.flow.priority = *priority;
      seen_priority = true;
    } else if (key == "temp") {
      req.temp = expect_number(key, value);
      if (!(req.temp > 0.0)) {
        reject("'temp' must be a positive temperature in kelvin");
      }
    } else if (key == "vdd") {
      req.vdd = expect_number(key, value);
      if (!(req.vdd > 0.0)) {
        reject("'vdd' must be a positive supply in volts");
      }
    } else if (key == "preset") {
      req.preset = expect_string(key, value);
    } else if (key == "backend") {
      req.backend = expect_string(key, value);
    } else if (key == "deadline_s") {
      req.deadline_s = expect_number(key, value);
      if (req.deadline_s < 0.0) {
        reject("'deadline_s' must be >= 0 (0 disables the deadline)");
      }
    } else if (key == "seed") {
      if (value.type() != util::Json::Type::kInt || value.as_int() < 0) {
        reject("field 'seed' must be a non-negative integer");
      }
      req.flow.seed = static_cast<std::uint64_t>(value.as_int());
    } else {
      reject("unknown field '" + key + "'");
    }
  }
  if (req.op != "synth" && req.op != "ping" && req.op != "stats" &&
      req.op != "shutdown") {
    reject("unknown op '" + req.op +
           "' (expected synth | ping | stats | shutdown)");
  }
  if (req.op == "synth") {
    // The one-shot CLI defaults to pda; jobs do the same.
    if (!seen_priority) {
      req.flow.priority = opt::CostPriority::kPowerDelayArea;
    }
    if (req.bench.empty() == req.aiger_path.empty()) {
      reject("a synth job needs exactly one of 'bench' or 'aiger_path'");
    }
    // Same contract as the one-shot CLI: an unknown preset/engine or a
    // corner outside the preset's declared model envelope is a usage
    // error, rejected before the job costs any characterization.
    const device::Preset& preset = device::resolve_preset(req.preset);
    device::validate_corner(preset, req.temp, req.vdd);
    spice::resolve_backend(req.backend);
  } else if (!req.bench.empty() || !req.aiger_path.empty() ||
             !req.recipe.empty() || !req.preset.empty() ||
             !req.backend.empty()) {
    reject("'" + req.op +
           "' takes no bench/aiger_path/recipe/preset/backend fields");
  }
  return req;
}

util::Json job_report_json(const logic::Aig& design, double temperature_k,
                           double vdd, const std::string& preset,
                           const std::string& backend_identity,
                           const std::string& canonical_recipe,
                           const core::ScenarioResult& result) {
  util::Json report = util::Json::object();
  report["schema"] = util::Json{kJobReportSchema};
  util::Json design_json = util::Json::object();
  design_json["name"] = util::Json{design.name()};
  design_json["pis"] = util::Json{design.num_pis()};
  design_json["pos"] = util::Json{design.num_pos()};
  design_json["ands"] = util::Json{design.num_ands()};
  report["design"] = std::move(design_json);
  report["temp_k"] = util::Json{temperature_k};
  report["vdd"] = util::Json{vdd};
  report["preset"] = util::Json{preset};
  report["backend"] = util::Json{backend_identity};
  report["priority"] = util::Json{opt::short_name(result.priority)};
  report["recipe"] = util::Json{canonical_recipe};
  util::Json figures = util::Json::object();
  figures["total_power_w"] = util::Json{result.total_power};
  figures["leakage_w"] = util::Json{result.power.leakage};
  figures["internal_w"] = util::Json{result.power.internal};
  figures["switching_w"] = util::Json{result.power.switching};
  figures["delay_s"] = util::Json{result.delay};
  figures["area_um2"] = util::Json{result.area};
  figures["gates"] = util::Json{result.gates};
  figures["degraded"] = util::Json{result.degraded};
  report["result"] = std::move(figures);
  return report;
}

util::Json ok_reply(const std::string& id, util::Json report,
                    util::Json cache_stats, bool corner_warm) {
  util::Json reply = util::Json::object();
  reply["id"] = util::Json{id};
  reply["status"] = util::Json{"ok"};
  reply["report"] = std::move(report);
  reply["cache"] = std::move(cache_stats);
  reply["corner_warm"] = util::Json{corner_warm};
  return reply;
}

util::Json error_reply(const std::string& id, ErrorKind kind,
                       const std::string& message) {
  util::Json reply = util::Json::object();
  reply["id"] = util::Json{id};
  reply["status"] = util::Json{"error"};
  reply["error_kind"] = util::Json{std::string{error_kind_name(kind)}};
  reply["exit_code"] = util::Json{error_exit_code(kind)};
  reply["error"] = util::Json{message};
  return reply;
}

}  // namespace cryo::service
