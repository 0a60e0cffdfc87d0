#include "logic/blif.hpp"

#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"

namespace cryo::logic {

std::string write_blif(const Aig& aig) {
  std::ostringstream out;
  out << ".model " << (aig.name().empty() ? "top" : aig.name()) << '\n';
  out << ".inputs";
  for (NodeIdx i = 0; i < aig.num_pis(); ++i) {
    out << ' ' << aig.pi_name(i);
  }
  out << '\n';
  out << ".outputs";
  for (NodeIdx i = 0; i < aig.num_pos(); ++i) {
    out << ' ' << aig.po_name(i);
  }
  out << '\n';

  auto signal = [&](NodeIdx v) -> std::string {
    if (aig.is_pi(v)) {
      for (NodeIdx i = 0; i < aig.num_pis(); ++i) {
        if (lit_var(aig.pi(i)) == v) {
          return aig.pi_name(i);
        }
      }
    }
    std::string name = "n";
    name += std::to_string(v);
    return name;
  };

  // Constant-zero node, if referenced.
  out << ".names n0\n";  // empty table = constant 0

  for (NodeIdx v = 1; v < aig.num_nodes(); ++v) {
    if (!aig.is_and(v)) {
      continue;
    }
    const Lit f0 = aig.fanin0(v);
    const Lit f1 = aig.fanin1(v);
    out << ".names " << signal(lit_var(f0)) << ' ' << signal(lit_var(f1))
        << ' ' << signal(v) << '\n';
    out << (lit_compl(f0) ? '0' : '1') << (lit_compl(f1) ? '0' : '1')
        << " 1\n";
  }
  // PO aliases (handle complemented and constant drivers).
  for (NodeIdx i = 0; i < aig.num_pos(); ++i) {
    const Lit po = aig.po(i);
    const NodeIdx v = lit_var(po);
    out << ".names " << signal(v) << ' ' << aig.po_name(i) << '\n';
    out << (lit_compl(po) ? "0 1\n" : "1 1\n");
  }
  out << ".end\n";
  return out.str();
}

Aig read_blif(const std::string& contents) {
  // Join continuation lines and strip comments.
  std::vector<std::string> lines;
  {
    std::istringstream in{contents};
    std::string line;
    std::string pending;
    while (std::getline(in, line)) {
      const auto hash = line.find('#');
      if (hash != std::string::npos) {
        line.resize(hash);
      }
      std::string trimmed{util::trim(line)};
      if (!trimmed.empty() && trimmed.back() == '\\') {
        trimmed.pop_back();
        pending += trimmed + " ";
        continue;
      }
      pending += trimmed;
      if (!pending.empty()) {
        lines.push_back(pending);
      }
      pending.clear();
    }
  }

  Aig aig;
  std::map<std::string, Lit> signals;
  std::vector<std::string> outputs;

  struct Table {
    std::vector<std::string> inputs;
    std::string output;
    std::vector<std::pair<std::string, char>> rows;  // (input pattern, out)
  };
  std::vector<Table> tables;

  for (std::size_t li = 0; li < lines.size(); ++li) {
    const auto tokens = util::split(lines[li], " \t");
    if (tokens.empty()) {
      continue;
    }
    const std::string& cmd = tokens[0];
    if (cmd == ".model" || cmd == ".end") {
      if (cmd == ".model" && tokens.size() > 1) {
        aig.set_name(tokens[1]);
      }
      continue;
    }
    if (cmd == ".latch") {
      throw std::runtime_error{"read_blif: latches are not supported"};
    }
    if (cmd == ".inputs") {
      for (std::size_t t = 1; t < tokens.size(); ++t) {
        signals[tokens[t]] = aig.add_pi(tokens[t]);
      }
      continue;
    }
    if (cmd == ".outputs") {
      outputs.insert(outputs.end(), tokens.begin() + 1, tokens.end());
      continue;
    }
    if (cmd == ".names") {
      Table table;
      if (tokens.size() < 2) {
        throw std::runtime_error{"read_blif: .names without signals"};
      }
      table.output = tokens.back();
      table.inputs.assign(tokens.begin() + 1, tokens.end() - 1);
      if (table.inputs.size() > 16) {
        throw std::runtime_error{"read_blif: .names with > 16 inputs"};
      }
      // Consume the cube rows that follow.
      while (li + 1 < lines.size() && !lines[li + 1].empty() &&
             lines[li + 1][0] != '.') {
        ++li;
        const auto row = util::split(lines[li], " \t");
        if (table.inputs.empty()) {
          if (row.size() != 1 || (row[0] != "1" && row[0] != "0")) {
            throw std::runtime_error{"read_blif: bad constant row"};
          }
          table.rows.emplace_back("", row[0][0]);
        } else {
          if (row.size() != 2 || row[0].size() != table.inputs.size()) {
            throw std::runtime_error{"read_blif: bad cube row"};
          }
          table.rows.emplace_back(row[0], row[1][0]);
        }
      }
      tables.push_back(std::move(table));
      continue;
    }
    throw std::runtime_error{"read_blif: unsupported construct " + cmd};
  }

  // Build tables in order (BLIF allows any order, but the writer and all
  // common producers emit topologically; do one simple multi-pass to
  // tolerate mild disorder).
  std::vector<bool> done(tables.size(), false);
  std::size_t remaining = tables.size();
  bool progress = true;
  while (remaining > 0 && progress) {
    progress = false;
    for (std::size_t ti = 0; ti < tables.size(); ++ti) {
      if (done[ti]) {
        continue;
      }
      const Table& table = tables[ti];
      bool ready = true;
      for (const auto& in : table.inputs) {
        if (signals.find(in) == signals.end()) {
          ready = false;
          break;
        }
      }
      if (!ready) {
        continue;
      }
      // SOP over the cube rows ("1" output rows; "0" rows complement).
      bool onset = true;
      for (const auto& [pattern, value] : table.rows) {
        (void)pattern;
        onset = value == '1';
        break;
      }
      Lit acc = kConst0;
      for (const auto& [pattern, value] : table.rows) {
        if ((value == '1') != onset) {
          throw std::runtime_error{
              "read_blif: mixed on/off rows in one table"};
        }
        Lit cube = kConst1;
        for (std::size_t i = 0; i < pattern.size(); ++i) {
          const Lit in = signals.at(table.inputs[i]);
          if (pattern[i] == '1') {
            cube = aig.land(cube, in);
          } else if (pattern[i] == '0') {
            cube = aig.land(cube, lit_not(in));
          } else if (pattern[i] != '-') {
            throw std::runtime_error{"read_blif: bad cube character"};
          }
        }
        acc = aig.lor(acc, cube);
      }
      if (table.rows.empty()) {
        acc = kConst0;  // empty table = constant 0
      } else if (!onset) {
        acc = lit_not(acc);
      }
      signals[table.output] = acc;
      done[ti] = true;
      --remaining;
      progress = true;
    }
  }
  if (remaining > 0) {
    throw std::runtime_error{"read_blif: undriven or cyclic signals"};
  }

  for (const auto& name : outputs) {
    const auto it = signals.find(name);
    if (it == signals.end()) {
      throw std::runtime_error{"read_blif: undriven output " + name};
    }
    aig.add_po(it->second, name);
  }
  return aig;
}

void write_blif_file(const Aig& aig, const std::string& path) {
  std::ofstream out{path};
  if (!out) {
    throw std::runtime_error{"write_blif_file: cannot open " + path};
  }
  out << write_blif(aig);
}

Aig read_blif_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    throw std::runtime_error{"read_blif_file: cannot open " + path};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return read_blif(buf.str());
}

}  // namespace cryo::logic
