#include "epfl/benchmarks.hpp"

#include <cmath>
#include <iterator>

#include "epfl/wordlib.hpp"
#include "util/rng.hpp"

namespace cryo::epfl {

using logic::Aig;
using logic::Lit;

Aig make_adder(unsigned bits) {
  Aig aig;
  aig.set_name("adder");
  const Word a = input_word(aig, "a", bits);
  const Word b = input_word(aig, "b", bits);
  Lit carry = logic::kConst0;
  const Word sum = add(aig, a, b, logic::kConst0, &carry);
  output_word(aig, "s", sum);
  aig.add_po(carry, "cout");
  return aig;
}

Aig make_bar(unsigned bits) {
  Aig aig;
  aig.set_name("bar");
  const Word value = input_word(aig, "v", bits);
  unsigned log = 0;
  while ((1u << log) < bits) {
    ++log;
  }
  const Word amount = input_word(aig, "sh", log);
  const Lit dir = aig.add_pi("dir");
  const Word left = shift_left(aig, value, amount);
  const Word right = shift_right(aig, value, amount);
  output_word(aig, "y", mux_word(aig, dir, left, right));
  return aig;
}

Aig make_div(unsigned bits) {
  Aig aig;
  aig.set_name("div");
  const Word dividend = input_word(aig, "n", bits);
  const Word divisor = input_word(aig, "d", bits);
  // Restoring division, bit-serial structure unrolled.
  Word remainder(bits, logic::kConst0);
  Word quotient(bits, logic::kConst0);
  for (int i = static_cast<int>(bits) - 1; i >= 0; --i) {
    // remainder = (remainder << 1) | dividend[i]
    Word shifted(bits);
    shifted[0] = dividend[static_cast<std::size_t>(i)];
    for (unsigned j = 1; j < bits; ++j) {
      shifted[j] = remainder[j - 1];
    }
    Lit no_borrow = logic::kConst0;
    const Word diff = sub(aig, shifted, divisor, &no_borrow);
    remainder = mux_word(aig, no_borrow, diff, shifted);
    quotient[static_cast<std::size_t>(i)] = no_borrow;
  }
  output_word(aig, "q", quotient);
  output_word(aig, "r", remainder);
  return aig;
}

namespace {

/// One CORDIC rotation stage (shared by sin and hyp generators).
void cordic_stage(Aig& aig, Word& x, Word& y, Word& z, unsigned shift,
                  unsigned long long angle, bool hyperbolic) {
  const unsigned bits = static_cast<unsigned>(x.size());
  const Word xs = shift_right(aig, x, constant_word(shift, 5));
  const Word ys = shift_right(aig, y, constant_word(shift, 5));
  // Direction: sign of z (MSB).
  const Lit neg = z.back();
  // x' = x -/+ y>>i ; y' = y +/- x>>i ; z' = z -/+ angle
  const Word x_minus = sub(aig, x, ys);
  const Word x_plus = add(aig, x, ys);
  const Word y_plus = add(aig, y, xs);
  const Word y_minus = sub(aig, y, xs);
  const Word z_minus = sub(aig, z, constant_word(angle, bits));
  const Word z_plus = add(aig, z, constant_word(angle, bits));
  if (hyperbolic) {
    x = mux_word(aig, neg, x_minus, x_plus);
  } else {
    x = mux_word(aig, neg, x_plus, x_minus);
  }
  y = mux_word(aig, neg, y_minus, y_plus);
  z = mux_word(aig, neg, z_plus, z_minus);
}

}  // namespace

Aig make_sin(unsigned bits) {
  Aig aig;
  aig.set_name("sin");
  Word z = input_word(aig, "theta", bits);
  Word x = constant_word((1ull << (bits - 2)), bits);
  Word y = constant_word(0, bits);
  for (unsigned i = 0; i < bits - 2; ++i) {
    // atan(2^-i) in fixed point, precomputed at double precision.
    const double angle = std::atan(std::ldexp(1.0, -static_cast<int>(i)));
    const auto fixed = static_cast<unsigned long long>(
        angle * std::ldexp(1.0, static_cast<int>(bits) - 3));
    cordic_stage(aig, x, y, z, i, fixed, false);
  }
  output_word(aig, "sin", y);
  return aig;
}

Aig make_hyp(unsigned iterations) {
  Aig aig;
  aig.set_name("hyp");
  const unsigned bits = 24;
  Word z = input_word(aig, "a", bits);
  Word x = constant_word(1ull << (bits - 3), bits);
  Word y = constant_word(0, bits);
  for (unsigned i = 1; i <= iterations; ++i) {
    const double angle = std::atanh(std::ldexp(1.0, -static_cast<int>(i)));
    const auto fixed = static_cast<unsigned long long>(
        angle * std::ldexp(1.0, static_cast<int>(bits) - 3));
    cordic_stage(aig, x, y, z, i, fixed, true);
  }
  output_word(aig, "cosh", x);
  output_word(aig, "sinh", y);
  return aig;
}

Aig make_log2(unsigned bits) {
  Aig aig;
  aig.set_name("log2");
  const Word v = input_word(aig, "v", bits);
  // Integer part: index of the leading one (priority structure);
  // fraction: the normalized mantissa (barrel shift by the exponent).
  unsigned log = 0;
  while ((1u << log) < bits) {
    ++log;
  }
  Word exponent(log, logic::kConst0);
  Lit found = logic::kConst0;
  for (int i = static_cast<int>(bits) - 1; i >= 0; --i) {
    const Lit here = aig.land(logic::lit_not(found), v[static_cast<std::size_t>(i)]);
    for (unsigned b = 0; b < log; ++b) {
      if ((static_cast<unsigned>(i) >> b) & 1u) {
        exponent[b] = aig.lor(exponent[b], here);
      }
    }
    found = aig.lor(found, v[static_cast<std::size_t>(i)]);
  }
  // Normalize: shift left so the leading one lands at the top.
  Word inv_shift(log);
  const Word bits_minus_1 = constant_word(bits - 1, log);
  // shift = (bits-1) - exponent
  Word shift_amount = sub(aig, bits_minus_1, exponent);
  (void)inv_shift;
  const Word mantissa = shift_left(aig, v, shift_amount);
  output_word(aig, "exp", exponent);
  output_word(aig, "frac", Word(mantissa.begin(), mantissa.end() - 1));
  aig.add_po(found, "valid");
  return aig;
}

Aig make_max(unsigned bits, unsigned words) {
  Aig aig;
  aig.set_name("max");
  std::vector<Word> inputs;
  for (unsigned w = 0; w < words; ++w) {
    std::string name = "w";
    name += std::to_string(w);
    inputs.push_back(input_word(aig, name, bits));
  }
  // Tournament of compare-and-select.
  while (inputs.size() > 1) {
    std::vector<Word> next;
    for (std::size_t i = 0; i + 1 < inputs.size(); i += 2) {
      const Lit lt = less_than(aig, inputs[i], inputs[i + 1]);
      next.push_back(mux_word(aig, lt, inputs[i + 1], inputs[i]));
    }
    if (inputs.size() % 2 != 0) {
      next.push_back(inputs.back());
    }
    inputs = std::move(next);
  }
  output_word(aig, "max", inputs.front());
  return aig;
}

Aig make_multiplier(unsigned bits) {
  Aig aig;
  aig.set_name("multiplier");
  const Word a = input_word(aig, "a", bits);
  const Word b = input_word(aig, "b", bits);
  output_word(aig, "p", multiply(aig, a, b));
  return aig;
}

Aig make_sqrt(unsigned bits) {
  Aig aig;
  aig.set_name("sqrt");
  const Word v = input_word(aig, "v", bits);
  const unsigned half = bits / 2;
  // Non-restoring-ish digit recurrence: build root bit by bit, comparing
  // (root | bit)^2 <= v via incremental remainders.
  Word root(half, logic::kConst0);
  Word remainder(bits + 2, logic::kConst0);
  Word value(bits + 2, logic::kConst0);
  for (unsigned i = 0; i < bits; ++i) {
    value[i] = v[i];
  }
  for (int i = static_cast<int>(half) - 1; i >= 0; --i) {
    // Bring down two bits.
    Word shifted(remainder.size(), logic::kConst0);
    for (std::size_t j = 2; j < remainder.size(); ++j) {
      shifted[j] = remainder[j - 2];
    }
    shifted[1] = value[2 * static_cast<std::size_t>(i) + 1];
    shifted[0] = value[2 * static_cast<std::size_t>(i)];
    // Trial subtrahend: (root << 2) | 01  shifted to position.
    Word trial(remainder.size(), logic::kConst0);
    trial[0] = logic::kConst1;
    for (unsigned j = 0; j < half; ++j) {
      trial[j + 2] = root[j];
    }
    Lit no_borrow = logic::kConst0;
    const Word diff = sub(aig, shifted, trial, &no_borrow);
    remainder = mux_word(aig, no_borrow, diff, shifted);
    // Shift the root left and set the new bit.
    for (int j = static_cast<int>(half) - 1; j > 0; --j) {
      root[static_cast<std::size_t>(j)] = root[static_cast<std::size_t>(j) - 1];
    }
    root[0] = no_borrow;
  }
  output_word(aig, "root", root);
  return aig;
}

Aig make_square(unsigned bits) {
  Aig aig;
  aig.set_name("square");
  const Word a = input_word(aig, "a", bits);
  output_word(aig, "sq", multiply(aig, a, a));
  return aig;
}

// ------------------------------------------------------------ control ----

Aig make_arbiter(unsigned requesters) {
  Aig aig;
  aig.set_name("arbiter");
  const Word req = input_word(aig, "req", requesters);
  unsigned log = 0;
  while ((1u << log) < requesters) {
    ++log;
  }
  const Word pointer = input_word(aig, "ptr", log);  // round-robin pointer
  // Grant the first active request at or after the pointer (wrap).
  // one-hot "position >= pointer" masks via comparators.
  Word grant(requesters, logic::kConst0);
  Lit taken = logic::kConst0;
  // Two sweeps: positions >= ptr first, then positions < ptr.
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (unsigned i = 0; i < requesters; ++i) {
      const Word pos = constant_word(i, log);
      Lit in_range;
      {
        Lit no_borrow = logic::kConst0;
        (void)sub(aig, pos, pointer, &no_borrow);  // no_borrow: pos >= ptr
        in_range = sweep == 0 ? no_borrow : logic::lit_not(no_borrow);
      }
      const Lit fire = aig.land(aig.land(req[i], in_range),
                                logic::lit_not(taken));
      grant[i] = aig.lor(grant[i], fire);
      taken = aig.lor(taken, fire);
    }
  }
  output_word(aig, "gnt", grant);
  aig.add_po(taken, "any");
  return aig;
}

Aig make_cavlc() {
  Aig aig;
  aig.set_name("cavlc");
  // Coefficient-token coding lookalike: count nonzero flags and trailing
  // ones of a 16-entry significance map, then produce a code length via
  // nested range comparisons (table-driven control character).
  const Word sig = input_word(aig, "sig", 16);
  const Word ones = input_word(aig, "one", 16);
  const Word total = popcount(aig, sig);
  const Word t1s_raw = popcount(
      aig, Word{aig.land(sig[0], ones[0]), aig.land(sig[1], ones[1]),
                aig.land(sig[2], ones[2]), aig.land(sig[3], ones[3])});
  Word t1s = t1s_raw;
  t1s.resize(total.size(), logic::kConst0);
  // Code length: base table on (total, t1s) through comparisons.
  Word len = constant_word(1, 5);
  for (unsigned threshold : {2u, 4u, 8u, 12u}) {
    const Lit ge = logic::lit_not(
        less_than(aig, total, constant_word(threshold, total.size())));
    len = mux_word(aig, ge,
                   add(aig, len, constant_word(3, 5)), len);
  }
  const Lit has_t1 = or_reduce(aig, Word{t1s[0], t1s[1], t1s[2]});
  len = mux_word(aig, has_t1, sub(aig, len, constant_word(1, 5)), len);
  output_word(aig, "len", len);
  output_word(aig, "tot", total);
  return aig;
}

Aig make_ctrl() {
  Aig aig;
  aig.set_name("ctrl");
  // A small instruction decoder: 7-bit opcode -> control word.
  const Word op = input_word(aig, "op", 7);
  Word ctrl(26, logic::kConst0);
  util::Rng rng{42};
  for (unsigned out = 0; out < ctrl.size(); ++out) {
    // Each control line fires on a few opcode ranges — comparator logic.
    Lit line = logic::kConst0;
    for (int r = 0; r < 3; ++r) {
      const unsigned lo = static_cast<unsigned>(rng.next_below(100));
      const unsigned hi = lo + 1 + static_cast<unsigned>(rng.next_below(16));
      const Lit ge = logic::lit_not(less_than(aig, op, constant_word(lo, 7)));
      const Lit lt = less_than(aig, op, constant_word(hi, 7));
      line = aig.lor(line, aig.land(ge, lt));
    }
    ctrl[out] = line;
  }
  output_word(aig, "ctl", ctrl);
  return aig;
}

Aig make_dec(unsigned bits) {
  Aig aig;
  aig.set_name("dec");
  const Word sel = input_word(aig, "a", bits);
  for (unsigned i = 0; i < (1u << bits); ++i) {
    Word match(bits);
    for (unsigned b = 0; b < bits; ++b) {
      match[b] = ((i >> b) & 1u) != 0 ? sel[b] : logic::lit_not(sel[b]);
    }
    aig.add_po(and_reduce(aig, match), "d[" + std::to_string(i) + "]");
  }
  return aig;
}

Aig make_i2c() {
  Aig aig;
  aig.set_name("i2c");
  // Next-state/output logic of an I2C-style byte controller FSM:
  // 5-bit state, serial inputs, bit counter.
  const Word state = input_word(aig, "st", 5);
  const Lit sda = aig.add_pi("sda");
  const Lit scl = aig.add_pi("scl");
  const Word count = input_word(aig, "cnt", 3);
  const Lit start = aig.land(scl, logic::lit_not(sda));
  const Lit stop = aig.land(scl, sda);
  const Lit byte_done = equals(aig, count, constant_word(7, 3));

  auto in_state = [&](unsigned s) {
    return equals(aig, state, constant_word(s, 5));
  };
  // Transitions: idle(0) -> addr(1..8) -> ack(9) -> data(10..17) ->
  // ack2(18) -> stop(19).
  Word next(5, logic::kConst0);
  auto goto_state = [&](Lit when, unsigned target) {
    for (unsigned b = 0; b < 5; ++b) {
      if ((target >> b) & 1u) {
        next[b] = aig.lor(next[b], when);
      }
    }
  };
  goto_state(aig.land(in_state(0), start), 1);
  const Word inc = add(aig, state, constant_word(1, 5));
  for (unsigned s = 1; s <= 7; ++s) {
    const Lit cond = aig.land(in_state(s), scl);
    for (unsigned b = 0; b < 5; ++b) {
      next[b] = aig.lor(next[b], aig.land(cond, inc[b]));
    }
  }
  goto_state(aig.land(in_state(8), byte_done), 9);
  goto_state(aig.land(in_state(9), sda), 0);               // NACK
  goto_state(aig.land(in_state(9), logic::lit_not(sda)), 10);  // ACK
  for (unsigned s = 10; s <= 17; ++s) {
    const Lit cond = aig.land(in_state(s), scl);
    for (unsigned b = 0; b < 5; ++b) {
      next[b] = aig.lor(next[b], aig.land(cond, inc[b]));
    }
  }
  goto_state(aig.land(in_state(18), stop), 0);
  output_word(aig, "nx", next);
  aig.add_po(aig.lor(in_state(9), in_state(18)), "ack_en");
  aig.add_po(byte_done, "done");
  return aig;
}

Aig make_int2float(unsigned bits) {
  Aig aig;
  aig.set_name("int2float");
  const Word v = input_word(aig, "i", bits);
  // Leading-zero exponent + normalized mantissa (like log2 but packing
  // a float: sign-less minifloat with 5-bit exponent, 8-bit mantissa).
  unsigned log = 0;
  while ((1u << log) < bits) {
    ++log;
  }
  Word exponent(log, logic::kConst0);
  Lit found = logic::kConst0;
  for (int i = static_cast<int>(bits) - 1; i >= 0; --i) {
    const Lit here =
        aig.land(logic::lit_not(found), v[static_cast<std::size_t>(i)]);
    for (unsigned b = 0; b < log; ++b) {
      if ((static_cast<unsigned>(i) >> b) & 1u) {
        exponent[b] = aig.lor(exponent[b], here);
      }
    }
    found = aig.lor(found, v[static_cast<std::size_t>(i)]);
  }
  const Word shift_amount =
      sub(aig, constant_word(bits - 1, log), exponent);
  const Word normalized = shift_left(aig, v, shift_amount);
  Word mantissa(8, logic::kConst0);
  for (unsigned i = 0; i < 8 && i + (bits - 8) < bits; ++i) {
    mantissa[i] = normalized[i + (bits - 8)];
  }
  output_word(aig, "exp", exponent);
  output_word(aig, "man", mantissa);
  aig.add_po(found, "nonzero");
  return aig;
}

Aig make_mem_ctrl() {
  Aig aig;
  aig.set_name("mem_ctrl");
  // A memory-controller command path: bank decoder + open-row comparator
  // + refresh urgency + request arbitration, composed like the real one.
  const Word addr = input_word(aig, "addr", 16);
  const Word open_row = input_word(aig, "row", 10);
  const Word refresh_cnt = input_word(aig, "ref", 8);
  const Word req = input_word(aig, "req", 8);
  const Word prio = input_word(aig, "prio", 3);

  // Bank decode (addr[13:11] -> 8 banks).
  Word bank_sel(8, logic::kConst0);
  for (unsigned i = 0; i < 8; ++i) {
    Word m(3);
    for (unsigned b = 0; b < 3; ++b) {
      m[b] = ((i >> b) & 1u) != 0 ? addr[11 + b] : logic::lit_not(addr[11 + b]);
    }
    bank_sel[i] = and_reduce(aig, m);
  }
  // Row hit?
  Word row(10);
  for (unsigned i = 0; i < 10; ++i) {
    row[i] = addr[i];
  }
  const Lit row_hit = equals(aig, row, open_row);
  // Refresh urgent?
  const Lit urgent =
      logic::lit_not(less_than(aig, refresh_cnt, constant_word(200, 8)));
  // Arbitration: highest set request above `prio`, else any.
  Word grant(8, logic::kConst0);
  Lit taken = logic::kConst0;
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (unsigned i = 0; i < 8; ++i) {
      Lit no_borrow = logic::kConst0;
      (void)sub(aig, constant_word(i, 3), prio, &no_borrow);
      const Lit in_range =
          sweep == 0 ? no_borrow : logic::lit_not(no_borrow);
      const Lit fire =
          aig.land(aig.land(req[i], in_range), logic::lit_not(taken));
      grant[i] = aig.lor(grant[i], fire);
      taken = aig.lor(taken, fire);
    }
  }
  // Command: activate / read / precharge / refresh one-hot.
  const Lit do_refresh = urgent;
  const Lit do_read = aig.land(aig.land(taken, row_hit),
                               logic::lit_not(do_refresh));
  const Lit do_activate =
      aig.land(aig.land(taken, logic::lit_not(row_hit)),
               logic::lit_not(do_refresh));
  output_word(aig, "gnt", grant);
  output_word(aig, "bank", bank_sel);
  aig.add_po(do_refresh, "cmd_ref");
  aig.add_po(do_read, "cmd_rd");
  aig.add_po(do_activate, "cmd_act");
  return aig;
}

Aig make_priority(unsigned bits) {
  Aig aig;
  aig.set_name("priority");
  const Word req = input_word(aig, "r", bits);
  unsigned log = 0;
  while ((1u << log) < bits) {
    ++log;
  }
  Word index(log, logic::kConst0);
  Lit found = logic::kConst0;
  for (unsigned i = 0; i < bits; ++i) {
    const Lit here = aig.land(logic::lit_not(found), req[i]);
    for (unsigned b = 0; b < log; ++b) {
      if ((i >> b) & 1u) {
        index[b] = aig.lor(index[b], here);
      }
    }
    found = aig.lor(found, req[i]);
  }
  output_word(aig, "idx", index);
  aig.add_po(found, "valid");
  return aig;
}

Aig make_router(unsigned ports) {
  Aig aig;
  aig.set_name("router");
  // XY-router lookalike: per-port destination comparison + output-port
  // conflict resolution.
  unsigned log = 0;
  while ((1u << log) < ports) {
    ++log;
  }
  std::vector<Word> dest;
  Word valid = input_word(aig, "v", ports);
  for (unsigned p = 0; p < ports; ++p) {
    std::string name = "d";
    name += std::to_string(p);
    dest.push_back(input_word(aig, name, log));
  }
  for (unsigned out = 0; out < ports; ++out) {
    Lit granted = logic::kConst0;
    Word winner(log, logic::kConst0);
    for (unsigned p = 0; p < ports; ++p) {
      const Lit wants =
          aig.land(valid[p], equals(aig, dest[p], constant_word(out, log)));
      const Lit fire = aig.land(wants, logic::lit_not(granted));
      for (unsigned b = 0; b < log; ++b) {
        if ((p >> b) & 1u) {
          winner[b] = aig.lor(winner[b], fire);
        }
      }
      granted = aig.lor(granted, fire);
    }
    output_word(aig, "src" + std::to_string(out), winner);
    aig.add_po(granted, "busy" + std::to_string(out));
  }
  return aig;
}

Aig make_voter(unsigned inputs) {
  Aig aig;
  aig.set_name("voter");
  const Word votes = input_word(aig, "v", inputs);
  const Word count = popcount(aig, votes);
  const Lit majority = logic::lit_not(
      less_than(aig, count, constant_word(inputs / 2 + 1, count.size())));
  aig.add_po(majority, "maj");
  return aig;
}

std::vector<Benchmark> epfl_suite() {
  std::vector<Benchmark> suite;
  auto arith = [&](Aig aig) {
    suite.push_back({aig.name(), true, std::move(aig)});
  };
  auto control = [&](Aig aig) {
    suite.push_back({aig.name(), false, std::move(aig)});
  };
  arith(make_adder());
  arith(make_bar());
  arith(make_div());
  arith(make_hyp());
  arith(make_log2());
  arith(make_max());
  arith(make_multiplier());
  arith(make_sin());
  arith(make_sqrt());
  arith(make_square());
  control(make_arbiter());
  control(make_cavlc());
  control(make_ctrl());
  control(make_dec());
  control(make_i2c());
  control(make_int2float());
  control(make_mem_ctrl());
  control(make_priority());
  control(make_router());
  control(make_voter());
  return suite;
}

std::vector<Benchmark> mini_suite() {
  std::vector<Benchmark> suite;
  suite.push_back({"adder8", true, make_adder(8)});
  suite.push_back({"mult4", true, make_multiplier(4)});
  suite.push_back({"dec4", false, make_dec(4)});
  suite.push_back({"priority16", false, make_priority(16)});
  suite.push_back({"voter15", false, make_voter(15)});
  return suite;
}

namespace {

struct NamedGenerator {
  const char* name;
  Aig (*make)();
};

// Each entry builds exactly one circuit so lookups by name (the common
// service / CLI path) avoid constructing the whole suite.
constexpr NamedGenerator kGenerators[] = {
    {"adder8", [] { return make_adder(8); }},
    {"mult4", [] { return make_multiplier(4); }},
    {"dec4", [] { return make_dec(4); }},
    {"priority16", [] { return make_priority(16); }},
    {"voter15", [] { return make_voter(15); }},
    {"adder", [] { return make_adder(); }},
    {"bar", [] { return make_bar(); }},
    {"div", [] { return make_div(); }},
    {"hyp", [] { return make_hyp(); }},
    {"log2", [] { return make_log2(); }},
    {"max", [] { return make_max(); }},
    {"multiplier", [] { return make_multiplier(); }},
    {"sin", [] { return make_sin(); }},
    {"sqrt", [] { return make_sqrt(); }},
    {"square", [] { return make_square(); }},
    {"arbiter", [] { return make_arbiter(); }},
    {"cavlc", [] { return make_cavlc(); }},
    {"ctrl", [] { return make_ctrl(); }},
    {"dec", [] { return make_dec(); }},
    {"i2c", [] { return make_i2c(); }},
    {"int2float", [] { return make_int2float(); }},
    {"mem_ctrl", [] { return make_mem_ctrl(); }},
    {"priority", [] { return make_priority(); }},
    {"router", [] { return make_router(); }},
    {"voter", [] { return make_voter(); }},
};

}  // namespace

std::vector<std::string> benchmark_names() {
  std::vector<std::string> names;
  names.reserve(std::size(kGenerators));
  for (const auto& entry : kGenerators) names.emplace_back(entry.name);
  return names;
}

bool find_benchmark(const std::string& name, logic::Aig& out) {
  for (const auto& entry : kGenerators) {
    if (name == entry.name) {
      out = entry.make();
      out.set_name(name);
      return true;
    }
  }
  return false;
}

}  // namespace cryo::epfl
