// The REPRO_* knob table (bench/harness.hpp): strict per-type parsing with
// the knob's name in every refusal, empty-as-unset, the depends-on and
// two-knob rules, and the EXPERIMENTS.md knob reference matching the table.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"

namespace srcache::bench {
namespace {

using Env = std::map<std::string, std::string>;

KnobSet resolve(const Env& env) {
  return resolve_knobs([&env](const char* name) -> const char* {
    const auto it = env.find(name);
    return it == env.end() ? nullptr : it->second.c_str();
  });
}

bool mentions(const std::string& error, const char* name) {
  return error.find(name) != std::string::npos;
}

// A well-formed value that turns each parent knob on.
const Env kParentOn = {
    {"REPRO_JSON", "out.json"},
    {"REPRO_FAULT_PLAN", "at=ops:500 fail dev=ssd1"},
    {"REPRO_TIER_MB", "64"},
    {"REPRO_SLO_MBPS", "1"},
    {"REPRO_SLO_READ_P99_MS", "1"},
    {"REPRO_SLO_WRITE_P99_MS", "1"},
    {"REPRO_SLO_MAX_DEGRADED", "0"},
};

std::vector<std::string> split(const std::string& s, const std::string& sep) {
  std::vector<std::string> out;
  size_t from = 0;
  for (size_t at; (at = s.find(sep, from)) != std::string::npos;
       from = at + sep.size()) {
    out.push_back(s.substr(from, at - from));
  }
  out.push_back(s.substr(from));
  return out;
}

std::string strip(const std::string& s) {
  std::string out;
  for (char c : s)
    if (c != '`') out += c;
  const size_t a = out.find_first_not_of(' ');
  const size_t b = out.find_last_not_of(' ');
  return a == std::string::npos ? "" : out.substr(a, b - a + 1);
}

std::string number(const Knob& k, double v) {
  return knob_message(k.type == Knob::kInt ? "%.0f" : "%.17g", v);
}

TEST(KnobTable, DefaultsParseAndAnEmptyEnvironmentIsValid) {
  for (const Knob& k : kKnobs) {
    if (k.def == nullptr) continue;
    KnobValue v;
    EXPECT_EQ(parse_knob(k, k.def, v), "") << k.name;
  }
  const KnobSet ks = resolve({});
  EXPECT_EQ(ks.error, "");
  EXPECT_EQ(ks["REPRO_SCALE"].num, 0.25);
  EXPECT_FALSE(ks["REPRO_JSON"].set);
}

TEST(KnobTable, MalformedValuesAreRejectedNamingTheKnob) {
  for (const Knob& k : kKnobs) {
    std::vector<std::string> bad;
    switch (k.type) {
      case Knob::kFloat:
        bad = {"banana", "0,5", "10x", "nan", "inf"};
        break;
      case Knob::kInt:
        bad = {"banana", "1.5", "7x", "0x10"};
        break;
      case Knob::kEviction:
      case Knob::kAdmission:
        bad = {"bogus", "LRU", "paper "};
        break;
      case Knob::kFaultPlan:
        bad = {"at=banana fail dev=ssd1", "at=ops:5 explode dev=ssd1"};
        break;
      case Knob::kPath:  // any non-empty string names a file
        break;
    }
    for (const std::string& text : bad) {
      KnobValue v;
      EXPECT_TRUE(mentions(parse_knob(k, text.c_str(), v), k.name))
          << k.name << "=" << text;
      EXPECT_TRUE(mentions(resolve({{k.name, text}}).error, k.name))
          << k.name << "=" << text;
    }
  }
}

TEST(KnobTable, OutOfRangeValuesAreRejectedAndTheBoundsAccepted) {
  for (const Knob& k : kKnobs) {
    if (k.type != Knob::kFloat && k.type != Knob::kInt) continue;
    const double below = k.lo == 0 ? -1 : k.lo / 2;
    const double above = k.hi * 2 + 1;
    for (const double v : {below, above}) {
      const std::string text = number(k, v);
      KnobValue out;
      EXPECT_TRUE(mentions(parse_knob(k, text.c_str(), out), k.name))
          << k.name << "=" << text;
      EXPECT_TRUE(mentions(resolve({{k.name, text}}).error, k.name))
          << k.name << "=" << text;
    }
    for (const double v : {k.lo, k.hi}) {
      KnobValue out;
      EXPECT_EQ(parse_knob(k, number(k, v).c_str(), out), "") << k.name;
      EXPECT_EQ(out.num, v) << k.name;
    }
  }
}

TEST(KnobTable, AnEmptyValueEqualsUnsetForEveryKnob) {
  const KnobSet unset = resolve({});
  for (const Knob& k : kKnobs) {
    const KnobSet empty = resolve({{k.name, ""}});
    EXPECT_EQ(empty.error, unset.error) << k.name;
    for (size_t i = 0; i < kKnobs.size(); ++i) {
      EXPECT_EQ(empty.v[i].set, unset.v[i].set) << k.name;
      EXPECT_EQ(empty.v[i].num, unset.v[i].num) << k.name;
      EXPECT_EQ(empty.v[i].text, unset.v[i].text) << k.name;
    }
  }
  // The SLO watchdog stays disarmed: an empty REPRO_SLO_MAX_DEGRADED is not
  // a target of zero degraded domains.
  EXPECT_FALSE(resolve({{"REPRO_SLO_MAX_DEGRADED", ""}})
                   .on(KnobId("REPRO_SLO_MAX_DEGRADED").index));
}

TEST(KnobTable, EachDependsOnRuleFires) {
  int rules = 0;
  for (const Knob& k : kKnobs) {
    if (k.depends == nullptr) continue;
    ++rules;
    ASSERT_NE(k.def, nullptr) << k.name;
    const std::string error = resolve({{k.name, k.def}}).error;
    EXPECT_TRUE(mentions(error, k.name)) << k.name;
    EXPECT_TRUE(mentions(error, "unset or off")) << k.name;
    for (const std::string& parent : split(k.depends, "/")) {
      ASSERT_EQ(kParentOn.count(parent), 1u) << parent;
      const Env with_parent = {{k.name, k.def}, {parent, kParentOn.at(parent)}};
      EXPECT_EQ(resolve(with_parent).error, "")
          << k.name << " with " << parent << " on";
      // A parent set to its own default is off, so the rule still fires.
      for (const Knob& p : kKnobs) {
        if (p.name != parent || p.def == nullptr) continue;
        EXPECT_TRUE(
            mentions(resolve({{k.name, k.def}, {parent, p.def}}).error, k.name))
            << k.name << " with " << parent << "=" << p.def;
      }
    }
  }
  EXPECT_EQ(rules, 7);  // timeseries, SLO budget, 2 rebuild, 3 tier
}

TEST(KnobTable, JsonAndTraceMustNameDifferentFiles) {
  EXPECT_TRUE(mentions(
      resolve({{"REPRO_JSON", "a.json"}, {"REPRO_TRACE", "a.json"}}).error,
      "REPRO_TRACE"));
  EXPECT_EQ(
      resolve({{"REPRO_JSON", "a.json"}, {"REPRO_TRACE", "b.json"}}).error, "");
}

TEST(KnobTable, TimeseriesIntervalMustFitTheRun) {
  Env env = {{"REPRO_JSON", "a.json"}, {"REPRO_SECONDS", "2"}};
  env["REPRO_TIMESERIES_MS"] = "2001";
  EXPECT_TRUE(mentions(resolve(env).error, "REPRO_TIMESERIES_MS"));
  env["REPRO_TIMESERIES_MS"] = "2000";
  EXPECT_EQ(resolve(env).error, "");
}

TEST(KnobTable, ThreadsAreCheckedAgainstShards) {
  const auto error = [](const char* shards, const char* threads) {
    return resolve({{"REPRO_SHARDS", shards}, {"REPRO_THREADS", threads}})
        .error;
  };
  EXPECT_TRUE(mentions(error("2", "4"), "REPRO_THREADS"));
  EXPECT_TRUE(mentions(error("1", "1"), "REPRO_THREADS"));
  EXPECT_EQ(error("4", "4"), "");
  EXPECT_EQ(error("4", "2"), "");
  EXPECT_EQ(error("1", "0"), "");
}

// EXPERIMENTS.md documents every knob; its reference table must agree with
// kKnobs row for row on name, type/range and default.
TEST(KnobTable, MatchesTheExperimentsKnobReference) {
  std::ifstream in(SRCACHE_EXPERIMENTS_MD);
  ASSERT_TRUE(in) << SRCACHE_EXPERIMENTS_MD;
  std::vector<std::vector<std::string>> rows;
  bool in_section = false;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("## ", 0) == 0)
      in_section = line == "## REPRO_* knob reference";
    if (in_section && line.rfind("| `REPRO_", 0) == 0)
      rows.push_back(split(line.substr(2, line.size() - 4), " | "));
  }
  ASSERT_EQ(rows.size(), kKnobs.size());
  for (size_t i = 0; i < kKnobs.size(); ++i) {
    const Knob& k = kKnobs[i];
    ASSERT_EQ(rows[i].size(), 5u) << k.name;
    EXPECT_EQ(strip(rows[i][0]), k.name);
    const std::string values = rows[i][1];
    const std::string def = strip(rows[i][2]);
    if (values == "path") {
      EXPECT_EQ(k.type, Knob::kPath) << k.name;
    } else if (values == "plan string") {
      EXPECT_EQ(k.type, Knob::kFaultPlan) << k.name;
    } else if (values[0] == '`') {
      const std::vector<std::string> names = split(values, ", ");
      const size_t kinds =
          k.type == Knob::kEviction
              ? static_cast<size_t>(policy::EvictionKind::kSieve) + 1
              : static_cast<size_t>(policy::AdmissionKind::kGhost) + 1;
      EXPECT_TRUE(k.type == Knob::kEviction || k.type == Knob::kAdmission)
          << k.name;
      EXPECT_EQ(names.size(), kinds) << k.name;
      for (const std::string& name : names) {
        KnobValue v;
        EXPECT_EQ(parse_knob(k, strip(name).c_str(), v), "") << k.name;
      }
    } else {
      const std::vector<std::string> parts = split(values, ", ");
      ASSERT_EQ(parts.size(), 2u) << k.name;
      const std::string type = split(parts[0], " ")[0];
      EXPECT_EQ(k.type, type == "int" ? Knob::kInt : Knob::kFloat) << k.name;
      EXPECT_TRUE(type == "int" || type == "float") << k.name;
      const std::vector<std::string> range = split(parts[1], "–");
      ASSERT_EQ(range.size(), 2u) << k.name;
      EXPECT_EQ(std::strtod(range[0].c_str(), nullptr), k.lo) << k.name;
      EXPECT_EQ(std::strtod(range[1].c_str(), nullptr), k.hi) << k.name;
    }
    const std::string doc_def = def.substr(0, def.find(" ("));
    if (doc_def == "unset") {
      EXPECT_EQ(k.def, nullptr) << k.name;
    } else if (k.def == nullptr) {
      ADD_FAILURE() << k.name << " documents default " << doc_def;
    } else if (k.type == Knob::kFloat || k.type == Knob::kInt) {
      EXPECT_EQ(std::strtod(doc_def.c_str(), nullptr),
                std::strtod(k.def, nullptr))
          << k.name;
    } else {
      EXPECT_EQ(doc_def, k.def) << k.name;
    }
  }
}

}  // namespace
}  // namespace srcache::bench
