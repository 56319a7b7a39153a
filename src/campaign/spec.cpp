#include "campaign/spec.h"

#include <fstream>
#include <sstream>

#include "exp/axes.h"
#include "util/parse.h"

namespace triad::campaign {
namespace {

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t' ||
                           text.back() == '\r')) {
    text.remove_suffix(1);
  }
  return text;
}

/// Splits a comma-separated list into trimmed, non-empty items.
std::vector<std::string> split_list(std::string_view text) {
  std::vector<std::string> items;
  while (!text.empty()) {
    const std::size_t comma = text.find(',');
    const std::string_view item =
        trim(comma == std::string_view::npos ? text : text.substr(0, comma));
    if (!item.empty()) items.emplace_back(item);
    if (comma == std::string_view::npos) break;
    text.remove_prefix(comma + 1);
  }
  return items;
}

}  // namespace

std::size_t CampaignSpec::cell_count() const {
  return node_counts.size() * environments.size() * policies.size() *
         attacks.size();
}

std::size_t CampaignSpec::run_count() const {
  return cell_count() * seeds.size();
}

std::string CampaignSpec::validate() const {
  if (seeds.empty()) return "spec has no seeds";
  if (attacks.empty()) return "spec has no attacks";
  if (policies.empty()) return "spec has no policies";
  if (environments.empty()) return "spec has no environments";
  if (node_counts.empty()) return "spec has no node counts";
  for (const std::string& a : attacks) {
    if (!exp::kAttacks.find(a)) return exp::kAttacks.bad(a);
  }
  for (const std::string& p : policies) {
    if (!exp::kPolicies.find(p)) return exp::kPolicies.bad(p);
  }
  for (const std::string& e : environments) {
    if (!exp::kEnvironments.find(e)) return exp::kEnvironments.bad(e);
  }
  for (const std::size_t n : node_counts) {
    if (n == 0) return "bad node count 0";
    if (victim > n) {
      return "victim " + std::to_string(victim) + " exceeds cluster size " +
             std::to_string(n);
    }
  }
  if (duration <= 0) return "bad duration";
  return {};
}

std::vector<RunSpec> CampaignSpec::expand() const {
  std::vector<RunSpec> runs;
  runs.reserve(run_count());
  std::size_t cell = 0;
  for (const std::size_t nodes : node_counts) {
    for (const std::string& environment : environments) {
      for (const std::string& policy : policies) {
        for (const std::string& attack : attacks) {
          for (const std::uint64_t seed : seeds) {
            RunSpec run;
            run.index = runs.size();
            run.cell = cell;
            run.nodes = nodes;
            run.environment = environment;
            run.policy = policy;
            run.attack = attack;
            run.seed = seed;
            run.duration = duration;
            run.attack_delay = attack_delay;
            run.victim = victim;
            run.machine_interrupts = machine_interrupts;
            runs.push_back(std::move(run));
          }
          ++cell;
        }
      }
    }
  }
  return runs;
}

bool set_spec_value(CampaignSpec* spec, std::string_view key,
                    std::string_view value, std::string* error) {
  const auto bad = [&](std::string_view what) {
    if (error != nullptr) {
      *error = "bad " + std::string(what) + " '" + std::string(value) + "'";
    }
    return false;
  };
  if (key == "seeds") {
    spec->seeds.clear();
    for (const std::string& item : split_list(value)) {
      std::uint64_t lo = 0, hi = 0;
      // Count before building: the whole axis holds at most kMaxSeeds.
      if (!parse_seed_range(item, &lo, &hi) ||
          hi - lo >= kMaxSeeds - spec->seeds.size()) {
        return bad("seeds");
      }
      // Stop at hi itself: ++ past hi == 2^64-1 would wrap to 0.
      for (std::uint64_t s = lo;; ++s) {
        spec->seeds.push_back(s);
        if (s == hi) break;
      }
    }
    if (spec->seeds.empty()) return bad("seeds");
  } else if (key == "attacks") {
    spec->attacks = split_list(value);
  } else if (key == "policies") {
    spec->policies = split_list(value);
  } else if (key == "environments") {
    spec->environments = split_list(value);
  } else if (key == "nodes") {
    spec->node_counts.clear();
    for (const std::string& item : split_list(value)) {
      std::uint64_t n = 0;
      if (!parse_u64(item, &n) || n == 0 || n > kMaxNodes) {
        return bad("nodes");
      }
      spec->node_counts.push_back(n);
    }
    if (spec->node_counts.empty()) return bad("nodes");
  } else if (key == "duration") {
    if (!parse_duration(value, &spec->duration) || spec->duration <= 0) {
      return bad("duration");
    }
  } else if (key == "attack_delay") {
    if (!parse_duration(value, &spec->attack_delay)) return bad("attack_delay");
  } else if (key == "victim") {
    std::uint64_t v = 0;
    if (!parse_u64(value, &v)) return bad("victim");
    spec->victim = v;
  } else if (key == "machine_interrupts") {
    if (value != "on" && value != "off") {
      return bad("machine_interrupts (on|off)");
    }
    spec->machine_interrupts = value == "on";
  } else {
    if (error != nullptr) *error = "unknown key '" + std::string(key) + "'";
    return false;
  }
  return true;
}

std::optional<CampaignSpec> parse_spec(std::string_view text,
                                       std::string* error) {
  CampaignSpec spec;
  auto fail = [error](std::string message) -> std::optional<CampaignSpec> {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };

  std::size_t line_no = 0;
  while (!text.empty()) {
    ++line_no;
    const std::size_t newline = text.find('\n');
    std::string_view line =
        newline == std::string_view::npos ? text : text.substr(0, newline);
    text.remove_prefix(newline == std::string_view::npos ? text.size()
                                                         : newline + 1);
    if (const std::size_t hash = line.find('#');
        hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) continue;

    const std::string where = "spec line " + std::to_string(line_no) + ": ";
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return fail(where + "expected key = value");
    }
    std::string message;
    if (!set_spec_value(&spec, trim(line.substr(0, eq)),
                        trim(line.substr(eq + 1)), &message)) {
      return fail(where + message);
    }
  }

  if (std::string message = spec.validate(); !message.empty()) {
    return fail(std::move(message));
  }
  return spec;
}

std::optional<CampaignSpec> parse_spec_file(const std::string& path,
                                            std::string* error) {
  std::ifstream file(path);
  if (!file) {
    if (error != nullptr) *error = "cannot open spec file " + path;
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return parse_spec(buffer.str(), error);
}

}  // namespace triad::campaign
