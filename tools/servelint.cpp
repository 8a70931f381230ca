// servelint: deploy-time SLO schedulability analysis over checked-in
// serving specs, standalone.
//
// Loads one or more *.envelope spec files — each describing a placement
// (models, replicas, shared-PU tenancy) plus its declared TrafficEnvelope —
// runs the capacity analyzer (src/analysis/capacity.hpp) over each, and
// prints the per-proof bound table: device utilization, worst-case
// interactive latency against its deadline, batch-lane feasibility, and
// queue-capacity overflow. Exits nonzero if any spec fails a proof
// obligation — CI runs this over bench/envelopes/ so "every benchmarked
// serving config is schedulable" stays an enforced invariant, the serving
// analogue of planlint's overflow-freedom check.
//
// Usage:
//   servelint <spec.envelope>...
//   (exit 0: all schedulable, 1: some spec infeasible, 2: bad spec)
//
// Spec format (line-oriented; '#' starts a comment):
//   model <name>                   starts a model section
//   arrival_rps <x>                envelope scalars, applied to the
//   interactive_fraction <x>         current model section
//   interactive_burst <n>
//   interactive_deadline_us <x>
//   batch_deadline_us <x>
//   batch_quota <n>
//   admission_control <0|1>
//   replica k=v k=v ...            one replica; keys: device, shared,
//                                    speed_factor, sample_us, max_batch,
//                                    max_wait_us, queue_capacity, switch_us,
//                                    max_pass_samples, cobatch,
//                                    coalesce_window_us, pass_overhead_us,
//                                    preempt_granularity_us
//
// Replicas naming the same `device` with shared=1 are tenants of one PU
// (the analyzer prices their mutual blocking); dedicated replicas get
// private per-replica device keys. Every number must be finite and >= 0,
// <n> values and max_wait_us/coalesce_window_us whole, speed_factor > 0;
// anything else is a bad spec (exit 2), never a proof over garbage.
// docs/static-analysis.md walks through a full spec.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/capacity.hpp"

namespace {

using mfdfp::analysis::ModelFacts;
using mfdfp::analysis::ReplicaFacts;

struct ParseError {
  std::string message;
};

/// Every spec quantity is a finite, non-negative number.
double to_double(const std::string& token, const std::string& context) {
  double value = 0.0;
  try {
    std::size_t used = 0;
    value = std::stod(token, &used);
    if (used != token.size()) throw std::invalid_argument(token);
  } catch (const std::exception&) {
    throw ParseError{"bad number '" + token + "' in " + context};
  }
  if (!std::isfinite(value) || value < 0.0) {
    throw ParseError{"number '" + token + "' must be finite and >= 0 in " +
                     context};
  }
  return value;
}

/// A whole number that fits T, so the cast below is defined.
template <typename T>
T to_whole(const std::string& token, const std::string& context) {
  const double value = to_double(token, context);
  if (value != std::floor(value) ||
      value >= static_cast<double>(std::numeric_limits<T>::max())) {
    throw ParseError{"count '" + token +
                     "' must be a whole number in range in " + context};
  }
  return static_cast<T>(value);
}

std::size_t to_count(const std::string& token, const std::string& context) {
  return to_whole<std::size_t>(token, context);
}

/// One `k=v` token of a replica line.
void apply_replica_key(ReplicaFacts& replica, const std::string& key,
                       const std::string& value, const std::string& context) {
  if (key == "device") {
    replica.device = value;
  } else if (key == "shared") {
    replica.shared = to_count(value, context) != 0;
  } else if (key == "speed_factor") {
    replica.speed_factor = to_double(value, context);
    if (replica.speed_factor <= 0.0) {
      throw ParseError{"speed_factor must be > 0 in " + context};
    }
  } else if (key == "sample_us") {
    replica.sample_us = to_double(value, context);
  } else if (key == "max_batch") {
    replica.max_batch = to_count(value, context);
  } else if (key == "max_wait_us") {
    replica.max_wait_us = to_whole<std::int64_t>(value, context);
  } else if (key == "queue_capacity") {
    replica.queue_capacity = to_count(value, context);
  } else if (key == "switch_us") {
    replica.switch_us = to_double(value, context);
  } else if (key == "max_pass_samples") {
    replica.max_pass_samples = to_count(value, context);
  } else if (key == "cobatch") {
    replica.cobatch = to_count(value, context) != 0;
  } else if (key == "coalesce_window_us") {
    replica.coalesce_window_us = to_whole<std::int64_t>(value, context);
  } else if (key == "pass_overhead_us") {
    replica.pass_overhead_us = to_double(value, context);
  } else if (key == "preempt_granularity_us") {
    replica.preempt_granularity_us = to_double(value, context);
  } else {
    throw ParseError{"unknown replica key '" + key + "' in " + context};
  }
}

std::vector<ModelFacts> parse_spec(std::istream& in,
                                   const std::string& path) {
  std::vector<ModelFacts> models;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string context =
        path + ":" + std::to_string(line_no);
    if (const std::size_t hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream tokens(line);
    std::string keyword;
    if (!(tokens >> keyword)) continue;  // blank / comment-only line

    if (keyword == "model") {
      std::string name;
      if (!(tokens >> name)) throw ParseError{"model needs a name, " + context};
      models.emplace_back();
      models.back().model = name;
      continue;
    }
    if (models.empty()) {
      throw ParseError{"'" + keyword + "' before any model section, " +
                       context};
    }
    ModelFacts& model = models.back();

    if (keyword == "replica") {
      ReplicaFacts replica;
      std::string pair;
      while (tokens >> pair) {
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0) {
          throw ParseError{"replica token '" + pair + "' is not k=v, " +
                           context};
        }
        apply_replica_key(replica, pair.substr(0, eq), pair.substr(eq + 1),
                          context);
      }
      if (replica.device.empty()) {
        throw ParseError{"replica without device=..., " + context};
      }
      // Tenants of one shared PU share its key; dedicated replicas are
      // private hardware — same derivation ReplicaSet::capacity_facts uses.
      replica.device_key =
          replica.shared
              ? replica.device
              : model.model + "/" + replica.device + "#r" +
                    std::to_string(model.replicas.size());
      model.replicas.push_back(replica);
      continue;
    }

    std::string value;
    if (!(tokens >> value)) {
      throw ParseError{"'" + keyword + "' needs a value, " + context};
    }
    if (keyword == "arrival_rps") {
      model.envelope.arrival_rps = to_double(value, context);
    } else if (keyword == "interactive_fraction") {
      model.envelope.interactive_fraction = to_double(value, context);
    } else if (keyword == "interactive_burst") {
      model.envelope.interactive_burst = to_count(value, context);
    } else if (keyword == "interactive_deadline_us") {
      model.envelope.interactive_deadline_us = to_double(value, context);
    } else if (keyword == "batch_deadline_us") {
      model.envelope.batch_deadline_us = to_double(value, context);
    } else if (keyword == "batch_quota") {
      model.batch_quota = to_count(value, context);
    } else if (keyword == "admission_control") {
      model.admission_control = to_count(value, context) != 0;
    } else {
      throw ParseError{"unknown keyword '" + keyword + "', " + context};
    }
  }
  if (models.empty()) throw ParseError{path + ": no model sections"};
  return models;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: servelint <spec.envelope>...\n");
    return 2;
  }

  int infeasible = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string path = argv[i];
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "servelint: cannot read %s\n", path.c_str());
      return 2;
    }
    std::vector<ModelFacts> models;
    try {
      models = parse_spec(in, path);
    } catch (const ParseError& error) {
      std::fprintf(stderr, "servelint: %s\n", error.message.c_str());
      return 2;
    }

    const mfdfp::analysis::CapacityReport report =
        mfdfp::analysis::analyze_capacity(models);
    std::printf("== %s ==\n", path.c_str());
    std::printf("%s", report.table("schedulability bounds").c_str());
    std::printf("%s\n\n", report.summary().c_str());
    if (!report.feasible()) ++infeasible;
  }

  if (infeasible != 0) {
    std::fprintf(stderr, "servelint: %d spec(s) infeasible\n", infeasible);
    return 1;
  }
  std::printf("servelint: all specs schedulable\n");
  return 0;
}
