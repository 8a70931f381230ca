#include "analysis/capacity.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/table.hpp"

namespace mfdfp::analysis {

namespace {

/// One (model, replica) row on a physical device, with the
/// speed-proportional share of the model's declared rate that routing
/// steers to it (kNormalizedWork balances load so a 2x device absorbs 2x
/// traffic; the proofs assume that declared split).
struct TenantShare {
  const ModelFacts* model = nullptr;
  const ReplicaFacts* replica = nullptr;
  double rate_rps = 0.0;
};

/// All tenants contending for one physical device (same device_key).
struct DeviceGroup {
  std::string key;
  std::string name;
  bool shared = false;
  std::vector<TenantShare> tenants;
  double busy_us_per_s = 0.0;
  bool stable = true;
  /// Any tenant declared an envelope: only then does the device carry
  /// proof obligations (undeclared models still contribute blocking).
  bool obligated = false;
};

std::size_t pass_cap(const ReplicaFacts& pu) {
  return std::max<std::size_t>(pu.max_pass_samples, 1);
}

/// Samples per sub-batch of `t` that the utilization proof amortizes
/// per-pass costs over (a shared PU co-batches at most a pass cap's worth).
std::size_t sub_batch_samples(const ReplicaFacts& t) {
  const std::size_t batch = std::max<std::size_t>(t.max_batch, 1);
  return t.shared ? std::min(batch, pass_cap(t)) : batch;
}

/// Modeled cost of one whole sub-batch of `t` through its device (a shared
/// PU never splits a sub-batch across passes, even past max_pass_samples),
/// including the per-pass costs it can be charged (weight reload + pass
/// overhead on a shared PU; a dedicated engine batch pays neither).
double sub_batch_cost_us(const ReplicaFacts& t) {
  const double extra = t.shared ? t.switch_us + t.pass_overhead_us : 0.0;
  return committed_delay_us(
      static_cast<double>(std::max<std::size_t>(t.max_batch, 1)), t.sample_us,
      extra);
}

/// Chunked passes on this device? (SharedDevice preemption: chunks only
/// exist on co-batching shared PUs with a positive granularity. Time-sliced
/// PUs keep the monolithic bounds — conservative, and one sub-batch is
/// already the pass there.)
bool preemptible(const DeviceGroup& d) {
  const ReplicaFacts& pu = *d.tenants.front().replica;
  return d.shared && pu.cobatch && pu.preempt_granularity_us > 0.0;
}

/// Worst case of one monolithic co-batched pass: a maximal pass of the
/// slowest tenant's samples that pays every tenant's weight reload (the
/// exact ablation_shared_pu tail shape). SharedDevice admits a pass's lead
/// sub-batch whole, so a pass holds max(max_pass_samples, largest
/// max_batch) samples.
double pass_blocking_us(const DeviceGroup& d) {
  const ReplicaFacts& pu = *d.tenants.front().replica;
  std::size_t samples = pass_cap(pu);
  double switch_sum = 0.0;
  double max_sample = 0.0;
  for (const TenantShare& t : d.tenants) {
    samples = std::max(samples, t.replica->max_batch);
    switch_sum += t.replica->switch_us;
    max_sample = std::max(max_sample, t.replica->sample_us);
  }
  return committed_delay_us(static_cast<double>(samples), max_sample,
                            switch_sum + pu.pass_overhead_us);
}

/// Worst case of one *chunk* on a preemptible PU: at most the granularity
/// of compute (SharedDevice never plans below one sample, so the slowest
/// tenant's sample floors it), plus the one reload a chunk can pay
/// entering (the largest tenant's — chunks never mix tenants), plus the
/// pass overhead a first chunk carries.
double chunk_blocking_us(const DeviceGroup& d) {
  const ReplicaFacts& pu = *d.tenants.front().replica;
  double max_switch = 0.0;
  double max_sample = 0.0;
  for (const TenantShare& t : d.tenants) {
    max_switch = std::max(max_switch, t.replica->switch_us);
    max_sample = std::max(max_sample, t.replica->sample_us);
  }
  return std::max(pu.preempt_granularity_us, max_sample) + max_switch +
         pu.pass_overhead_us;
}

/// The largest non-preemptible unit the device can be busy with when a
/// request arrives — the term every latency bound starts from. Co-batching
/// shared PU: a maximal monolithic pass, or — when the PU is preemptible —
/// one maximal chunk (min()'d against the pass, so the chunked bound can
/// only ever tighten). Time-sliced shared PU: the costliest single
/// sub-batch pass. Dedicated: one full engine batch.
double blocking_us(const DeviceGroup& d) {
  double worst = 0.0;
  if (d.shared && d.tenants.front().replica->cobatch) {
    const double pass = pass_blocking_us(d);
    return preemptible(d) ? std::min(pass, chunk_blocking_us(d)) : pass;
  }
  for (const TenantShare& t : d.tenants) {
    worst = std::max(worst, sub_batch_cost_us(*t.replica));
  }
  return worst;
}

/// Host-side pass-formation latency a request can additionally wait: the
/// coalesce window applies only to co-batching shared PUs — and never to
/// probes on a preemptible one, where a pending interactive sub-batch cuts
/// the window (SharedDevice::wait_for_work_locked) and late work joins
/// in-flight passes instead of waiting for formation.
double window_us(const DeviceGroup& d) {
  const ReplicaFacts& r = *d.tenants.front().replica;
  return d.shared && r.cobatch && !preemptible(d)
             ? static_cast<double>(std::max<std::int64_t>(
                   r.coalesce_window_us, 0))
             : 0.0;
}

/// Worst-case cost of getting ONE of `t`'s sub-batches through the device
/// once it is at the head of its lane. Co-batching: it rides a pass that
/// may be maximal (neighbours fill it and every reload is paid);
/// preemptible: it preempts after at most one more chunk and rides its own
/// probe pass (its sub-batch cost, reload included). Time-sliced: fairness
/// gives every other tenant one sub-batch pass per round-robin sweep
/// before `t` rides again. Dedicated: its own batch.
double ride_us(const DeviceGroup& d, const ReplicaFacts& t) {
  if (!d.shared) return sub_batch_cost_us(t);
  if (t.cobatch) {
    const double pass = pass_blocking_us(d);
    return preemptible(d)
               ? std::min(pass, chunk_blocking_us(d) + sub_batch_cost_us(t))
               : pass;
  }
  double sweep = 0.0;
  for (const TenantShare& other : d.tenants) {
    sweep += sub_batch_cost_us(*other.replica);
  }
  return sweep;
}

std::string fmt_rho(double busy_us_per_s) {
  return util::fmt_fixed(busy_us_per_s / 1e6, 3);
}

/// Sub-batches the interactive burst of `m` spans on replica `t`.
double burst_sub_batches(const ModelFacts& m, const ReplicaFacts& t) {
  const double burst = static_cast<double>(
      std::max<std::size_t>(m.envelope.interactive_burst, 1));
  return std::ceil(burst / static_cast<double>(
                               std::max<std::size_t>(t.max_batch, 1)));
}

}  // namespace

const char* proof_name(ProofKind proof) noexcept {
  switch (proof) {
    case ProofKind::kUtilization:        return "utilization";
    case ProofKind::kInteractiveLatency: return "interactive_latency";
    case ProofKind::kBatchFeasibility:   return "batch_feasibility";
    case ProofKind::kQueueCapacity:      return "queue_capacity";
  }
  return "unknown";
}

const char* verdict_name(Verdict verdict) noexcept {
  switch (verdict) {
    case Verdict::kProven:    return "proven";
    case Verdict::kViolated:  return "VIOLATED";
    case Verdict::kUnbounded: return "UNBOUNDED";
  }
  return "unknown";
}

bool CapacityReport::feasible() const noexcept {
  return std::all_of(findings.begin(), findings.end(), [](const Finding& f) {
    return f.verdict == Verdict::kProven;
  });
}

std::size_t CapacityReport::violated_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(), [](const Finding& f) {
        return f.verdict == Verdict::kViolated;
      }));
}

std::size_t CapacityReport::unbounded_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(), [](const Finding& f) {
        return f.verdict == Verdict::kUnbounded;
      }));
}

std::string CapacityReport::table(const std::string& title) const {
  util::TablePrinter table(title);
  table.set_header({"device", "model", "proof", "worst case", "budget",
                    "verdict", "explanation"});
  for (const Finding& f : findings) {
    table.add_row({f.device.empty() ? "-" : f.device,
                   f.model.empty() ? "-" : f.model, proof_name(f.proof),
                   util::fmt_fixed(f.worst_case_us, 1),
                   util::fmt_fixed(f.budget_us, 1), verdict_name(f.verdict),
                   f.explanation});
  }
  return table.to_string();
}

std::string CapacityReport::summary() const {
  const std::size_t violated = violated_count();
  const std::size_t unbounded = unbounded_count();
  if (violated == 0 && unbounded == 0) {
    return "capacity: " + std::to_string(findings.size()) +
           " proof obligation(s) hold — placement feasible";
  }
  std::string out = "capacity: " + std::to_string(violated) + " violated, " +
                    std::to_string(unbounded) + " unbounded of " +
                    std::to_string(findings.size()) +
                    " proof obligation(s) — INFEASIBLE";
  for (const Finding& f : findings) {
    if (f.verdict == Verdict::kProven) continue;
    out += ": [" + std::string(proof_name(f.proof)) +
           (f.model.empty() ? "" : " " + f.model) +
           (f.device.empty() ? "" : " on " + f.device) + "] " + f.explanation;
    break;  // first failure only; the table has the rest
  }
  return out;
}

CapacityReport analyze_capacity(const std::vector<ModelFacts>& models) {
  CapacityReport report;

  // ---- Group replicas by physical device, with speed-split rates --------
  std::vector<DeviceGroup> devices;
  const auto group_of = [&devices](const ReplicaFacts& r) -> DeviceGroup& {
    for (DeviceGroup& d : devices) {
      if (d.key == r.device_key) return d;
    }
    devices.push_back(DeviceGroup{r.device_key, r.device, r.shared, {}, 0.0,
                                  true, false});
    return devices.back();
  };
  for (const ModelFacts& m : models) {
    double total_speed = 0.0;
    for (const ReplicaFacts& r : m.replicas) total_speed += r.speed_factor;
    for (const ReplicaFacts& r : m.replicas) {
      DeviceGroup& d = group_of(r);
      const double share =
          total_speed > 0.0 ? r.speed_factor / total_speed : 0.0;
      d.tenants.push_back(
          TenantShare{&m, &r, m.envelope.arrival_rps * share});
      d.obligated = d.obligated || m.envelope.declared() ||
                    m.envelope.interactive_deadline_us > 0.0;
    }
  }

  // ---- Proof 1: per-device utilization, rho < 1 -------------------------
  for (DeviceGroup& d : devices) {
    double compute = 0.0;    // us of samples per wall second
    double amortized = 0.0;  // us of reloads + pass overhead per second
    double total_rate = 0.0;
    for (const TenantShare& t : d.tenants) {
      compute += t.rate_rps * t.replica->sample_us;
      total_rate += t.rate_rps;
    }
    if (d.shared) {
      const ReplicaFacts& pu = *d.tenants.front().replica;
      if (pu.cobatch) {
        // Under backlog the scheduler fills passes to max_pass_samples, so
        // the sustained pass rate is total_rate / max_pass, each pass
        // paying at worst every tenant's reload plus the fixed overhead.
        double switch_sum = 0.0;
        for (const TenantShare& t : d.tenants) {
          switch_sum += t.replica->switch_us;
        }
        amortized = total_rate / static_cast<double>(pass_cap(pu)) *
                    (switch_sum + pu.pass_overhead_us);
        if (pu.preempt_granularity_us > 0.0) {
          // Preemption reload tax: every probe sub-batch can suspend a
          // pass, forcing its own reload on entry and the suspended
          // tenant's again on resume — worst case two reloads per probe
          // sub-batch beyond the amortized schedule above.
          double max_switch = 0.0;
          for (const TenantShare& t : d.tenants) {
            max_switch = std::max(max_switch, t.replica->switch_us);
          }
          for (const TenantShare& t : d.tenants) {
            const double interactive_rps =
                t.rate_rps * t.model->envelope.interactive_fraction;
            if (interactive_rps <= 0.0) continue;
            amortized +=
                interactive_rps /
                static_cast<double>(sub_batch_samples(*t.replica)) *
                (t.replica->switch_us + max_switch);
          }
        }
      } else {
        // Time-sliced: every sub-batch is its own pass; worst case each
        // one reloads (strict round-robin alternates models).
        for (const TenantShare& t : d.tenants) {
          amortized +=
              t.rate_rps /
              static_cast<double>(sub_batch_samples(*t.replica)) *
              (t.replica->switch_us + t.replica->pass_overhead_us);
        }
      }
    }
    d.busy_us_per_s = compute + amortized;
    d.stable = d.busy_us_per_s < 1e6;
    if (!d.obligated) continue;
    Finding f;
    f.proof = ProofKind::kUtilization;
    f.verdict = d.stable ? Verdict::kProven : Verdict::kViolated;
    f.device = d.name;
    f.worst_case_us = d.busy_us_per_s;
    f.budget_us = 1e6;
    f.explanation = "rho=" + fmt_rho(d.busy_us_per_s) + " (compute " +
                    util::fmt_fixed(compute, 0) + "us/s + reload/overhead " +
                    util::fmt_fixed(amortized, 0) +
                    "us/s per wall second; stability needs rho < 1)";
    report.findings.push_back(std::move(f));
  }

  // ---- Per-model obligations -------------------------------------------
  for (const ModelFacts& m : models) {
    const bool has_interactive_slo = m.envelope.interactive_deadline_us > 0.0;
    const bool has_batch_slo = m.envelope.batch_deadline_us > 0.0;

    // Proof 2: interactive worst case per (model, device). Routing may
    // pick any replica under transient load, so the bound must hold on
    // every device the model is placed on.
    if (has_interactive_slo) {
      std::vector<std::string> seen_keys;
      for (const ReplicaFacts& r : m.replicas) {
        const DeviceGroup& d = group_of(r);
        if (std::find(seen_keys.begin(), seen_keys.end(), d.key) !=
            seen_keys.end()) {
          continue;  // co-located replicas share one bound
        }
        seen_keys.push_back(d.key);
        const double blocking = blocking_us(d);
        const double ride = ride_us(d, r);
        const double rides = burst_sub_batches(m, r);
        const double bound =
            blocking + window_us(d) +
            static_cast<double>(std::max<std::int64_t>(r.max_wait_us, 0)) +
            rides * ride;
        Finding f;
        f.proof = ProofKind::kInteractiveLatency;
        f.device = d.name;
        f.model = m.model;
        f.worst_case_us = bound;
        f.budget_us = m.envelope.interactive_deadline_us;
        f.verdict = !d.stable ? Verdict::kUnbounded
                    : bound <= f.budget_us ? Verdict::kProven
                                           : Verdict::kViolated;
        f.explanation =
            "blocking " + util::fmt_fixed(blocking, 0) + "us + window " +
            util::fmt_fixed(window_us(d), 0) + "us + batch wait " +
            std::to_string(r.max_wait_us) + "us + " +
            util::fmt_fixed(rides, 0) + " burst sub-batch ride(s) x " +
            util::fmt_fixed(ride, 0) + "us" +
            (preemptible(d)
                 ? "; preemptible PU: blocking/ride are one chunk wide"
                 : "") +
            (!d.stable ? "; device unstable, bound not attainable" : "");
        report.findings.push_back(std::move(f));
      }
    }

    // Proof 3: batch-lane feasibility. The floor is the best service any
    // kBatch sub-batch can hope for across the replicas — above the
    // budget, admission sheds (or the deadline expires) 100% of the lane.
    if (has_batch_slo || (m.batch_quota > 0 && m.envelope.batch_rps() > 0)) {
      double floor = std::numeric_limits<double>::infinity();
      const ReplicaFacts* best = nullptr;
      bool best_stable = true;
      for (const ReplicaFacts& r : m.replicas) {
        const DeviceGroup& d = group_of(r);
        const double f = blocking_us(d) + window_us(d) +
                         static_cast<double>(
                             std::max<std::int64_t>(r.max_wait_us, 0)) +
                         ride_us(d, r);
        if (f < floor) {
          floor = f;
          best = &r;
          best_stable = d.stable;
        }
      }
      if (best != nullptr && has_batch_slo) {
        Finding f;
        f.proof = ProofKind::kBatchFeasibility;
        f.device = best->device;
        f.model = m.model;
        f.worst_case_us = floor;
        f.budget_us = m.envelope.batch_deadline_us;
        f.verdict = !best_stable ? Verdict::kUnbounded
                    : floor <= f.budget_us ? Verdict::kProven
                                           : Verdict::kViolated;
        f.explanation =
            "best-case service floor of one kBatch sub-batch; above the "
            "budget the lane starves (" +
            std::string(m.admission_control ? "admission sheds every request"
                                            : "every request times out") +
            ")";
        report.findings.push_back(std::move(f));
      }
      if (best != nullptr && m.batch_quota > 0 &&
          m.envelope.batch_rps() > 0) {
        // Little's law: sustaining batch_rps at the floor needs this many
        // requests in flight; a smaller quota sheds declared traffic.
        const double occupancy = m.envelope.batch_rps() * floor / 1e6;
        Finding f;
        f.proof = ProofKind::kBatchFeasibility;
        f.device = best->device;
        f.model = m.model;
        f.worst_case_us = occupancy;
        f.budget_us = static_cast<double>(m.batch_quota);
        f.verdict = !best_stable ? Verdict::kUnbounded
                    : occupancy <= f.budget_us ? Verdict::kProven
                                               : Verdict::kViolated;
        f.explanation =
            "Little's-law occupancy (requests in flight) of the declared "
            "batch rate vs batch_quota slots";
        report.findings.push_back(std::move(f));
      }
    }

    // Proof 4: queue capacity per (model, device): arrivals during one
    // worst-case stall (blocking + window + batch wait), plus the burst,
    // must fit the replica's bounded queue.
    if (m.envelope.declared()) {
      std::vector<std::string> seen_keys;
      for (const ReplicaFacts& r : m.replicas) {
        const DeviceGroup& d = group_of(r);
        if (std::find(seen_keys.begin(), seen_keys.end(), d.key) !=
            seen_keys.end()) {
          continue;
        }
        seen_keys.push_back(d.key);
        double rate = 0.0;  // this model's share steered to this replica
        for (const TenantShare& t : d.tenants) {
          if (t.model == &m && t.replica == &r) rate = t.rate_rps;
        }
        const double horizon =
            blocking_us(d) + window_us(d) +
            static_cast<double>(std::max<std::int64_t>(r.max_wait_us, 0));
        const double needed =
            std::ceil(rate * horizon / 1e6 +
                      static_cast<double>(std::max<std::size_t>(
                          m.envelope.interactive_burst, 1)));
        Finding f;
        f.proof = ProofKind::kQueueCapacity;
        f.device = d.name;
        f.model = m.model;
        f.worst_case_us = needed;
        f.budget_us = static_cast<double>(r.queue_capacity);
        f.verdict = !d.stable ? Verdict::kUnbounded
                    : needed <= f.budget_us ? Verdict::kProven
                                            : Verdict::kViolated;
        f.explanation = "queue slots needed across one " +
                        util::fmt_fixed(horizon, 0) +
                        "us worst-case stall (plus the declared burst) vs "
                        "queue_capacity";
        report.findings.push_back(std::move(f));
      }
    }
  }
  return report;
}

}  // namespace mfdfp::analysis
