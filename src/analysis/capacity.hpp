// Deploy-time SLO schedulability analysis of a serving placement.
//
// The numeric analyzer (analyzer.hpp) proves a CompiledPlan's *values* are
// safe; this module proves a placement's *timing* is: given the static
// facts of a deployment — each replica's per-sample cycle cost on its
// device (speed_factor-scaled, the same number the admission controller
// prices with), batching/queueing knobs, shared-PU tenancy (coalesce
// window, max pass size, weight-reload cost) — and a declared per-model
// TrafficEnvelope (offered rate, interactive/batch mix, deadline budgets),
// it derives worst-case bounds and emits one typed Finding per proof
// obligation:
//
//   kUtilization         per device: modeled busy microseconds per wall
//                        second under the declared rates (compute plus,
//                        on a shared PU, amortized weight reloads and
//                        per-pass overhead) must stay under 1e6 — the
//                        ρ < 1 stability obligation. Every other bound is
//                        meaningful only when this one holds.
//   kInteractiveLatency  per (model, device): worst-case end-to-end delay
//                        of one interactive burst, built from
//                        non-preemptible blocking — the largest possible
//                        pass already on the device (max(max_pass_samples,
//                        the largest max_batch) samples of the slowest
//                        tenant, since a pass's lead sub-batch rides whole,
//                        plus every tenant's weight reload plus pass
//                        overhead; exactly the tail shape
//                        bench/ablation_shared_pu measures), the coalesce
//                        window, the engine's batch-formation wait, and
//                        the burst's own sub-batches each riding a
//                        worst-case pass — vs interactive_deadline_us.
//                        On a preemptible PU (preempt_granularity_us > 0)
//                        the non-preemptible unit is one *chunk*, probes
//                        skip the coalesce window, and each burst ride is
//                        one chunk plus the probe's whole sub-batch — a
//                        strictly tighter bound (never looser: every
//                        chunked term is min()'d against its monolithic
//                        counterpart).
//   kBatchFeasibility    per model: the *best-case* service floor of one
//                        kBatch sub-batch across the replicas vs
//                        batch_deadline_us (a floor above the budget means
//                        admission control starves the lane: every batch
//                        request it admits still times out), plus a
//                        Little's-law check that batch_quota does not cap
//                        outstanding work below what the declared batch
//                        rate needs in flight.
//   kQueueCapacity       per (model, device): arrivals that can pile up
//                        while the device drains one worst-case blocking
//                        term (plus the declared burst) must fit the
//                        replica's bounded queue.
//
// Soundness stance: bounds are conservative (worst-case pass composition,
// worst-case routing choice, no cross-replica overlap credit); a kProven
// finding over-covers the measured tail, never under — which is what
// bench/ablation_capacity enforces against live paced traffic. Verdicts on
// a device whose utilization obligation fails are kUnbounded: with ρ >= 1
// the backlog grows without bound and no finite worst case exists.
//
// Single source of truth: every service/blocking term is assembled through
// committed_delay_us(), the same linear cost formula
// InferenceEngine::estimated_queue_delay_us() admission/routing prices
// with (tests/test_capacity.cpp cross-checks engine, replica set, and analyzer
// on identical inputs).
//
// Consumed by ModelServer::deploy() (DeployConfig.envelope; an infeasible
// placement is rejected as DeployError{kInfeasibleSlo} before it serves a
// single request, or reported when the envelope is warn_only) and by
// tools/servelint.cpp, which prints the per-device bound table for
// checked-in placement specs in CI. docs/static-analysis.md walks through
// the proofs and the table format.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mfdfp::analysis {

/// Declared offered load and SLO budgets of one deployed model — the
/// traffic contract the schedulability proofs hold against. Default
/// (arrival_rps == 0) means "no envelope declared": deploy() skips the
/// analysis for this model, though its replicas still contribute blocking
/// terms to co-tenants' proofs.
struct TrafficEnvelope {
  /// Total offered rate across priority classes, requests/second.
  double arrival_rps = 0.0;

  /// Share of arrivals submitted kInteractive, [0, 1]; the rest is kBatch.
  double interactive_fraction = 0.0;

  /// Largest instantaneous burst of interactive probes (requests arriving
  /// before the first can be served). The latency bound covers the whole
  /// burst, its last probe included.
  std::size_t interactive_burst = 1;

  /// Worst-case end-to-end budget for interactive traffic, microseconds;
  /// 0 = no interactive latency obligation.
  double interactive_deadline_us = 0.0;

  /// Deadline budget attached to kBatch submissions, microseconds; 0 =
  /// deadline-less batch traffic (no starvation obligation).
  double batch_deadline_us = 0.0;

  /// Report violated proofs instead of rejecting the deploy (the findings
  /// stay visible through ModelServer::capacity_report()).
  bool warn_only = false;

  [[nodiscard]] bool declared() const noexcept { return arrival_rps > 0.0; }
  [[nodiscard]] double interactive_rps() const noexcept {
    return arrival_rps * interactive_fraction;
  }
  [[nodiscard]] double batch_rps() const noexcept {
    return arrival_rps - interactive_rps();
  }
};

/// The one cost formula the serving stack prices queueing delay with:
/// `outstanding` requests at `sample_us` modeled microseconds each, plus
/// work already committed to the device by others. InferenceEngine
/// admission, ReplicaSet routing, and every service/blocking term
/// of the capacity analyzer all call this — drift between the admission
/// path and the proofs is a compile-time impossibility, not a code-review
/// hope.
[[nodiscard]] constexpr double committed_delay_us(
    double outstanding, double sample_us, double cross_backlog_us) noexcept {
  return outstanding * sample_us + cross_backlog_us;
}

/// Static facts of one replica: the engine knobs and device pricing the
/// proofs are built from. serve::ReplicaSet::capacity_facts() fills one
/// per replica from the live deployment; tools/servelint builds them from
/// a placement spec.
struct ReplicaFacts {
  /// Display name of the device this replica executes on.
  std::string device;
  /// Physical identity: replicas (of any model) with the same key share
  /// one device's cycles. Shared PUs use the PU name; dedicated devices
  /// get a per-replica key, since two models' "dev0" are distinct
  /// hardware.
  std::string device_key;
  bool shared = false;
  double speed_factor = 1.0;
  /// Per-sample modeled cost on this device, microseconds —
  /// CycleReport::microseconds(accel, speed_factor), identical to what
  /// the replica's backend->sample_us() reports.
  double sample_us = 0.0;
  /// Resolved engine knobs (device overrides already applied).
  std::size_t max_batch = 8;
  std::int64_t max_wait_us = 0;
  std::size_t queue_capacity = 0;
  // Shared-PU scheduling facts (meaningful only when `shared`).
  double switch_us = 0.0;  ///< this tenant's weight-reload penalty
  std::size_t max_pass_samples = 0;
  bool cobatch = true;
  std::int64_t coalesce_window_us = 0;
  double pass_overhead_us = 0.0;
  /// SharedDeviceConfig::preempt_granularity_us of the PU. > 0 means
  /// passes are chunked and preemptible: the worst-case blocking a probe
  /// can see shrinks from one maximal pass to one maximal *chunk* (the
  /// granularity of compute, never less than one sample, plus the largest
  /// reload + pass overhead), probes skip the coalesce window, and
  /// utilization gains a preemption reload tax (suspension + resume can
  /// each force a reload). 0 keeps the monolithic-pass bounds.
  double preempt_granularity_us = 0.0;
};

/// Static facts of one deployed model: its envelope, set-level QoS knobs,
/// and one ReplicaFacts per replica.
struct ModelFacts {
  std::string model;
  TrafficEnvelope envelope;
  bool admission_control = true;
  std::size_t batch_quota = 0;  ///< 0 = unlimited
  std::vector<ReplicaFacts> replicas;
};

/// Which obligation a Finding proves (see file comment).
enum class ProofKind {
  kUtilization,
  kInteractiveLatency,
  kBatchFeasibility,
  kQueueCapacity,
};

enum class Verdict {
  kProven,     ///< worst case within budget
  kViolated,   ///< worst case exceeds budget
  kUnbounded,  ///< device utilization >= 1: no finite worst case exists
};

[[nodiscard]] const char* proof_name(ProofKind proof) noexcept;
[[nodiscard]] const char* verdict_name(Verdict verdict) noexcept;

/// One proof obligation's outcome. worst_case_us/budget_us are modeled
/// microseconds for the latency proofs; the utilization proof reports busy
/// microseconds per wall second (budget 1e6 == ρ < 1), and the
/// queue/quota proofs report request slots (the explanation spells out
/// the units either way).
struct Finding {
  ProofKind proof = ProofKind::kUtilization;
  Verdict verdict = Verdict::kProven;
  std::string device;  ///< display name; empty for set-level proofs
  std::string model;   ///< empty for device-level proofs
  double worst_case_us = 0.0;
  double budget_us = 0.0;
  std::string explanation;
};

/// Every finding of one analysis run, renderable as the servelint table.
struct CapacityReport {
  std::vector<Finding> findings;

  /// True when every obligation is kProven (vacuously true with no
  /// declared envelope anywhere).
  [[nodiscard]] bool feasible() const noexcept;
  [[nodiscard]] std::size_t violated_count() const noexcept;
  [[nodiscard]] std::size_t unbounded_count() const noexcept;

  /// Aligned per-device/per-proof bound table (the servelint output).
  [[nodiscard]] std::string table(const std::string& title) const;
  /// One-line verdict for logs and DeployError messages.
  [[nodiscard]] std::string summary() const;
};

/// Analyzes one placement: all models sharing the process (replicas with
/// equal device_key contend for one device). Models without a declared
/// envelope contribute blocking terms (their passes still occupy shared
/// PUs) but carry no obligations of their own. Pure function of the
/// facts — never throws, never touches live serving state.
[[nodiscard]] CapacityReport analyze_capacity(
    const std::vector<ModelFacts>& models);

}  // namespace mfdfp::analysis
