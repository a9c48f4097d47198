#pragma once

// Sweep aggregation: per-policy ranked summary statistics over all
// instances of a sweep, and the JSON / CSV / table renderings.
//
// The figure of merit is the *makespan ratio* of a policy on an instance:
// its makespan divided by the best makespan any policy of the sweep
// achieved on that instance (>= 1, with 1 meaning the policy was the best
// known).  Ratios are comparable across instances of very different sizes,
// which plain makespans are not.  Policies are ranked by the geometric
// mean of their ratios (the standard aggregate for ratio data), ties
// broken by win rate and then name.
//
// summary_json() is the deterministic artifact: for a fixed seed it is
// byte-identical across runs and thread counts (doubles are emitted with
// fixed decimals, wall-clock and thread counts are deliberately
// excluded).  Cross-platform byte-identity is not guaranteed for the
// floating-point aggregates (geomean/quantiles use libm log/exp, which
// may differ by ULPs between C libraries); the underlying integer
// makespans are bit-reproducible everywhere.

#include <cstddef>
#include <string>
#include <vector>

#include "sweep/runner.hpp"

namespace dagsched::sweep {

/// A paired comparison of one policy against a leader over every
/// instance of the sweep.  Every policy ran the same instances, so its
/// per-instance figures and the leader's are matched pairs: a sign test
/// over the strict win/loss counts and a Wilcoxon signed-rank test over
/// the log differences say whether a ranking gap is statistically
/// meaningful or an artifact of this instance draw (small p: genuinely
/// different).  All non-leader rows test against the same leader, so
/// their Wilcoxon p-values form one family of simultaneous comparisons,
/// Holm-Bonferroni-adjusted in ranking order to keep the family-wise
/// error rate honest for wide policy sets.  The leader's own row keeps
/// these neutral defaults.
struct PairedComparison {
  int better = 0;  ///< instances strictly better than the leader
  int worse = 0;   ///< instances strictly worse than the leader
  double sign_p = 1.0;           ///< two-sided paired sign-test p-value
  double wilcoxon_p = 1.0;       ///< two-sided Wilcoxon signed-rank p
  double wilcoxon_p_holm = 1.0;  ///< wilcoxon_p, Holm-adjusted
};

/// Aggregate outcome of one policy over every instance of the sweep.
struct PolicySummary {
  std::string policy;
  std::size_t spec_index = 0;  ///< the policy's index in spec.policies
  int wins = 0;             ///< instances where the policy matched the best
  double win_rate = 0.0;    ///< wins / instances
  double geomean_ratio = 0.0;  ///< geometric mean makespan ratio (>= 1)
  double mean_ratio = 0.0;
  double p50_ratio = 0.0;
  double p90_ratio = 0.0;
  double max_ratio = 0.0;
  double mean_makespan_us = 0.0;
  /// Instances where the policy hit the spec's wall-clock budget (its
  /// makespans are best-at-cutoff, not converged); 0 without a budget.
  int timed_out = 0;
  /// Plan-vs-simulated gap for offline-plan policies: geometric mean of
  /// simulated / planned makespan over all instances (under fault
  /// injection the fault-free baseline is the simulated side, so the gap
  /// measures plan fidelity, not fault damage).  1.0 means the plan's
  /// predicted makespan matched the simulation exactly; > 1 the plan was
  /// optimistic; < 1 pessimistic.  0.0 when the policy reports no plan
  /// (no `offline_plan` capability) on any instance.
  double plan_gap_geomean = 0.0;
  /// Makespans against the top-ranked policy (compared as exact integers).
  PairedComparison vs_best;

  /// Fault-injection robustness (meaningful only when the sweep's
  /// FaultAblation is enabled; neutral defaults otherwise).  The
  /// degradation of a cell is its faulted makespan divided by its paired
  /// fault-free baseline (same policy seed) — failed cells count as 8.
  int failures = 0;                 ///< faulted runs that hit SimFailure
  double success_rate = 1.0;        ///< 1 - failures / instances
  double mean_retries = 0.0;        ///< retransmissions per faulted run
  double mean_restarts = 0.0;       ///< task re-executions per faulted run
  double geomean_degradation = 0.0; ///< geometric mean degradation ratio
  double p99_degradation = 0.0;     ///< tail degradation
  /// Degradations against the least-degrading policy (smallest geomean
  /// degradation, then fewest failures, then the name).
  PairedComparison vs_least_degrading;

  /// Online arrival-stream metrics (meaningful only when the sweep's
  /// ArrivalAblation is enabled; neutral defaults otherwise).  The flow
  /// ratio of a cell is its weighted flow time divided by the best
  /// weighted flow any policy achieved on that instance (>= 1), the
  /// online analogue of the makespan ratio.
  double mean_hit_rate = 1.0;        ///< mean deadline hit-rate
  double geomean_flow_ratio = 0.0;   ///< geometric mean weighted-flow ratio
  double mean_p99_response_us = 0.0; ///< mean nearest-rank p99 response
  double mean_max_lateness_us = 0.0; ///< mean worst deadline overshoot
  /// Weighted flows against the online leader (best mean hit-rate, then
  /// the smallest flow geomean, then the name), so the artifact can say
  /// whether an online ranking flip is statistically meaningful.
  PairedComparison vs_online_leader;
};

/// Computes the per-policy summaries, ranked best (rank 0) to worst.
std::vector<PolicySummary> summarize(const SweepResult& result);

/// Policy canonical names ranked by the *fault-free* geomean makespan
/// ratio (the base_makespans baselines; requires the sweep's
/// FaultAblation to be enabled), with the makespan ranking's tie rules.
/// The summary JSON embeds it next to the faulted ranking so a
/// robustness-induced ranking flip is visible in one artifact.
std::vector<std::string> fault_free_ranking(const SweepResult& result);

/// The policy names of `ranking` (summarize()'s output for a sweep with
/// its ArrivalAblation enabled) re-ranked by the *online* figures of
/// merit — mean deadline hit-rate (descending), then geomean
/// weighted-flow ratio, then name.  The summary JSON embeds it next to
/// the makespan ranking so an environment-induced ranking flip (offline
/// leader losing under bursty arrivals) is visible in one artifact.
std::vector<std::string> online_ranking(
    const std::vector<PolicySummary>& ranking);

/// Renders the deterministic summary artifact: spec echo (seed, comm,
/// topologies, policies, families), instance count, and the ranking.
std::string summary_json(const SweepResult& result,
                         const std::vector<PolicySummary>& ranking);

/// One CSV row per (instance, policy) with makespan and ratio — the raw
/// material for external plotting.
std::string per_instance_csv(const SweepResult& result);

/// Aligned ASCII ranking table for terminal output.
std::string render_summary_table(const SweepResult& result,
                                 const std::vector<PolicySummary>& ranking);

}  // namespace dagsched::sweep
