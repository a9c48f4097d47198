#include "sweep/summary.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <tuple>
#include <utility>

#include "sweep/params.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/require.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace dagsched::sweep {

namespace {

// The three figure-of-merit orderings.  Every ranking and every leader of
// the summary, its artifact and its table comes from one of them; each
// ends on the name, so over a spec's distinct policies it is total.

// Makespan: geomean ratio, then win rate (descending), then name.
bool makespan_before(const PolicySummary& a, const PolicySummary& b) {
  return std::tie(a.geomean_ratio, b.win_rate, a.policy) <
         std::tie(b.geomean_ratio, a.win_rate, b.policy);
}

// Robustness: geomean degradation, then failures, then name.
bool robustness_before(const PolicySummary& a, const PolicySummary& b) {
  return std::tie(a.geomean_degradation, a.failures, a.policy) <
         std::tie(b.geomean_degradation, b.failures, b.policy);
}

// Online: mean hit rate (descending), then flow geomean, then name.
bool online_before(const PolicySummary& a, const PolicySummary& b) {
  return std::tie(b.mean_hit_rate, a.geomean_flow_ratio, a.policy) <
         std::tie(a.mean_hit_rate, b.geomean_flow_ratio, b.policy);
}

using Ordering = bool (*)(const PolicySummary&, const PolicySummary&);

// The row of `ranked` that leads under `before`.
std::size_t leader_row(const std::vector<PolicySummary>& ranked,
                       Ordering before) {
  return static_cast<std::size_t>(
      std::min_element(ranked.begin(), ranked.end(), before) -
      ranked.begin());
}

// The policy names of `rows` in `before` order.
std::vector<std::string> names_in_order(std::vector<PolicySummary> rows,
                                        Ordering before) {
  std::sort(rows.begin(), rows.end(), before);
  std::vector<std::string> names;
  names.reserve(rows.size());
  for (PolicySummary& row : rows) names.push_back(std::move(row.policy));
  return names;
}

// exp(mean(log(values))), the aggregate of every ratio column.
double geomean(const std::vector<double>& values) {
  double log_sum = 0.0;
  for (double value : values) log_sum += std::log(value);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

// Per-policy ratios of one makespan column to its per-instance best, and
// per-policy counts of instances matching that best — the makespan
// ranking's figure of merit, over `makespans` or the fault-free
// `base_makespans`.
struct RatioColumns {
  std::vector<std::vector<double>> ratios;
  std::vector<int> wins;
};

RatioColumns ratio_columns(const SweepResult& result,
                           std::vector<Time> InstanceResult::*column) {
  const std::size_t num_policies = result.spec.policies.size();
  require(!result.instances.empty() && num_policies > 0,
          "sweep summary: empty sweep");
  RatioColumns out{std::vector<std::vector<double>>(num_policies),
                   std::vector<int>(num_policies, 0)};
  for (const InstanceResult& row : result.instances) {
    const std::vector<Time>& makespans = row.*column;
    require(makespans.size() == num_policies,
            "sweep summary: instance/policy shape mismatch");
    const Time best = *std::min_element(makespans.begin(), makespans.end());
    require(best > 0, "sweep summary: nonpositive best makespan");
    for (std::size_t p = 0; p < num_policies; ++p) {
      out.ratios[p].push_back(static_cast<double>(makespans[p]) /
                              static_cast<double>(best));
      if (makespans[p] == best) ++out.wins[p];
    }
  }
  return out;
}

// Fills `family` of every row of `ranked` but `leader`: metric(spec
// index, instance index) of the row against the leader's on every
// instance — strict better/worse counts, the sign test, Wilcoxon over
// the log differences, then Holm over the non-leader rows in ranking
// order.  The leader keeps the neutral defaults.  `metric` returns Time
// for makespans, so distinct makespans never tie as doubles.
template <typename Metric>
void fill_family(std::vector<PolicySummary>& ranked, std::size_t leader,
                 PairedComparison PolicySummary::*family,
                 std::size_t instances, Metric metric) {
  const std::size_t theirs = ranked[leader].spec_index;
  std::vector<double> log_diffs(instances);
  std::vector<double> wilcoxon;
  wilcoxon.reserve(ranked.size());
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (i == leader) continue;
    PairedComparison& c = ranked[i].*family;
    const std::size_t mine = ranked[i].spec_index;
    for (std::size_t r = 0; r < instances; ++r) {
      const auto a = metric(mine, r);
      const auto b = metric(theirs, r);
      if (a < b) ++c.better;
      if (a > b) ++c.worse;
      log_diffs[r] = std::log(static_cast<double>(a)) -
                     std::log(static_cast<double>(b));
    }
    c.sign_p = sign_test(c.better, c.worse).p_value;
    c.wilcoxon_p = wilcoxon_signed_rank(log_diffs).p_value;
    wilcoxon.push_back(c.wilcoxon_p);
  }
  const std::vector<double> adjusted = holm_bonferroni(wilcoxon);
  for (std::size_t i = 0, k = 0; i < ranked.size(); ++i) {
    if (i != leader) (ranked[i].*family).wilcoxon_p_holm = adjusted[k++];
  }
}

}  // namespace

std::vector<PolicySummary> summarize(const SweepResult& result) {
  const std::size_t num_policies = result.spec.policies.size();
  const std::size_t num_instances = result.instances.size();
  const bool faulted = result.spec.faults.enabled();
  const bool online = result.spec.arrivals.enabled();
  const RatioColumns makespan =
      ratio_columns(result, &InstanceResult::makespans);

  // With fault injection on, every cell has a paired fault-free baseline
  // (degradation = faulted / baseline makespan); with arrivals on, every
  // cell carries the streamed metrics (flow ratio = weighted flow / the
  // per-instance best).
  std::vector<std::vector<double>> degradations(num_policies);
  std::vector<std::vector<double>> flow_ratios(num_policies);
  for (const InstanceResult& row : result.instances) {
    if (faulted) {
      require(row.base_makespans.size() == num_policies &&
                  row.failed.size() == num_policies,
              "summarize: missing fault columns in a faulted sweep");
      for (std::size_t p = 0; p < num_policies; ++p) {
        require(row.base_makespans[p] > 0,
                "summarize: nonpositive baseline makespan");
        degradations[p].push_back(static_cast<double>(row.makespans[p]) /
                                  static_cast<double>(row.base_makespans[p]));
      }
    }
    if (online) {
      require(row.weighted_flow_us.size() == num_policies &&
                  row.hit_rate.size() == num_policies,
              "summarize: missing online columns in an online sweep");
      const double best = row.best_flow();
      require(best > 0, "summarize: nonpositive best weighted flow");
      for (std::size_t p = 0; p < num_policies; ++p) {
        flow_ratios[p].push_back(row.weighted_flow_us[p] / best);
      }
    }
  }

  const double instances = static_cast<double>(num_instances);
  std::vector<PolicySummary> summaries(num_policies);
  for (std::size_t p = 0; p < num_policies; ++p) {
    PolicySummary& s = summaries[p];
    s.policy = result.spec.policies[p].canonical();
    s.spec_index = p;
    s.wins = makespan.wins[p];
    s.win_rate = s.wins / instances;
    const std::vector<double>& ratios = makespan.ratios[p];
    s.geomean_ratio = geomean(ratios);
    s.mean_ratio = mean(ratios);
    s.p50_ratio = quantile(ratios, 0.5);
    s.p90_ratio = quantile(ratios, 0.9);
    s.max_ratio = *std::max_element(ratios.begin(), ratios.end());

    double makespan_sum_us = 0.0;
    double plan_gap_log_sum = 0.0;
    int plan_gap_count = 0;
    double retries_sum = 0.0;
    double restarts_sum = 0.0;
    double hit_sum = 0.0;
    double p99_sum = 0.0;
    double lateness_sum = 0.0;
    for (const InstanceResult& row : result.instances) {
      makespan_sum_us += to_us(row.makespans[p]);
      if (p < row.timed_out.size() && row.timed_out[p] != 0) ++s.timed_out;
      // Plan-vs-simulated gap: predicted is nonzero only for policies
      // that build an offline plan.  Under fault injection the
      // fault-free baseline (base_makespans) is the simulated side.
      if (p < row.predicted_makespans.size() &&
          row.predicted_makespans[p] > 0) {
        const Time simulated = p < row.base_makespans.size()
                                   ? row.base_makespans[p]
                                   : row.makespans[p];
        if (simulated > 0) {
          plan_gap_log_sum +=
              std::log(static_cast<double>(simulated) /
                       static_cast<double>(row.predicted_makespans[p]));
          ++plan_gap_count;
        }
      }
      if (faulted) {
        retries_sum += row.retries[p];
        restarts_sum += row.restarts[p];
        s.failures += row.failed[p] != 0 ? 1 : 0;
      }
      if (online) {
        hit_sum += row.hit_rate[p];
        p99_sum += to_us(row.p99_response[p]);
        lateness_sum += to_us(row.max_lateness[p]);
      }
    }
    s.mean_makespan_us = makespan_sum_us / instances;
    if (plan_gap_count > 0) {
      s.plan_gap_geomean = std::exp(plan_gap_log_sum / plan_gap_count);
    }
    if (faulted) {
      s.success_rate = 1.0 - s.failures / instances;
      s.mean_retries = retries_sum / instances;
      s.mean_restarts = restarts_sum / instances;
      s.geomean_degradation = geomean(degradations[p]);
      s.p99_degradation = quantile(degradations[p], 0.99);
    }
    if (online) {
      s.mean_hit_rate = hit_sum / instances;
      s.mean_p99_response_us = p99_sum / instances;
      s.mean_max_lateness_us = lateness_sum / instances;
      s.geomean_flow_ratio = geomean(flow_ratios[p]);
    }
  }
  std::sort(summaries.begin(), summaries.end(), makespan_before);

  // Paired significance against each leader: the same instances under
  // every policy are matched pairs, so every table can say whether each
  // gap to its leader is meaningful (sweep-level statistical tests; cf.
  // the PISA critique of single-instance comparisons).
  fill_family(summaries, 0, &PolicySummary::vs_best, num_instances,
              [&](std::size_t p, std::size_t r) {
                return result.instances[r].makespans[p];
              });
  if (faulted) {
    fill_family(summaries, leader_row(summaries, robustness_before),
                &PolicySummary::vs_least_degrading, num_instances,
                [&](std::size_t p, std::size_t r) {
                  return degradations[p][r];
                });
  }
  if (online) {
    fill_family(summaries, leader_row(summaries, online_before),
                &PolicySummary::vs_online_leader, num_instances,
                [&](std::size_t p, std::size_t r) {
                  return result.instances[r].weighted_flow_us[p];
                });
  }
  return summaries;
}

std::vector<std::string> fault_free_ranking(const SweepResult& result) {
  require(result.spec.faults.enabled(),
          "fault_free_ranking: sweep has no fault ablation");
  const RatioColumns baseline =
      ratio_columns(result, &InstanceResult::base_makespans);
  const double instances = static_cast<double>(result.instances.size());
  std::vector<PolicySummary> rows(result.spec.policies.size());
  for (std::size_t p = 0; p < rows.size(); ++p) {
    rows[p].policy = result.spec.policies[p].canonical();
    rows[p].win_rate = baseline.wins[p] / instances;
    rows[p].geomean_ratio = geomean(baseline.ratios[p]);
  }
  return names_in_order(std::move(rows), makespan_before);
}

std::vector<std::string> online_ranking(
    const std::vector<PolicySummary>& ranking) {
  return names_in_order(ranking, online_before);
}

std::string summary_json(const SweepResult& result,
                         const std::vector<PolicySummary>& ranking) {
  const SweepSpec& spec = result.spec;
  JsonWriter w(/*double_decimals=*/6);
  w.begin_object();

  w.key("spec");
  w.begin_object();
  w.key("seed");
  w.value(spec.seed);
  w.key("comm");
  w.value(spec.comm_enabled ? "paper" : "off");
  const auto emit_range = [&w](const ParamRange& range) {
    if (range.is_single()) {
      w.value(range.lo);
    } else {
      w.begin_array();
      w.value(range.lo);
      w.value(range.hi);
      w.end_array();
    }
  };
  // Key names come from the comm ParamDef table (params.hpp), the same
  // names the spec parser accepts.
  const auto comm_defs = comm_param_defs();
  const ParamRange* comm_ranges[] = {&spec.comm.sigma_us,
                                     &spec.comm.tau_us};
  require(comm_defs.size() == std::size(comm_ranges),
          "summary_json: comm ParamDef table out of sync");
  for (std::size_t i = 0; i < comm_defs.size(); ++i) {
    w.key(comm_defs[i].name);
    emit_range(*comm_ranges[i]);
  }
  w.key("comm_send_cpu");
  w.begin_array();
  for (SendCpu mode : spec.comm.send_cpu) {
    w.value(dagsched::to_string(mode));
  }
  w.end_array();
  // Fault-ablation echo, only when enabled — zero-fault sweeps keep
  // their historical artifacts byte for byte.
  if (spec.faults.enabled()) {
    const auto fault_defs = fault_param_defs();
    const ParamRange* fault_ranges[] = {
        &spec.faults.machine_mtbf_us, &spec.faults.machine_mttr_us,
        &spec.faults.stall_mtbf_us,   &spec.faults.stall_us,
        &spec.faults.link_mtbf_us,    &spec.faults.link_mttr_us,
        &spec.faults.link_drop_prob,  &spec.faults.link_degrade_factor,
        &spec.faults.msg_timeout_us,  &spec.faults.retry_backoff_us};
    require(fault_defs.size() == std::size(fault_ranges),
            "summary_json: fault ParamDef table out of sync");
    for (std::size_t i = 0; i < fault_defs.size(); ++i) {
      w.key(fault_defs[i].name);
      emit_range(*fault_ranges[i]);
    }
    w.key("fault_max_retries");
    w.value(spec.faults.max_retries);
  }
  // Arrival-ablation echo, only when enabled — offline sweeps keep their
  // historical artifacts byte for byte.
  if (spec.arrivals.enabled()) {
    const auto arrival_defs = arrival_param_defs();
    const ParamRange* arrival_ranges[] = {
        &spec.arrivals.count,          &spec.arrivals.gap_us,
        &spec.arrivals.burst_prob,     &spec.arrivals.burst_mult,
        &spec.arrivals.deadline_slack, &spec.arrivals.jitter,
        &spec.arrivals.weight_max};
    require(arrival_defs.size() == std::size(arrival_ranges),
            "summary_json: arrival ParamDef table out of sync");
    for (std::size_t i = 0; i < arrival_defs.size(); ++i) {
      w.key(arrival_defs[i].name);
      emit_range(*arrival_ranges[i]);
    }
  }
  // Echo the *resolved* oracle kind: the default kAuto resolves through
  // the registry's capability traits, and emitting the resolution keeps
  // old-spec artifacts byte-identical ("incremental") across the change.
  w.key("gsa_oracle");
  w.value(sa::to_string(
      sa::resolve_cost_oracle_kind(spec.gsa_options.oracle)));
  w.key("time_budget_ms");
  w.value(spec.time_budget_ms);
  w.key("topologies");
  w.begin_array();
  for (const std::string& t : spec.topologies) w.value(t);
  w.end_array();
  w.key("policies");
  w.begin_array();
  for (const PolicySpec& p : spec.policies) w.value(p.canonical());
  w.end_array();
  w.key("families");
  w.begin_array();
  for (const FamilySpec& family : spec.families) {
    w.begin_object();
    w.key("kind");
    w.value(to_string(family.kind));
    w.key("count");
    w.value(family.count);
    if (!family.params.empty()) {
      w.key("params");
      w.begin_object();
      for (const FamilyParam& param : family.params) {
        w.key(param.name);
        if (param.range.is_single()) {
          w.value(param.range.lo);
        } else {
          w.begin_array();
          w.value(param.range.lo);
          w.value(param.range.hi);
          w.end_array();
        }
      }
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();  // spec

  w.key("instances");
  w.value(static_cast<std::int64_t>(result.instances.size()));

  const auto emit_paired = [&w](const char* key, const PairedComparison& c) {
    w.key(key);
    w.begin_object();
    w.key("better");
    w.value(c.better);
    w.key("worse");
    w.value(c.worse);
    w.key("sign_p");
    w.value(c.sign_p);
    w.key("wilcoxon_p");
    w.value(c.wilcoxon_p);
    w.key("wilcoxon_p_holm");
    w.value(c.wilcoxon_p_holm);
    w.end_object();
  };
  w.key("ranking");
  w.begin_array();
  for (const PolicySummary& s : ranking) {
    w.begin_object();
    w.key("policy");
    w.value(s.policy);
    w.key("wins");
    w.value(s.wins);
    w.key("win_rate");
    w.value(s.win_rate);
    w.key("geomean_ratio");
    w.value(s.geomean_ratio);
    w.key("mean_ratio");
    w.value(s.mean_ratio);
    w.key("p50_ratio");
    w.value(s.p50_ratio);
    w.key("p90_ratio");
    w.value(s.p90_ratio);
    w.key("max_ratio");
    w.value(s.max_ratio);
    w.key("mean_makespan_us");
    w.value(s.mean_makespan_us);
    w.key("timed_out");
    w.value(s.timed_out);
    w.key("plan_gap");
    w.value(s.plan_gap_geomean);
    emit_paired("vs_best", s.vs_best);
    if (spec.faults.enabled()) {
      w.key("robustness");
      w.begin_object();
      w.key("failures");
      w.value(s.failures);
      w.key("success_rate");
      w.value(s.success_rate);
      w.key("mean_retries");
      w.value(s.mean_retries);
      w.key("mean_restarts");
      w.value(s.mean_restarts);
      w.key("geomean_degradation");
      w.value(s.geomean_degradation);
      w.key("p99_degradation");
      w.value(s.p99_degradation);
      emit_paired("vs_least_degrading", s.vs_least_degrading);
      w.end_object();
    }
    if (spec.arrivals.enabled()) {
      w.key("online");
      w.begin_object();
      w.key("mean_hit_rate");
      w.value(s.mean_hit_rate);
      w.key("geomean_flow_ratio");
      w.value(s.geomean_flow_ratio);
      w.key("mean_p99_response_us");
      w.value(s.mean_p99_response_us);
      w.key("mean_max_lateness_us");
      w.value(s.mean_max_lateness_us);
      emit_paired("vs_online_leader", s.vs_online_leader);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();

  const auto emit_names = [&w](const char* key,
                               const std::vector<std::string>& names) {
    w.key(key);
    w.begin_array();
    for (const std::string& name : names) w.value(name);
    w.end_array();
  };
  // The online ranking of the same instances, next to the makespan
  // ranking above, so an environment-induced flip is visible inside one
  // artifact.
  if (spec.arrivals.enabled()) {
    emit_names("online_ranking", online_ranking(ranking));
  }
  // The fault-free ranking of the *same* instances and seeds, so a
  // robustness-induced flip is visible inside one artifact.
  if (spec.faults.enabled()) {
    emit_names("fault_free_ranking", fault_free_ranking(result));
  }

  w.end_object();
  return w.str();
}

std::string per_instance_csv(const SweepResult& result) {
  // The fault columns appear only for faulted sweeps, so zero-fault CSV
  // artifacts keep their historical header and rows byte for byte.
  const bool faulted = result.spec.faults.enabled();
  const bool online = result.spec.arrivals.enabled();
  std::vector<std::string> header = {
      "instance", "family",   "repetition", "topology",    "tasks",
      "edges",    "graph_seed", "sigma_us", "tau_us",      "send_cpu",
      "policy",   "makespan_us", "ratio",   "timed_out"};
  if (faulted) {
    header.insert(header.end(), {"base_makespan_us", "degradation",
                                 "retries", "restarts", "failed"});
  }
  if (online) {
    header.insert(header.end(),
                  {"arrival_seed", "workflows", "weighted_flow_us",
                   "flow_ratio", "hit_rate", "p99_response_us",
                   "max_lateness_us"});
  }
  CsvWriter csv(header);
  for (const InstanceResult& row : result.instances) {
    const Time best = row.best();
    for (std::size_t p = 0; p < result.spec.policies.size(); ++p) {
      const double ratio = static_cast<double>(row.makespans[p]) /
                           static_cast<double>(best);
      const bool timed_out =
          p < row.timed_out.size() && row.timed_out[p] != 0;
      std::vector<std::string> cells = {
          std::to_string(row.index), row.family,
          std::to_string(row.repetition), row.topology,
          std::to_string(row.tasks), std::to_string(row.edges),
          std::to_string(row.graph_seed),
          std::to_string(row.sigma_us), std::to_string(row.tau_us),
          row.send_cpu, result.spec.policies[p].canonical(),
          format_fixed(to_us(row.makespans[p]), 3),
          format_fixed(ratio, 6), timed_out ? "1" : "0"};
      if (faulted) {
        const double degradation =
            static_cast<double>(row.makespans[p]) /
            static_cast<double>(row.base_makespans[p]);
        cells.insert(cells.end(),
                     {format_fixed(to_us(row.base_makespans[p]), 3),
                      format_fixed(degradation, 6),
                      std::to_string(row.retries[p]),
                      std::to_string(row.restarts[p]),
                      row.failed[p] != 0 ? "1" : "0"});
      }
      if (online) {
        const double flow_ratio = row.weighted_flow_us[p] / row.best_flow();
        cells.insert(cells.end(),
                     {std::to_string(row.arrival_seed),
                      std::to_string(row.workflows),
                      format_fixed(row.weighted_flow_us[p], 3),
                      format_fixed(flow_ratio, 6),
                      format_fixed(row.hit_rate[p], 6),
                      format_fixed(to_us(row.p99_response[p]), 3),
                      format_fixed(to_us(row.max_lateness[p]), 3)});
      }
      csv.add_row(cells);
    }
  }
  return csv.render();
}

std::string render_summary_table(const SweepResult& result,
                                 const std::vector<PolicySummary>& ranking) {
  // `cells` followed by one paired comparison: better/worse, the sign and
  // Wilcoxon p-values when `raw_p`, then the Holm p-value — all "-" on
  // the leader's row.
  const auto with_paired = [](std::vector<std::string> cells,
                              const PairedComparison& c, bool leader,
                              bool raw_p) {
    const std::size_t first = cells.size();
    cells.push_back(std::to_string(c.better) + "/" + std::to_string(c.worse));
    if (raw_p) {
      cells.push_back(format_fixed(c.sign_p, 4));
      cells.push_back(format_fixed(c.wilcoxon_p, 4));
    }
    cells.push_back(format_fixed(c.wilcoxon_p_holm, 4));
    if (leader) {
      std::fill(cells.begin() + static_cast<std::ptrdiff_t>(first),
                cells.end(), "-");
    }
    return cells;
  };

  TableWriter table({"rank", "policy", "win rate", "geomean", "mean", "p50",
                     "p90", "max", "mean makespan", "timeouts", "plan gap",
                     "vs best", "p(sign)", "p(wilcoxon)", "p(holm)"});
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    const PolicySummary& s = ranking[i];
    table.add_row(with_paired(
        {std::to_string(i + 1), s.policy,
         format_percent(100.0 * s.win_rate, 1),
         format_fixed(s.geomean_ratio, 4), format_fixed(s.mean_ratio, 4),
         format_fixed(s.p50_ratio, 4), format_fixed(s.p90_ratio, 4),
         format_fixed(s.max_ratio, 4),
         format_fixed(s.mean_makespan_us, 1) + "us",
         std::to_string(s.timed_out),
         s.plan_gap_geomean > 0 ? format_fixed(s.plan_gap_geomean, 4)
                                : "-"},
        s.vs_best, i == 0, /*raw_p=*/true));
  }
  std::string out = "Sweep: " +
                    std::to_string(result.instances.size()) +
                    " instances, ratios vs. per-instance best; vs best = "
                    "wins/losses against the top-ranked policy (paired "
                    "sign / Wilcoxon signed-rank p-values; p(holm) = "
                    "Holm-Bonferroni-adjusted Wilcoxon p over the vs-best "
                    "family; plan gap = geomean simulated/planned makespan "
                    "for offline-plan policies, - = no plan)\n";
  out += table.render();

  if (result.spec.faults.enabled()) {
    TableWriter robustness({"policy", "success", "geomean degr", "p99 degr",
                            "retries", "restarts", "vs least",
                            "p(holm)"});
    const std::size_t leader = leader_row(ranking, robustness_before);
    for (std::size_t i = 0; i < ranking.size(); ++i) {
      const PolicySummary& s = ranking[i];
      robustness.add_row(with_paired(
          {s.policy, format_percent(100.0 * s.success_rate, 1),
           format_fixed(s.geomean_degradation, 4),
           format_fixed(s.p99_degradation, 4),
           format_fixed(s.mean_retries, 2), format_fixed(s.mean_restarts, 2)},
          s.vs_least_degrading, i == leader, /*raw_p=*/false));
    }
    out += "\nRobustness: degradation = faulted makespan / paired "
           "fault-free baseline (failures count as 8x); vs least = "
           "wins/losses against the least-degrading policy\n";
    out += robustness.render();
  }

  if (result.spec.arrivals.enabled()) {
    TableWriter online({"policy", "hit rate", "flow geomean", "p99 resp",
                        "max late", "vs leader", "p(holm)"});
    const std::size_t leader = leader_row(ranking, online_before);
    for (std::size_t i = 0; i < ranking.size(); ++i) {
      const PolicySummary& s = ranking[i];
      online.add_row(with_paired(
          {s.policy, format_percent(100.0 * s.mean_hit_rate, 1),
           format_fixed(s.geomean_flow_ratio, 4),
           format_fixed(s.mean_p99_response_us, 1) + "us",
           format_fixed(s.mean_max_lateness_us, 1) + "us"},
          s.vs_online_leader, i == leader, /*raw_p=*/false));
    }
    out += "\nOnline: flow ratio = weighted flow time / per-instance best; "
           "vs leader = wins/losses (weighted flow) against the online "
           "leader (best hit rate, then flow geomean)\n";
    out += online.render();
  }
  return out;
}

}  // namespace dagsched::sweep
