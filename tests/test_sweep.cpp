// Sweep subsystem: spec parsing, instance derivation, aggregation
// invariants, and the determinism contract — the same seed + spec must
// yield a byte-identical summary JSON across runs and across worker
// thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <stdexcept>

#include "graph/taskgraph.hpp"
#include "sweep/params.hpp"
#include "sweep/runner.hpp"
#include "sweep/shard.hpp"
#include "sweep/spec.hpp"
#include "sweep/summary.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace dagsched {
namespace {

const char* kSmallSpec = R"(
# comment line
seed 99
comm paper
topology ring:4
topology line:3
policy sa
policy hlf
policy random
sa_max_steps 12
family gnp count=3 tasks=10:16 edge_probability=0.15
family diamond count=2 width=4:8
)";

sweep::SweepSpec small_spec() { return sweep::parse_spec(kSmallSpec); }

TEST(SweepSpec, ParsesEveryField) {
  const sweep::SweepSpec spec = small_spec();
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_TRUE(spec.comm_enabled);
  ASSERT_EQ(spec.topologies.size(), 2u);
  EXPECT_EQ(spec.topologies[0], "ring:4");
  ASSERT_EQ(spec.policies.size(), 3u);
  EXPECT_EQ(spec.policies[0].name, "sa");
  EXPECT_TRUE(spec.policies[0].args.empty());
  EXPECT_EQ(spec.policies[0].canonical(), "sa");
  EXPECT_EQ(spec.sa_options.cooling.max_steps, 12);
  ASSERT_EQ(spec.families.size(), 2u);
  EXPECT_EQ(spec.families[0].kind, sweep::FamilyKind::Gnp);
  EXPECT_EQ(spec.families[0].count, 3);
  // (3 + 2) instances x 2 topologies.
  EXPECT_EQ(spec.num_instances(), 10);
}

TEST(SweepSpec, RangeAndSingleParams) {
  const sweep::SweepSpec spec = small_spec();
  const sweep::ParamRange tasks = spec.families[0].param("tasks");
  EXPECT_EQ(tasks.lo, 10.0);
  EXPECT_EQ(tasks.hi, 16.0);
  const sweep::ParamRange probability =
      spec.families[0].param("edge_probability");
  EXPECT_TRUE(probability.is_single());
  // Parameters not overridden fall back to the family default.
  const sweep::ParamRange width = spec.families[1].param("source_duration_us");
  EXPECT_TRUE(width.is_single());
}

TEST(SweepSpec, RejectsMalformedInput) {
  EXPECT_THROW(sweep::parse_spec("bogus_key 1\nfamily gnp count=1\n"
                                 "topology ring:3\npolicy hlf\n"),
               std::invalid_argument);
  EXPECT_THROW(sweep::parse_spec("family gnp count=1 no_such_param=3\n"
                                 "topology ring:3\npolicy hlf\n"),
               std::invalid_argument);
  EXPECT_THROW(sweep::parse_spec("family gnp count=1 tasks=9:4\n"
                                 "topology ring:3\npolicy hlf\n"),
               std::invalid_argument);  // lo > hi
  EXPECT_THROW(sweep::parse_spec("family gnp count=1\npolicy hlf\n"),
               std::invalid_argument);  // no topology
  EXPECT_THROW(sweep::parse_spec("family gnp count=1\n"
                                 "topology no_such_topo\npolicy hlf\n"),
               std::invalid_argument);  // unresolvable topology
  EXPECT_THROW(sweep::parse_spec("family gnp count=1\ntopology ring:3\n"
                                 "policy hlf\npolicy hlf\n"),
               std::invalid_argument);  // duplicate policy
}

TEST(SweepRunner, InstanceGraphsAreDeterministicAndDiverse) {
  const sweep::SweepSpec spec = small_spec();
  std::uint64_t seed_a = 0;
  std::uint64_t seed_b = 0;
  const TaskGraph a = sweep::build_instance_graph(spec, 0, 0, &seed_a);
  const TaskGraph b = sweep::build_instance_graph(spec, 0, 0, &seed_b);
  EXPECT_EQ(seed_a, seed_b);
  EXPECT_EQ(a.num_tasks(), b.num_tasks());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_GE(a.num_tasks(), 10);
  EXPECT_LE(a.num_tasks(), 16);
  // Different repetitions must be decorrelated.
  std::uint64_t seed_c = 0;
  sweep::build_instance_graph(spec, 0, 1, &seed_c);
  EXPECT_NE(seed_a, seed_c);
}

TEST(SweepRunner, ResultShapeAndEnumerationOrder) {
  sweep::SweepSpec spec = small_spec();
  spec.threads = 1;
  const sweep::SweepResult result = sweep::run_sweep(spec);
  ASSERT_EQ(result.instances.size(), 10u);
  for (std::size_t i = 0; i < result.instances.size(); ++i) {
    const sweep::InstanceResult& row = result.instances[i];
    EXPECT_EQ(row.index, static_cast<int>(i));
    ASSERT_EQ(row.makespans.size(), spec.policies.size());
    for (Time makespan : row.makespans) EXPECT_GT(makespan, 0);
    EXPECT_GT(row.tasks, 0);
  }
  // Enumeration order: families in spec order, topologies innermost.
  EXPECT_EQ(result.instances[0].family, "gnp");
  EXPECT_EQ(result.instances[0].topology, "ring:4");
  EXPECT_EQ(result.instances[1].topology, "line:3");
  EXPECT_EQ(result.instances[6].family, "diamond");
  // The same (family, repetition) graph is reused across topologies.
  EXPECT_EQ(result.instances[0].graph_seed, result.instances[1].graph_seed);
  EXPECT_EQ(result.instances[0].tasks, result.instances[1].tasks);
}

TEST(SweepSummary, AggregationInvariants) {
  sweep::SweepSpec spec = small_spec();
  spec.threads = 2;
  const sweep::SweepResult result = sweep::run_sweep(spec);
  const std::vector<sweep::PolicySummary> ranking =
      sweep::summarize(result);
  ASSERT_EQ(ranking.size(), spec.policies.size());

  int total_wins = 0;
  for (const sweep::PolicySummary& s : ranking) {
    EXPECT_GE(s.geomean_ratio, 1.0);
    EXPECT_GE(s.mean_ratio, s.geomean_ratio - 1e-9);  // AM-GM
    EXPECT_GE(s.p90_ratio, s.p50_ratio);
    EXPECT_GE(s.max_ratio, s.p90_ratio);
    EXPECT_GE(s.win_rate, 0.0);
    EXPECT_LE(s.win_rate, 1.0);
    total_wins += s.wins;
  }
  // Every instance has at least one winner (ties may add more).
  EXPECT_GE(total_wins, static_cast<int>(result.instances.size()));
  // Ranking is sorted by geomean ratio.
  for (std::size_t i = 1; i < ranking.size(); ++i) {
    EXPECT_LE(ranking[i - 1].geomean_ratio, ranking[i].geomean_ratio);
  }
}

TEST(SweepSummary, JsonIsByteIdenticalAcrossRunsAndThreadCounts) {
  sweep::SweepSpec spec = small_spec();

  spec.threads = 1;
  const sweep::SweepResult single = sweep::run_sweep(spec);
  const std::string single_json =
      sweep::summary_json(single, sweep::summarize(single));

  spec.threads = 3;
  const sweep::SweepResult threaded = sweep::run_sweep(spec);
  const std::string threaded_json =
      sweep::summary_json(threaded, sweep::summarize(threaded));

  const sweep::SweepResult repeat = sweep::run_sweep(spec);
  const std::string repeat_json =
      sweep::summary_json(repeat, sweep::summarize(repeat));

  EXPECT_EQ(single_json, threaded_json);
  EXPECT_EQ(threaded_json, repeat_json);

  // The per-instance raw makespans agree as well, not just the summary.
  ASSERT_EQ(single.instances.size(), threaded.instances.size());
  for (std::size_t i = 0; i < single.instances.size(); ++i) {
    EXPECT_EQ(single.instances[i].makespans,
              threaded.instances[i].makespans);
  }
}

TEST(SweepSummary, CsvHasOneRowPerInstancePolicyPair) {
  sweep::SweepSpec spec = small_spec();
  spec.threads = 1;
  const sweep::SweepResult result = sweep::run_sweep(spec);
  const std::string csv = sweep::per_instance_csv(result);
  const std::size_t lines =
      static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(lines,
            1 + result.instances.size() * spec.policies.size());
}

TEST(SweepRunner, GsaPolicyRunsAndIsCompetitive) {
  // A tiny gsa-only vs hlf sweep: the whole-schedule annealer starts from
  // the HLF placement, so it can never lose to plain first-idle HLF by
  // much; mainly this locks the gsa plumbing (explicit chain count, seed
  // wiring) into the test suite.
  sweep::SweepSpec spec = sweep::parse_spec(R"(
seed 7
topology ring:4
policy gsa
policy hlf
gsa_chains 1
gsa_max_steps 6
family diamond count=2 width=4:6
)");
  spec.threads = 2;
  const sweep::SweepResult result = sweep::run_sweep(spec);
  const sweep::SweepResult again = sweep::run_sweep(spec);
  ASSERT_EQ(result.instances.size(), 2u);
  for (std::size_t i = 0; i < result.instances.size(); ++i) {
    EXPECT_EQ(result.instances[i].makespans, again.instances[i].makespans);
  }
}

TEST(SweepSpec, ParsesOracleAndTimeBudgetKnobs) {
  const sweep::SweepSpec spec = sweep::parse_spec(R"(
seed 1
topology ring:3
policy gsa
gsa_chains 1
gsa_oracle full
time_budget_ms 250.5
family chain count=1 length=4
)");
  EXPECT_EQ(spec.gsa_options.oracle, sa::CostOracleKind::kFullReplay);
  EXPECT_DOUBLE_EQ(spec.time_budget_ms, 250.5);
  // The default is capability-driven resolution, which lands on the
  // incremental oracle (the pinned replay policy is pure-decision).
  EXPECT_EQ(small_spec().gsa_options.oracle, sa::CostOracleKind::kAuto);
  EXPECT_EQ(sa::resolve_cost_oracle_kind(small_spec().gsa_options.oracle),
            sa::CostOracleKind::kIncremental);
}

TEST(SweepSpec, RejectsBadOracleAndBudget) {
  EXPECT_THROW(sweep::parse_spec("gsa_oracle warp\n"),
               std::invalid_argument);
  EXPECT_THROW(sweep::parse_spec("time_budget_ms -5\n"),
               std::invalid_argument);
}

TEST(SweepRunner, OracleChoiceNeverChangesResults) {
  sweep::SweepSpec spec = sweep::parse_spec(R"(
seed 31
topology ring:4
policy gsa
policy hlf
gsa_chains 1
gsa_max_steps 6
family gnp count=2 tasks=12:18
)");
  spec.threads = 1;
  spec.gsa_options.oracle = sa::CostOracleKind::kFullReplay;
  const sweep::SweepResult full = sweep::run_sweep(spec);
  spec.gsa_options.oracle = sa::CostOracleKind::kIncremental;
  const sweep::SweepResult incremental = sweep::run_sweep(spec);
  ASSERT_EQ(full.instances.size(), incremental.instances.size());
  for (std::size_t i = 0; i < full.instances.size(); ++i) {
    EXPECT_EQ(full.instances[i].makespans,
              incremental.instances[i].makespans);
  }
}

TEST(SweepRunner, TimeBudgetMarksTimedOutCells) {
  sweep::SweepSpec spec = sweep::parse_spec(R"(
seed 7
topology ring:4
policy gsa
policy hlf
gsa_chains 1
family diamond count=1 width=6
)");
  spec.threads = 1;
  spec.time_budget_ms = 1e-6;  // exceeded before the first gsa step
  const sweep::SweepResult result = sweep::run_sweep(spec);
  ASSERT_EQ(result.instances.size(), 1u);
  const sweep::InstanceResult& row = result.instances[0];
  ASSERT_EQ(row.timed_out.size(), 2u);
  EXPECT_EQ(row.timed_out[0], 1);  // gsa stopped on its budget

  const auto ranking = sweep::summarize(result);
  int total_timeouts = 0;
  for (const auto& s : ranking) total_timeouts += s.timed_out;
  EXPECT_GE(total_timeouts, 1);
  const std::string json = sweep::summary_json(result, ranking);
  EXPECT_NE(json.find("\"timed_out\""), std::string::npos);
  EXPECT_NE(json.find("\"time_budget_ms\""), std::string::npos);
  const std::string csv = sweep::per_instance_csv(result);
  EXPECT_NE(csv.find("timed_out"), std::string::npos);
}

TEST(SweepRunner, NoBudgetMeansNoTimeouts) {
  sweep::SweepSpec spec = sweep::parse_spec(R"(
seed 7
topology ring:4
policy hlf
policy random
family chain count=2 length=6
)");
  spec.threads = 1;
  const sweep::SweepResult result = sweep::run_sweep(spec);
  for (const sweep::InstanceResult& row : result.instances) {
    for (const char flag : row.timed_out) EXPECT_EQ(flag, 0);
  }
  for (const auto& s : sweep::summarize(result)) {
    EXPECT_EQ(s.timed_out, 0);
  }
}

const char* kAblationSpec = R"(
seed 314
comm paper
comm_sigma_us 3:11
comm_tau_us 5:13
comm_send_cpu per_task_output,per_message,offloaded
topology ring:4
topology line:3
policy hlf
policy heft
policy peft
policy random
family gnp count=3 tasks=10:16 edge_probability=0.15
family diamond count=2 width=4:8
)";

TEST(SweepSpec, ParsesCommAblationKnobs) {
  const sweep::SweepSpec spec = sweep::parse_spec(kAblationSpec);
  EXPECT_EQ(spec.comm.sigma_us.lo, 3.0);
  EXPECT_EQ(spec.comm.sigma_us.hi, 11.0);
  EXPECT_EQ(spec.comm.tau_us.lo, 5.0);
  EXPECT_EQ(spec.comm.tau_us.hi, 13.0);
  ASSERT_EQ(spec.comm.send_cpu.size(), 3u);
  EXPECT_EQ(spec.comm.send_cpu[0], SendCpu::PerTaskOutput);
  EXPECT_EQ(spec.comm.send_cpu[1], SendCpu::PerMessage);
  EXPECT_EQ(spec.comm.send_cpu[2], SendCpu::Offloaded);
  EXPECT_FALSE(spec.comm.is_paper_default());
  // Specs that do not mention the knobs pin the paper hardware.
  EXPECT_TRUE(small_spec().comm.is_paper_default());
  // The ParamDef table's defaults agree with CommAblation's.
  const auto defs = sweep::comm_param_defs();
  ASSERT_EQ(defs.size(), 2u);
  EXPECT_EQ(defs[0].range.lo, sweep::CommAblation{}.sigma_us.lo);
  EXPECT_EQ(defs[1].range.lo, sweep::CommAblation{}.tau_us.lo);
}

TEST(SweepSpec, ParsesHeftAndPeftPolicies) {
  const sweep::SweepSpec spec = sweep::parse_spec(kAblationSpec);
  ASSERT_EQ(spec.policies.size(), 4u);
  EXPECT_EQ(spec.policies[1].canonical(), "heft");
  EXPECT_EQ(spec.policies[2].canonical(), "peft");
}

TEST(SweepSpec, RejectsBadCommAblationInput) {
  EXPECT_THROW(sweep::parse_spec("comm_sigma_us 9:4\n"),
               std::invalid_argument);  // lo > hi
  EXPECT_THROW(sweep::parse_spec("comm_sigma_us -2\n"),
               std::invalid_argument);  // negative
  EXPECT_THROW(sweep::parse_spec("comm_tau_us 4.5:6\n"),
               std::invalid_argument);  // fractional us
  EXPECT_THROW(sweep::parse_spec("comm_send_cpu warp\n"),
               std::invalid_argument);  // unknown mode
  EXPECT_THROW(
      sweep::parse_spec("comm_send_cpu per_message,per_message\n"),
      std::invalid_argument);  // duplicate mode
  // Ablation knobs with communication disabled cannot silently no-op.
  EXPECT_THROW(sweep::parse_spec("comm off\ncomm_sigma_us 3:11\n"
                                 "topology ring:3\npolicy hlf\n"
                                 "family chain count=1\n"),
               std::invalid_argument);
}

TEST(SweepRunner, CommAblationDrawsAreDeterministicAndInRange) {
  sweep::SweepSpec spec = sweep::parse_spec(kAblationSpec);
  spec.threads = 1;
  const sweep::SweepResult result = sweep::run_sweep(spec);
  bool any_non_default_mode = false;
  for (const sweep::InstanceResult& row : result.instances) {
    EXPECT_GE(row.sigma_us, 3);
    EXPECT_LE(row.sigma_us, 11);
    EXPECT_GE(row.tau_us, 5);
    EXPECT_LE(row.tau_us, 13);
    EXPECT_TRUE(row.send_cpu == "per_task_output" ||
                row.send_cpu == "per_message" || row.send_cpu == "offloaded")
        << row.send_cpu;
    if (row.send_cpu != "per_task_output") any_non_default_mode = true;
  }
  // With 10 instances and three modes the draw essentially surely leaves
  // the default at least once for this fixed seed.
  EXPECT_TRUE(any_non_default_mode);
  // The same (family, repetition) comm draw is shared across topologies
  // (paired cross-topology comparisons).
  EXPECT_EQ(result.instances[0].sigma_us, result.instances[1].sigma_us);
  EXPECT_EQ(result.instances[0].tau_us, result.instances[1].tau_us);
  EXPECT_EQ(result.instances[0].send_cpu, result.instances[1].send_cpu);
}

TEST(SweepRunner, AblationSummaryIsByteIdenticalAcrossRunsAndThreads) {
  sweep::SweepSpec spec = sweep::parse_spec(kAblationSpec);

  spec.threads = 1;
  const sweep::SweepResult single = sweep::run_sweep(spec);
  const std::string single_json =
      sweep::summary_json(single, sweep::summarize(single));

  spec.threads = 3;
  const sweep::SweepResult threaded = sweep::run_sweep(spec);
  const std::string threaded_json =
      sweep::summary_json(threaded, sweep::summarize(threaded));

  const sweep::SweepResult repeat = sweep::run_sweep(spec);
  const std::string repeat_json =
      sweep::summary_json(repeat, sweep::summarize(repeat));

  EXPECT_EQ(single_json, threaded_json);
  EXPECT_EQ(threaded_json, repeat_json);
  // The artifact echoes the ablation and carries the significance layer.
  EXPECT_NE(single_json.find("\"comm_sigma_us\""), std::string::npos);
  EXPECT_NE(single_json.find("\"comm_send_cpu\""), std::string::npos);
  EXPECT_NE(single_json.find("\"vs_best\""), std::string::npos);
  EXPECT_NE(single_json.find("\"wilcoxon_p\""), std::string::npos);
  // And the CSV exposes the per-instance draws.
  const std::string csv = sweep::per_instance_csv(single);
  EXPECT_NE(csv.find("sigma_us"), std::string::npos);
  EXPECT_NE(csv.find("send_cpu"), std::string::npos);
}

TEST(SweepSummary, SignificanceColumnsAreConsistent) {
  sweep::SweepSpec spec = sweep::parse_spec(kAblationSpec);
  spec.threads = 2;
  const sweep::SweepResult result = sweep::run_sweep(spec);
  const std::vector<sweep::PolicySummary> ranking =
      sweep::summarize(result);
  ASSERT_EQ(ranking.size(), 4u);
  // The leader carries the neutral defaults.
  EXPECT_EQ(ranking[0].vs_best.better, 0);
  EXPECT_EQ(ranking[0].vs_best.worse, 0);
  EXPECT_DOUBLE_EQ(ranking[0].vs_best.sign_p, 1.0);
  EXPECT_DOUBLE_EQ(ranking[0].vs_best.wilcoxon_p, 1.0);
  const int instances = static_cast<int>(result.instances.size());
  for (std::size_t i = 1; i < ranking.size(); ++i) {
    const sweep::PairedComparison& c = ranking[i].vs_best;
    EXPECT_GE(c.better, 0);
    EXPECT_GE(c.worse, 0);
    EXPECT_LE(c.better + c.worse, instances);
    EXPECT_GT(c.sign_p, 0.0);
    EXPECT_LE(c.sign_p, 1.0);
    EXPECT_GT(c.wilcoxon_p, 0.0);
    EXPECT_LE(c.wilcoxon_p, 1.0);
  }
  // The sanity baseline loses to the leader decisively.
  const sweep::PairedComparison& worst = ranking.back().vs_best;
  EXPECT_GT(worst.worse, worst.better);
}

TEST(SweepSpec, ParsesPolicyHyperparameters) {
  const sweep::SweepSpec spec = sweep::parse_spec(R"(
seed 5
topology ring:3
policy gsa(chains=1,max_steps=6)
policy heft(ranking=peft)
policy heft
family chain count=1 length=4
)");
  ASSERT_EQ(spec.policies.size(), 3u);
  EXPECT_EQ(spec.policies[0].name, "gsa");
  ASSERT_EQ(spec.policies[0].args.size(), 2u);
  EXPECT_EQ(spec.policies[0].args[0].first, "chains");
  EXPECT_EQ(spec.policies[0].args[0].second, "1");
  EXPECT_EQ(spec.policies[0].canonical(), "gsa(chains=1,max_steps=6)");
  EXPECT_EQ(spec.policies[1].canonical(), "heft(ranking=peft)");
  // The overrides land in the effective construction config; the
  // untouched keys keep the legacy/spec-level values.
  const sched::PolicyConfig config =
      sweep::effective_policy_config(spec, spec.policies[0]);
  EXPECT_EQ(config.get_int("chains"), 1);
  EXPECT_EQ(config.get_int("max_steps"), 6);
  EXPECT_EQ(config.get_string("oracle"), "auto");
}

TEST(SweepSpec, RejectsBadPolicyLines) {
  const char* tail = "\ntopology ring:3\nfamily chain count=1\n";
  EXPECT_THROW(sweep::parse_spec(std::string("policy warp") + tail),
               std::invalid_argument);  // unknown registry name
  EXPECT_THROW(
      sweep::parse_spec(std::string("policy gsa(chain=2)") + tail),
      std::invalid_argument);  // unknown config key
  EXPECT_THROW(
      sweep::parse_spec(std::string("policy gsa(chains=two)") + tail),
      std::invalid_argument);  // mistyped value
  EXPECT_THROW(
      sweep::parse_spec(std::string("policy gsa(chains=2") + tail),
      std::invalid_argument);  // unbalanced parentheses
  EXPECT_THROW(
      sweep::parse_spec(std::string("policy gsa(chains=2, moves=8)") + tail),
      std::invalid_argument);  // space splits the token
  EXPECT_THROW(
      sweep::parse_spec(std::string("policy hlf(x)") + tail),
      std::invalid_argument);  // override without '='
  // Identical canonical lines are duplicates; the same base policy with
  // different hyperparameters is a legitimate ablation axis.
  EXPECT_THROW(sweep::parse_spec(std::string("policy gsa(chains=2)\n"
                                             "policy gsa(chains=2)\n"
                                             "gsa_chains 1") +
                                 tail),
               std::invalid_argument);
  const sweep::SweepSpec ablation = sweep::parse_spec(
      std::string("policy gsa(chains=1)\npolicy gsa(chains=2)\n"
                  "gsa_max_steps 4") +
      tail);
  EXPECT_EQ(ablation.policies.size(), 2u);
}

TEST(SweepRunner, PolicyHyperparametersApplyEndToEnd) {
  // `gsa(chains=1,max_steps=6)` must run exactly like the legacy
  // spec-level knobs `gsa_chains 1` + `gsa_max_steps 6` — same derived
  // seeds, same makespans — even when the legacy knobs disagree (the
  // parenthesized overrides win).
  const char* body = R"(
seed 21
topology ring:4
policy hlf
family gnp count=2 tasks=10:14
)";
  sweep::SweepSpec with_args = sweep::parse_spec(
      std::string("policy gsa(chains=1,max_steps=6)\ngsa_chains 3\n") +
      body);
  sweep::SweepSpec legacy = sweep::parse_spec(
      std::string("policy gsa\ngsa_chains 1\ngsa_max_steps 6\n") + body);
  with_args.threads = 1;
  legacy.threads = 1;
  const sweep::SweepResult a = sweep::run_sweep(with_args);
  const sweep::SweepResult b = sweep::run_sweep(legacy);
  ASSERT_EQ(a.instances.size(), b.instances.size());
  for (std::size_t i = 0; i < a.instances.size(); ++i) {
    EXPECT_EQ(a.instances[i].makespans, b.instances[i].makespans);
  }
  // The hyperparameterized label flows into the summary artifact.
  const std::string json = sweep::summary_json(a, sweep::summarize(a));
  EXPECT_NE(json.find("\"gsa(chains=1,max_steps=6)\""), std::string::npos);
}

TEST(SweepRunner, HeftRankingOverrideMatchesPeftColumn) {
  sweep::SweepSpec spec = sweep::parse_spec(R"(
seed 11
topology hypercube8
policy heft(ranking=peft)
policy peft
family gnp count=3 tasks=12:20
)");
  spec.threads = 1;
  const sweep::SweepResult result = sweep::run_sweep(spec);
  for (const sweep::InstanceResult& row : result.instances) {
    ASSERT_EQ(row.makespans.size(), 2u);
    EXPECT_EQ(row.makespans[0], row.makespans[1]);
  }
}

TEST(SweepSummary, HolmColumnIsConsistent) {
  sweep::SweepSpec spec = sweep::parse_spec(kAblationSpec);
  spec.threads = 2;
  const sweep::SweepResult result = sweep::run_sweep(spec);
  const std::vector<sweep::PolicySummary> ranking =
      sweep::summarize(result);
  EXPECT_DOUBLE_EQ(ranking[0].vs_best.wilcoxon_p_holm, 1.0);  // leader
  for (std::size_t i = 1; i < ranking.size(); ++i) {
    // Holm only ever inflates a p-value, never past 1.
    const sweep::PairedComparison& c = ranking[i].vs_best;
    EXPECT_GE(c.wilcoxon_p_holm, c.wilcoxon_p);
    EXPECT_LE(c.wilcoxon_p_holm, 1.0);
  }
  const std::string json = sweep::summary_json(result, ranking);
  EXPECT_NE(json.find("\"wilcoxon_p_holm\""), std::string::npos);
  const std::string table = sweep::render_summary_table(result, ranking);
  EXPECT_NE(table.find("p(holm)"), std::string::npos);
}

// A hand-built four-policy result whose three leaders sit at different
// ranks: alpha leads the makespan ranking, bravo (rank 2) degrades least
// under faults and delta (last) leads the online ranking.  Built row by
// row, not through a sweep, so every count below can be read off the
// columns by hand.
struct HandBuiltPolicy {
  const char* name;
  std::vector<double> makespans;
  std::vector<double> base_makespans;
  std::vector<double> weighted_flow_us;
  double hit_rate;
};

const std::vector<HandBuiltPolicy> kHandBuilt = {
    {"alpha",
     {100, 100, 100, 100, 100, 100},
     {50, 50, 50, 50, 50, 50},
     {1000, 1000, 1000, 1000, 1000, 1000},
     0.5},
    {"bravo",
     {105, 110, 100, 120, 100, 95},
     {105, 80, 100, 100, 100, 95},
     {900, 1100, 950, 1200, 1000, 980},
     0.6},
    {"charlie",
     {130, 120, 110, 140, 150, 100},
     {100, 100, 100, 100, 100, 100},
     {1500, 1400, 1300, 1200, 1100, 1000},
     0.4},
    {"delta",
     {200, 180, 160, 150, 170, 190},
     {100, 180, 80, 150, 100, 190},
     {800, 1200, 1000, 900, 1300, 1000},
     0.9},
};

sweep::SweepResult hand_built_result() {
  sweep::SweepResult result;
  result.spec.faults.machine_mtbf_us = {100, 100};
  result.spec.arrivals.count = {2, 2};
  for (const HandBuiltPolicy& policy : kHandBuilt) {
    result.spec.policies.push_back(sweep::PolicySpec{policy.name, {}});
  }
  for (std::size_t r = 0; r < kHandBuilt[0].makespans.size(); ++r) {
    sweep::InstanceResult row;
    row.index = static_cast<int>(r);
    for (const HandBuiltPolicy& policy : kHandBuilt) {
      row.makespans.push_back(static_cast<Time>(policy.makespans[r]));
      row.base_makespans.push_back(
          static_cast<Time>(policy.base_makespans[r]));
      row.retries.push_back(0);
      row.restarts.push_back(0);
      row.failed.push_back(0);
      row.weighted_flow_us.push_back(policy.weighted_flow_us[r]);
      row.hit_rate.push_back(policy.hit_rate);
      row.p99_response.push_back(static_cast<Time>(policy.makespans[r]));
      row.max_lateness.push_back(0);
    }
    result.instances.push_back(std::move(row));
  }
  return result;
}

// Asserts one family: the leader keeps the neutral defaults, every other
// row carries the given strict better/worse counts against the leader,
// the sign and Wilcoxon (over log differences of `metric`) p-values, and
// Holm adjusts the non-leader rows' Wilcoxon p-values in ranking order.
void expect_family(
    const std::vector<sweep::PolicySummary>& ranking,
    sweep::PairedComparison sweep::PolicySummary::*family,
    const std::string& leader,
    const std::map<std::string, std::pair<int, int>>& better_worse,
    const std::function<std::vector<double>(const HandBuiltPolicy&)>&
        metric) {
  const auto column = [&](const std::string& name) {
    for (const HandBuiltPolicy& policy : kHandBuilt) {
      if (policy.name == name) return metric(policy);
    }
    ADD_FAILURE() << "unknown policy " << name;
    return std::vector<double>{};
  };
  std::vector<double> raw;
  for (const sweep::PolicySummary& s : ranking) {
    SCOPED_TRACE(s.policy);
    const sweep::PairedComparison& v = s.*family;
    if (s.policy == leader) {
      EXPECT_EQ(v.better, 0);
      EXPECT_EQ(v.worse, 0);
      EXPECT_DOUBLE_EQ(v.sign_p, 1.0);
      EXPECT_DOUBLE_EQ(v.wilcoxon_p, 1.0);
      EXPECT_DOUBLE_EQ(v.wilcoxon_p_holm, 1.0);
      continue;
    }
    EXPECT_EQ(v.better, better_worse.at(s.policy).first);
    EXPECT_EQ(v.worse, better_worse.at(s.policy).second);
    EXPECT_DOUBLE_EQ(v.sign_p, sign_test(v.better, v.worse).p_value);
    const std::vector<double> mine = column(s.policy);
    const std::vector<double> theirs = column(leader);
    std::vector<double> log_diffs;
    for (std::size_t r = 0; r < mine.size(); ++r) {
      log_diffs.push_back(std::log(mine[r]) - std::log(theirs[r]));
    }
    EXPECT_DOUBLE_EQ(v.wilcoxon_p, wilcoxon_signed_rank(log_diffs).p_value);
    raw.push_back(v.wilcoxon_p);
  }
  const std::vector<double> holm = holm_bonferroni(raw);
  std::size_t k = 0;
  for (const sweep::PolicySummary& s : ranking) {
    if (s.policy == leader) continue;
    EXPECT_DOUBLE_EQ((s.*family).wilcoxon_p_holm, holm[k++]) << s.policy;
  }
}

// The policy cells (column `policy_cell`) of the rows whose trailing
// `paired_cells` cells are all "-" in the table section that starts at
// `marker`.
std::vector<std::string> dashed_rows(const std::string& table,
                                     const std::string& marker,
                                     std::size_t policy_cell,
                                     std::size_t paired_cells) {
  std::vector<std::string> dashed;
  std::size_t pos = table.find(marker);
  if (pos == std::string::npos) return dashed;
  bool header = true;
  for (pos = table.find('\n', pos); pos != std::string::npos;) {
    const std::size_t end = table.find('\n', pos + 1);
    const std::string line = table.substr(pos + 1, end - pos - 1);
    pos = end;
    if (line.empty() || (line[0] != '|' && line[0] != '+')) break;
    if (line[0] == '+') continue;
    if (header) {  // the first '|' line names the columns
      header = false;
      continue;
    }
    std::vector<std::string> cells;
    std::size_t start = 1;
    for (std::size_t bar = line.find('|', start); bar != std::string::npos;
         bar = line.find('|', start)) {
      std::string cell = line.substr(start, bar - start);
      cell.erase(0, cell.find_first_not_of(' '));
      cell.erase(cell.find_last_not_of(' ') + 1);
      cells.push_back(cell);
      start = bar + 1;
    }
    if (cells.size() > policy_cell + paired_cells &&
        std::all_of(cells.end() - static_cast<std::ptrdiff_t>(paired_cells),
                    cells.end(),
                    [](const std::string& c) { return c == "-"; })) {
      dashed.push_back(cells[policy_cell]);
    }
  }
  return dashed;
}

TEST(SweepSummary, PairedFamiliesOnHandBuiltResult) {
  const sweep::SweepResult result = hand_built_result();
  const std::vector<sweep::PolicySummary> ranking = sweep::summarize(result);
  ASSERT_EQ(ranking.size(), 4u);
  EXPECT_EQ(ranking[0].policy, "alpha");
  EXPECT_EQ(ranking[1].policy, "bravo");
  EXPECT_EQ(ranking[2].policy, "charlie");
  EXPECT_EQ(ranking[3].policy, "delta");

  {
    SCOPED_TRACE("vs_best");
    expect_family(
        ranking,
        &sweep::PolicySummary::vs_best,
        "alpha", {{"bravo", {1, 3}}, {"charlie", {0, 5}}, {"delta", {0, 6}}},
        [](const HandBuiltPolicy& p) { return p.makespans; });
  }
  {
    SCOPED_TRACE("vs_least_degrading");
    expect_family(
        ranking,
        &sweep::PolicySummary::vs_least_degrading,
        "bravo", {{"alpha", {0, 6}}, {"charlie", {1, 4}}, {"delta", {2, 3}}},
        [](const HandBuiltPolicy& p) {
          std::vector<double> degradation;
          for (std::size_t r = 0; r < p.makespans.size(); ++r) {
            degradation.push_back(p.makespans[r] / p.base_makespans[r]);
          }
          return degradation;
        });
  }
  {
    SCOPED_TRACE("vs_online_leader");
    expect_family(
        ranking,
        &sweep::PolicySummary::vs_online_leader,
        "delta", {{"alpha", {2, 2}}, {"bravo", {4, 2}}, {"charlie", {1, 4}}},
        [](const HandBuiltPolicy& p) { return p.weighted_flow_us; });
  }

  const std::string table = sweep::render_summary_table(result, ranking);
  EXPECT_EQ(dashed_rows(table, "Sweep:", 1, 4),
            std::vector<std::string>{"alpha"});
  EXPECT_EQ(dashed_rows(table, "Robustness:", 0, 2),
            std::vector<std::string>{"bravo"});
  EXPECT_EQ(dashed_rows(table, "Online:", 0, 2),
            std::vector<std::string>{"delta"});
}

TEST(JsonWriter, RendersDeterministicStructure) {
  JsonWriter w(3);
  w.begin_object();
  w.key("name");
  w.value("a\"b");
  w.key("ratio");
  w.value(1.5);
  w.key("list");
  w.begin_array();
  w.value(std::int64_t{1});
  w.value(true);
  w.end_array();
  w.key("empty");
  w.begin_object();
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"name\": \"a\\\"b\",\n"
            "  \"ratio\": 1.500,\n"
            "  \"list\": [\n"
            "    1,\n"
            "    true\n"
            "  ],\n"
            "  \"empty\": {}\n"
            "}\n");
}

// Process-level sharding: running the spec as N shards and merging the
// artifacts must reproduce the unsharded run byte for byte — summary JSON
// and per-instance CSV — regardless of the merge order.  The online spec
// exercises the IEEE-754 bit-pattern round-trip of the floating-point
// metric columns (weighted flow, hit rate).
TEST(SweepShard, MergeReproducesUnshardedRunByteForByte) {
  sweep::SweepSpec spec = sweep::parse_spec(R"(
seed 7041
threads 2
policy hlf
policy etf
arrival_count 3
arrival_gap_us 200:600
arrival_deadline_slack 1.5
arrival_weight_max 3
family gnp count=3 tasks=10:14 edge_probability=0.2
family diamond count=2 width=3:5
topology ring:4
)");
  const sweep::SweepResult full = sweep::run_sweep(spec);
  const auto full_ranking = sweep::summarize(full);
  const std::string full_json = sweep::summary_json(full, full_ranking);
  const std::string full_csv = sweep::per_instance_csv(full);

  const int num_shards = 3;
  std::vector<std::string> artifacts;
  for (int k = 0; k < num_shards; ++k) {
    artifacts.push_back(sweep::run_shard(spec, k, num_shards));
  }
  // Merge order must not matter.
  std::rotate(artifacts.begin(), artifacts.begin() + 1, artifacts.end());

  const sweep::SweepResult merged = sweep::merge_shards(spec, artifacts);
  const auto merged_ranking = sweep::summarize(merged);
  EXPECT_EQ(sweep::summary_json(merged, merged_ranking), full_json);
  EXPECT_EQ(sweep::per_instance_csv(merged), full_csv);
}

TEST(SweepShard, MergeRejectsMismatchedOrIncompleteSets) {
  sweep::SweepSpec spec = small_spec();
  spec.threads = 2;
  std::vector<std::string> artifacts;
  for (int k = 0; k < 2; ++k) {
    artifacts.push_back(sweep::run_shard(spec, k, 2));
  }

  // Missing shard.
  EXPECT_THROW(sweep::merge_shards(spec, {artifacts[0]}),
               std::invalid_argument);
  // Duplicate shard.
  EXPECT_THROW(sweep::merge_shards(spec, {artifacts[0], artifacts[0]}),
               std::invalid_argument);
  // Shard from a different seed.
  sweep::SweepSpec other = small_spec();
  other.seed = 123456;
  EXPECT_THROW(
      sweep::merge_shards(spec,
                          {artifacts[0], sweep::run_shard(other, 1, 2)}),
      std::invalid_argument);
  // Not a shard artifact at all.
  EXPECT_THROW(sweep::merge_shards(spec, {"{\"format\": \"nope\"}"}),
               std::invalid_argument);
  // The complete set still merges.
  EXPECT_NO_THROW(sweep::merge_shards(spec, artifacts));
}

TEST(SweepShard, RunnerShardValidatesItsArguments) {
  const sweep::SweepSpec spec = small_spec();
  EXPECT_THROW(sweep::run_sweep_shard(spec, -1, 2), std::invalid_argument);
  EXPECT_THROW(sweep::run_sweep_shard(spec, 2, 2), std::invalid_argument);
  EXPECT_THROW(sweep::run_sweep_shard(spec, 0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace dagsched
