// Online arrival-stream layer: determinism of workflow identities
// (sim/arrivals.hpp), the merged-instance builder, hand-computed online
// metrics, the shared online-run validator over every `online`-capable
// registry policy, the arrival_* sweep-spec surface (round-trip, drawn
// ranges, malformed rejection, the online capability gate), sweep-level
// byte-determinism of the online summary, the zero-arrival compatibility
// guard, and the deterministic-policy replicate elision.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "schedule_checks.hpp"
#include "sched/registry.hpp"
#include "sim/arrivals.hpp"
#include "sim/engine.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"
#include "sweep/summary.hpp"
#include "topology/builders.hpp"
#include "util/rng.hpp"

namespace dagsched {
namespace {

/// A small per-workflow DAG family for arrival tests: the graph seed
/// drives gnp, so distinct workflows get distinct DAGs.
sim::WorkflowFactory gnp_factory(int tasks = 8) {
  return [tasks](int, std::uint64_t graph_seed) {
    gen::GnpDagOptions options;
    options.num_tasks = tasks;
    options.edge_probability = 0.25;
    options.seed = graph_seed;
    return gen::gnp_dag(options);
  };
}

sim::ArrivalSpec bursty_spec(int workflows) {
  sim::ArrivalSpec spec;
  spec.num_workflows = workflows;
  spec.mean_gap = us(std::int64_t{300});
  spec.burst_prob = 0.4;
  spec.burst_mult = 6.0;
  spec.deadline_slack = 3.0;
  spec.duration_jitter = 0.2;
  spec.weight_max = 4.0;
  spec.seed = 99;
  return spec;
}

// ---------------------------------------------------------------------------
// ArrivalSpec validation.

TEST(ArrivalSpec, ValidateRejectsNonsense) {
  const auto rejects = [](auto mutate) {
    sim::ArrivalSpec spec = bursty_spec(3);
    mutate(spec);
    EXPECT_THROW(spec.validate(), std::invalid_argument);
  };
  rejects([](sim::ArrivalSpec& s) { s.num_workflows = -1; });
  rejects([](sim::ArrivalSpec& s) { s.mean_gap = 0; });
  rejects([](sim::ArrivalSpec& s) { s.burst_prob = -0.1; });
  rejects([](sim::ArrivalSpec& s) { s.burst_prob = 1.5; });
  rejects([](sim::ArrivalSpec& s) { s.burst_mult = 0.5; });
  rejects([](sim::ArrivalSpec& s) { s.deadline_slack = -1.0; });
  rejects([](sim::ArrivalSpec& s) { s.duration_jitter = 1.0; });
  rejects([](sim::ArrivalSpec& s) { s.duration_jitter = -0.2; });
  rejects([](sim::ArrivalSpec& s) { s.weight_max = 0.9; });
  bursty_spec(3).validate();  // the baseline itself is fine
}

// ---------------------------------------------------------------------------
// Instance building: determinism and plan invariants.

TEST(ArrivalInstance, BuildIsDeterministicAndWellFormed) {
  const sim::ArrivalSpec spec = bursty_spec(5);
  sim::ArrivalPlan a;
  sim::ArrivalPlan b;
  const TaskGraph graph_a = sim::build_arrival_instance(spec, gnp_factory(), a);
  const TaskGraph graph_b = sim::build_arrival_instance(spec, gnp_factory(), b);

  EXPECT_EQ(graph_a.num_tasks(), graph_b.num_tasks());
  EXPECT_EQ(a.arrival, b.arrival);
  EXPECT_EQ(a.deadline, b.deadline);
  EXPECT_EQ(a.weight, b.weight);
  EXPECT_EQ(a.task_workflow, b.task_workflow);
  EXPECT_EQ(a.actual_duration, b.actual_duration);

  ASSERT_EQ(a.num_workflows(), 5);
  EXPECT_EQ(a.arrival[0], 0) << "workflow 0 must arrive at time zero";
  for (std::size_t w = 1; w < a.arrival.size(); ++w) {
    EXPECT_GE(a.arrival[w], a.arrival[w - 1]);
  }
  for (std::size_t w = 0; w < a.weight.size(); ++w) {
    EXPECT_GE(a.weight[w], 1.0);
    EXPECT_LE(a.weight[w], spec.weight_max);
    ASSERT_NE(a.deadline[w], kTimeInfinity) << "slack > 0 implies deadlines";
    EXPECT_GT(a.deadline[w], a.arrival[w]);
  }
  // Jitter > 0: actual durations are present, positive, and differ from
  // the nominal for at least one task of a nontrivial instance.
  ASSERT_EQ(a.actual_duration.size(),
            static_cast<std::size_t>(graph_a.num_tasks()));
  bool any_jittered = false;
  for (TaskId t = 0; t < graph_a.num_tasks(); ++t) {
    EXPECT_GT(a.actual_duration[static_cast<std::size_t>(t)], 0);
    if (a.actual_duration[static_cast<std::size_t>(t)] != graph_a.duration(t)) {
      any_jittered = true;
    }
  }
  EXPECT_TRUE(any_jittered);
  // Merged task names carry their workflow prefix.
  EXPECT_EQ(graph_a.task_name(0).rfind("w0:", 0), 0u)
      << graph_a.task_name(0);
}

TEST(ArrivalInstance, ZeroSlackMeansNoDeadlinesAndZeroJitterMeansNominal) {
  sim::ArrivalSpec spec = bursty_spec(4);
  spec.deadline_slack = 0.0;
  spec.duration_jitter = 0.0;
  sim::ArrivalPlan plan;
  const TaskGraph graph =
      sim::build_arrival_instance(spec, gnp_factory(), plan);
  (void)graph;
  for (Time deadline : plan.deadline) {
    EXPECT_EQ(deadline, kTimeInfinity);
  }
  EXPECT_TRUE(plan.actual_duration.empty());
}

TEST(ArrivalInstance, SeedChangesTheStream) {
  sim::ArrivalSpec spec = bursty_spec(5);
  sim::ArrivalPlan a;
  sim::build_arrival_instance(spec, gnp_factory(), a);
  spec.seed = 100;
  sim::ArrivalPlan b;
  sim::build_arrival_instance(spec, gnp_factory(), b);
  EXPECT_NE(a.arrival, b.arrival);
}

TEST(ArrivalInstance, PlanValidateRejectsEveryMalformation) {
  const sim::ArrivalSpec spec = bursty_spec(3);
  sim::ArrivalPlan plan;
  const TaskGraph graph =
      sim::build_arrival_instance(spec, gnp_factory(), plan);
  plan.validate(graph);  // the built plan itself is well-formed

  const auto rejects = [&](auto mutate) {
    sim::ArrivalPlan broken = plan;
    mutate(broken);
    EXPECT_THROW(broken.validate(graph), std::invalid_argument);
  };
  rejects([](sim::ArrivalPlan& p) { p.arrival.clear(); });
  rejects([](sim::ArrivalPlan& p) { p.deadline.pop_back(); });
  rejects([](sim::ArrivalPlan& p) { p.task_workflow.pop_back(); });
  rejects([](sim::ArrivalPlan& p) { p.actual_duration.pop_back(); });
  rejects([](sim::ArrivalPlan& p) { p.arrival[0] = -1; });
  rejects([](sim::ArrivalPlan& p) { p.arrival[2] = p.arrival[1] - 1; });
  rejects([](sim::ArrivalPlan& p) { p.deadline[1] = p.arrival[1] - 1; });
  rejects([](sim::ArrivalPlan& p) { p.weight[0] = 0.5; });
  rejects([](sim::ArrivalPlan& p) { p.task_workflow[0] = 99; });
  rejects([](sim::ArrivalPlan& p) { p.actual_duration[0] = 0; });
}

// ---------------------------------------------------------------------------
// Online metrics, hand-computed.

TEST(OnlineMetrics, MatchesHandComputedValues) {
  sim::ArrivalPlan plan;
  plan.arrival = {0, us(std::int64_t{100}), us(std::int64_t{200})};
  plan.deadline = {us(std::int64_t{280}), kTimeInfinity,
                   us(std::int64_t{750})};
  plan.weight = {1.0, 2.0, 3.0};
  const std::vector<Time> completion = {
      us(std::int64_t{300}), us(std::int64_t{250}), us(std::int64_t{500})};
  const sim::OnlineMetrics m = sim::compute_online_metrics(plan, completion);
  // Responses: 300, 150, 300 us; weighted flow = 1*300 + 2*150 + 3*300.
  EXPECT_DOUBLE_EQ(m.weighted_flow_us, 1500.0);
  // Deadline-bearing workflows: 0 (missed by 20us) and 2 (hit).
  EXPECT_DOUBLE_EQ(m.hit_rate, 0.5);
  EXPECT_EQ(m.max_lateness, us(std::int64_t{20}));
  // Nearest-rank p99 of {150, 300, 300} is the 3rd order statistic.
  EXPECT_EQ(m.p99_response, us(std::int64_t{300}));
  EXPECT_EQ(m.workflows, 3);
}

TEST(OnlineMetrics, EmptyPlanReturnsTheSentinelWithoutUnderflow) {
  // Regression: the nearest-rank p99 index is 1-based, so an empty
  // response set must short-circuit to the sentinel metrics instead of
  // computing responses[rank - 1] with rank == 0 (a size_t underflow).
  const sim::ArrivalPlan plan;
  const std::vector<Time> completion;
  const sim::OnlineMetrics m = sim::compute_online_metrics(plan, completion);
  EXPECT_EQ(m.workflows, 0);
  EXPECT_EQ(m.p99_response, 0);
  EXPECT_EQ(m.max_lateness, 0);
  EXPECT_DOUBLE_EQ(m.weighted_flow_us, 0.0);
  EXPECT_DOUBLE_EQ(m.hit_rate, 1.0);
}

TEST(OnlineMetrics, SingleWorkflowP99IsItsOwnResponse) {
  // n = 1: nearest rank ceil(0.99) = 1 -> the only response, exercising
  // the smallest non-empty case of the shared util/stats helper.
  sim::ArrivalPlan plan;
  plan.arrival = {us(std::int64_t{40})};
  plan.deadline = {kTimeInfinity};
  plan.weight = {1.0};
  const std::vector<Time> completion = {us(std::int64_t{100})};
  const sim::OnlineMetrics m = sim::compute_online_metrics(plan, completion);
  EXPECT_EQ(m.workflows, 1);
  EXPECT_EQ(m.p99_response, us(std::int64_t{60}));
}

TEST(OnlineMetrics, HitRateIsOneWithoutDeadlines) {
  sim::ArrivalPlan plan;
  plan.arrival = {0, us(std::int64_t{50})};
  plan.deadline = {kTimeInfinity, kTimeInfinity};
  plan.weight = {1.0, 1.0};
  const std::vector<Time> completion = {us(std::int64_t{90}),
                                        us(std::int64_t{120})};
  EXPECT_DOUBLE_EQ(sim::compute_online_metrics(plan, completion).hit_rate,
                   1.0);
}

// ---------------------------------------------------------------------------
// Cross-policy online validity: every online-capable registry policy runs
// randomized arrival instances through the shared online validator
// (mirrors test_cross_policy.cpp's offline suite).

TEST(OnlineCrossPolicy, EveryOnlinePolicyPassesTheOnlineValidator) {
  const auto& registry = sched::PolicyRegistry::instance();
  std::vector<std::string> online_names;
  for (const std::string& name : registry.names()) {
    if (registry.descriptor(name).caps.online) online_names.push_back(name);
  }
  const std::vector<std::string> expected = {"hlf", "hlf-mincomm", "etf",
                                             "random", "dagprio"};
  EXPECT_EQ(online_names, expected) << "online capability set changed";

  Rng rng(0xA11C);
  const Topology machines[] = {topo::hypercube(3), topo::ring(5),
                               topo::mesh(2, 3), topo::shared_bus(4)};
  for (int round = 0; round < 4; ++round) {
    sim::ArrivalSpec arrival_spec;
    arrival_spec.num_workflows = 2 + static_cast<int>(rng.uniform_index(4));
    arrival_spec.mean_gap = us(rng.uniform_int(100, 600));
    arrival_spec.burst_prob = 0.5 * rng.uniform01();
    arrival_spec.burst_mult = 1.0 + 7.0 * rng.uniform01();
    arrival_spec.deadline_slack = (round % 2 == 0) ? 2.5 : 0.0;
    arrival_spec.duration_jitter = (round % 2 == 1) ? 0.25 : 0.0;
    arrival_spec.weight_max = 1.0 + 3.0 * rng.uniform01();
    arrival_spec.seed = rng.next_u64();

    sim::ArrivalPlan plan;
    const TaskGraph graph = sim::build_arrival_instance(
        arrival_spec, gnp_factory(6 + round * 2), plan);
    const Topology& machine = machines[round % 4];
    const CommModel comm = CommModel::paper_default();

    for (const std::string& name : online_names) {
      sched::PolicyConfig config = registry.make_config(name);
      config.seed = rng.next_u64();
      const std::unique_ptr<sched::ScheduledPolicy> policy =
          registry.make(name, config);
      sched::PolicyRunOptions options;
      options.sim.record_trace = true;  // the validator needs the trace
      options.sim.arrivals = &plan;
      const sched::PolicyRunOutcome outcome =
          policy->run(graph, machine, comm, options);
      EXPECT_GT(outcome.result.makespan, 0);
      EXPECT_GT(outcome.result.online.workflows, 0) << name;
      EXPECT_TRUE(
          online_run_is_valid(graph, machine, comm, plan, outcome.result))
          << name << " on " << machine.name() << " (round " << round << ", "
          << plan.num_workflows() << " workflows)";
    }
  }
}

// ---------------------------------------------------------------------------
// The arrival_* sweep-spec surface.

constexpr const char* kOnlineSpec = R"(
seed 21
comm paper
threads 1
arrival_count 3
arrival_gap_us 200:600
arrival_burst_prob 0.3
arrival_burst_mult 6
arrival_deadline_slack 4.0
arrival_jitter 0.15
arrival_weight_max 4
topology ring:4
policy hlf
policy etf
policy dagprio
family fork_join count=3 stages=2:3 width=3:4
family gnp count=3 tasks=10:16
)";

TEST(ArrivalSpecParse, RoundTripsEveryKnob) {
  const sweep::SweepSpec spec = sweep::parse_spec(kOnlineSpec);
  EXPECT_TRUE(spec.arrivals.enabled());
  EXPECT_EQ(spec.arrivals.count.lo, 3.0);
  EXPECT_EQ(spec.arrivals.count.hi, 3.0);
  EXPECT_EQ(spec.arrivals.gap_us.lo, 200.0);
  EXPECT_EQ(spec.arrivals.gap_us.hi, 600.0);
  EXPECT_EQ(spec.arrivals.burst_prob.lo, 0.3);
  EXPECT_EQ(spec.arrivals.burst_mult.lo, 6.0);
  EXPECT_EQ(spec.arrivals.deadline_slack.lo, 4.0);
  EXPECT_EQ(spec.arrivals.jitter.lo, 0.15);
  EXPECT_EQ(spec.arrivals.weight_max.lo, 4.0);
}

TEST(ArrivalSpecParse, DefaultsKeepArrivalsDisabled) {
  const sweep::SweepSpec spec = sweep::parse_spec(R"(
seed 1
topology ring:4
policy hlf
family diamond count=1 width=4
)");
  EXPECT_FALSE(spec.arrivals.enabled());
}

/// Malformed arrival lines fail with the line number and an actionable
/// message; drawn values from well-formed range lines stay in range.
TEST(ArrivalSpecParse, RejectsMalformedLinesWithLineNumbers) {
  const auto rejects = [](const std::string& line,
                          const std::string& needle) {
    const std::string text = "seed 1\ntopology ring:4\npolicy hlf\n" + line +
                             "\nfamily diamond count=1 width=4\n";
    try {
      sweep::parse_spec(text);
      FAIL() << "accepted malformed line: " << line;
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find(needle), std::string::npos) << message;
    }
  };
  rejects("arrival_count 2.5", "integers");
  rejects("arrival_count 2.5", "line 4");
  rejects("arrival_bogus 3", "unknown key");
  rejects("arrival_gap_us 10:5", "lo > hi");
  rejects("arrival_gap_us abc", "bad number");
  // Range violations are spec-level (validate), not line-level.
  rejects("arrival_count -1", "negative arrival_count");
  rejects("arrival_count 0:3", "must stay >= 1");
  rejects("arrival_count 2\narrival_gap_us 0", "must be positive");
  rejects("arrival_count 2\narrival_burst_prob 1.5", "[0, 1]");
  rejects("arrival_count 2\narrival_burst_mult 0.5", ">= 1");
  rejects("arrival_count 2\narrival_deadline_slack -1",
          "negative arrival_deadline_slack");
  rejects("arrival_count 2\narrival_jitter 1.0", "[0, 1)");
  rejects("arrival_count 2\narrival_weight_max 0.5", ">= 1");
}

TEST(ArrivalSpecParse, FuzzedRangeLinesRoundTrip) {
  Rng rng(0x5EED);
  for (int i = 0; i < 50; ++i) {
    const std::int64_t lo = rng.uniform_int(1, 500);
    const std::int64_t hi = lo + rng.uniform_int(0, 500);
    const int count = static_cast<int>(rng.uniform_int(1, 6));
    const std::string text =
        "seed 1\ntopology ring:4\npolicy hlf\n"
        "arrival_count " + std::to_string(count) + "\n"
        "arrival_gap_us " + std::to_string(lo) + ":" + std::to_string(hi) +
        "\nfamily diamond count=1 width=4\n";
    const sweep::SweepSpec spec = sweep::parse_spec(text);
    EXPECT_EQ(spec.arrivals.count.lo, static_cast<double>(count));
    EXPECT_EQ(spec.arrivals.gap_us.lo, static_cast<double>(lo));
    EXPECT_EQ(spec.arrivals.gap_us.hi, static_cast<double>(hi));
  }
}

TEST(ArrivalSpecParse, OnlineSweepRejectsOfflinePlannersByName) {
  const std::string text = R"(
seed 1
arrival_count 2
topology ring:4
policy hlf
policy heft
family diamond count=1 width=4
)";
  try {
    sweep::parse_spec(text);
    FAIL() << "an offline planner slipped into an online sweep";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("heft"), std::string::npos) << message;
    EXPECT_NE(message.find("online"), std::string::npos) << message;
  }
}

TEST(ArrivalSpecParse, ArrivalAndFaultAxesCannotCombine) {
  EXPECT_THROW(sweep::parse_spec(R"(
seed 1
arrival_count 2
fault_machine_mtbf_us 500
topology ring:4
policy hlf
family diamond count=1 width=4
)"),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Sweep-level online surface and byte-determinism.

TEST(OnlineSweep, OnlineColumnsAreFilledAndRangedDrawsStayInRange) {
  const sweep::SweepSpec spec = sweep::parse_spec(kOnlineSpec);
  const sweep::SweepResult result = sweep::run_sweep(spec);
  ASSERT_EQ(result.instances.size(), 6u);
  for (const sweep::InstanceResult& row : result.instances) {
    EXPECT_EQ(row.workflows, 3);
    EXPECT_NE(row.arrival_seed, 0u);
    ASSERT_EQ(row.weighted_flow_us.size(), spec.policies.size());
    ASSERT_EQ(row.hit_rate.size(), spec.policies.size());
    for (std::size_t p = 0; p < spec.policies.size(); ++p) {
      EXPECT_GT(row.weighted_flow_us[p], 0.0);
      EXPECT_GE(row.hit_rate[p], 0.0);
      EXPECT_LE(row.hit_rate[p], 1.0);
      EXPECT_GT(row.p99_response[p], 0);
      EXPECT_GE(row.max_lateness[p], 0);
    }
  }
  const auto ranking = sweep::summarize(result);
  for (const sweep::PolicySummary& s : ranking) {
    EXPECT_GE(s.geomean_flow_ratio, 1.0) << s.policy;
    EXPECT_GE(s.mean_hit_rate, 0.0);
    EXPECT_LE(s.mean_hit_rate, 1.0);
  }
  const auto online = sweep::online_ranking(ranking);
  EXPECT_EQ(online.size(), spec.policies.size());

  const std::string json = sweep::summary_json(result, ranking);
  EXPECT_NE(json.find("\"arrival_count\""), std::string::npos);
  EXPECT_NE(json.find("\"online\""), std::string::npos);
  EXPECT_NE(json.find("\"vs_online_leader\""), std::string::npos);
  EXPECT_NE(json.find("\"online_ranking\""), std::string::npos);
  const std::string csv = sweep::per_instance_csv(result);
  EXPECT_NE(csv.find("weighted_flow_us"), std::string::npos);
  EXPECT_NE(csv.find("hit_rate"), std::string::npos);
}

TEST(OnlineSweep, SummaryIsByteIdenticalAcrossRunsAndThreads) {
  sweep::SweepSpec spec = sweep::parse_spec(kOnlineSpec);
  const sweep::SweepResult first = sweep::run_sweep(spec);
  const sweep::SweepResult second = sweep::run_sweep(spec);
  spec.threads = 4;
  const sweep::SweepResult threaded = sweep::run_sweep(spec);

  const std::string a = sweep::summary_json(first, sweep::summarize(first));
  const std::string b = sweep::summary_json(second, sweep::summarize(second));
  const std::string c =
      sweep::summary_json(threaded, sweep::summarize(threaded));
  EXPECT_EQ(a, b) << "online sweep is not run-deterministic";
  EXPECT_EQ(a, c) << "online sweep depends on the thread count";
  EXPECT_EQ(sweep::per_instance_csv(first),
            sweep::per_instance_csv(threaded));
}

TEST(OnlineSweep, ZeroArrivalSpecKeepsTheLegacyArtifactShape) {
  // A spec without arrival knobs must not grow new JSON keys or CSV
  // columns (byte-compat with every golden recorded before arrivals
  // existed).
  sweep::SweepSpec spec = sweep::parse_spec(R"(
seed 5
comm paper
topology ring:4
policy hlf
policy random
family diamond count=2 width=4:6
)");
  spec.threads = 1;
  const sweep::SweepResult result = sweep::run_sweep(spec);
  const std::string json =
      sweep::summary_json(result, sweep::summarize(result));
  EXPECT_EQ(json.find("\"arrival_"), std::string::npos);
  EXPECT_EQ(json.find("\"online\""), std::string::npos);
  EXPECT_EQ(json.find("\"online_ranking\""), std::string::npos);
  const std::string csv = sweep::per_instance_csv(result);
  EXPECT_EQ(csv.find("weighted_flow_us"), std::string::npos);
  EXPECT_EQ(csv.find("arrival_seed"), std::string::npos);
  for (const sweep::InstanceResult& row : result.instances) {
    EXPECT_TRUE(row.weighted_flow_us.empty());
    EXPECT_EQ(row.arrival_seed, 0u);
    EXPECT_EQ(row.workflows, 0);
  }
}

// ---------------------------------------------------------------------------
// Deterministic-policy replicate elision (capability-gated sweep
// optimization): families whose repetitions cannot differ run each
// `deterministic` policy once per (family, topology) and copy the row.

TEST(OnlineSweep, DeterministicReplicatesAreElidedWithIdenticalRows) {
  sweep::SweepSpec spec = sweep::parse_spec(R"(
seed 9
comm paper
threads 1
topology ring:4
policy hlf
policy random
family diamond count=4 width=5
family gnp count=2 tasks=12
)");
  const sweep::SweepResult result = sweep::run_sweep(spec);
  ASSERT_EQ(result.instances.size(), 6u);
  // diamond is seed-free with every parameter pinned: hlf (deterministic)
  // runs once for 4 repetitions; random (rng) runs all 4.  gnp depends on
  // the graph seed, so both policies run both repetitions.
  EXPECT_EQ(result.policy_runs, 1 + 4 + 2 + 2);
  // The elided rows are bit-identical to the computed one.
  std::vector<const sweep::InstanceResult*> diamonds;
  for (const sweep::InstanceResult& row : result.instances) {
    if (row.family == "diamond") diamonds.push_back(&row);
  }
  ASSERT_EQ(diamonds.size(), 4u);
  for (std::size_t i = 1; i < diamonds.size(); ++i) {
    EXPECT_EQ(diamonds[i]->makespans[0], diamonds[0]->makespans[0]);
    EXPECT_EQ(diamonds[i]->timed_out[0], diamonds[0]->timed_out[0]);
  }
}

TEST(OnlineSweep, ReplicateElisionNeverChangesTheArtifact) {
  // The memoized runner must produce the same summary JSON as the same
  // spec with ranged parameters... but ranged parameters disable the
  // elision by construction.  Instead, pin the spec and check the elided
  // run against per-repetition ground truth: every diamond row equals a
  // fresh single-instance sweep of the same repetition.
  sweep::SweepSpec pinned = sweep::parse_spec(R"(
seed 9
comm paper
threads 1
topology ring:4
policy hlf
family diamond count=3 width=5
)");
  const sweep::SweepResult elided = sweep::run_sweep(pinned);
  EXPECT_EQ(elided.policy_runs, 1);
  sweep::SweepSpec single = pinned;
  single.families[0].count = 1;
  const sweep::SweepResult reference = sweep::run_sweep(single);
  for (const sweep::InstanceResult& row : elided.instances) {
    EXPECT_EQ(row.makespans[0], reference.instances[0].makespans[0]);
  }
}

}  // namespace
}  // namespace dagsched
