// perfbench_trace: the benchmark's traced, in-process pass.  It repeats the
// work of one end-to-end run through the library's public layer entry
// points, records a span around every layer call, and prints the per-layer
// metrics as one JSON object on stdout.  Spans are kept in memory and
// written as JSONL when the pass ends.
//
//   perfbench_trace sweep SPEC E2E_JSON E2E_CSV SPANS
//   perfbench_trace cells SPEC OUT_JSONL
//   perfbench_trace schedd REQUESTS_JSONL SPANS
//
// `sweep` rebuilds every (instance, policy) cell of SPEC the way the sweep
// runner does, then renders the summary JSON and CSV from the traced rows
// and compares them byte for byte with the artifacts the `sweep` binary
// wrote.  `cells` writes every fault-free cell of SPEC as one schedd
// request line.  `schedd` serves a request stream through
// ScheduleService with the plan cache on.  The passes exit 0 and report
// failed output checks in the `check_failures` count.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/global_annealer.hpp"
#include "core/sa_scheduler.hpp"
#include "sched/heft.hpp"
#include "sched/pinned.hpp"
#include "sched/registry.hpp"
#include "service/api.hpp"
#include "service/graph_hash.hpp"
#include "service/plan_cache.hpp"
#include "service/service.hpp"
#include "sim/engine.hpp"
#include "sweep/params.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"
#include "sweep/summary.hpp"
#include "topology/builders.hpp"
#include "util/rng.hpp"

namespace {

using namespace dagsched;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------------ spans

/// One timed call into a layer.  `unit` is the sweep cell or request the
/// call served (-1 for whole-run spans).  An `extra` span times work the
/// traced program itself does not do: a call made only to time or check a
/// layer on its own.  When that call repeats part of another span's work,
/// `repeats` names that span.
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  std::int64_t unit = -1;
  bool extra = false;
  int repeats = -1;

  double ms() const { return end_ms - start_ms; }
};

class Tracer {
 public:
  int open(std::string name, std::int64_t unit) {
    Span span;
    span.name = std::move(name);
    span.start_ms = now_ms();
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.unit = unit;
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ms = now_ms();
    stack_.pop_back();
  }

  void rename(int id, std::string name) {
    spans_[static_cast<std::size_t>(id)].name = std::move(name);
  }

  /// Marks span `id` as extra work, repeating part of span `repeats`
  /// when that is not -1.
  void mark_extra(int id, int repeats = -1) {
    spans_[static_cast<std::size_t>(id)].extra = true;
    spans_[static_cast<std::size_t>(id)].repeats = repeats;
  }

  /// Durations of every closed span called `name`.
  std::vector<double> durations_ms(const std::string& name) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (span.name == name) out.push_back(span.ms());
    }
    return out;
  }

  /// Time spent in extra spans that are not nested in another extra span.
  double extra_ms() const {
    double total = 0.0;
    for (const Span& span : spans_) {
      if (span.extra && (span.parent < 0 ||
                         !spans_[static_cast<std::size_t>(span.parent)].extra)) {
        total += span.ms();
      }
    }
    return total;
  }

  /// Self time per span name: each span's duration minus the time its
  /// direct children cover (children never overlap: the pass is serial),
  /// and minus the calls that repeat part of its work outside it.
  std::map<std::string, double> self_ms() const {
    std::vector<double> inner_ms(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        inner_ms[static_cast<std::size_t>(span.parent)] += span.ms();
      }
      if (span.repeats >= 0) {
        inner_ms[static_cast<std::size_t>(span.repeats)] += span.ms();
      }
    }
    std::map<std::string, double> totals;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      totals[spans_[i].name] += spans_[i].ms() - inner_ms[i];
    }
    return totals;
  }

  void write(const std::string& path) const {
    std::ofstream out(path, std::ios::binary);
    if (!out) throw std::runtime_error("cannot write '" + path + "'");
    char line[512];
    for (const Span& span : spans_) {
      std::snprintf(line, sizeof line,
                    "{\"name\":\"%s\",\"start_ms\":%.6f,\"end_ms\":%.6f,"
                    "\"parent\":%d,\"unit\":%lld,\"extra\":%s,"
                    "\"repeats\":%d}\n",
                    span.name.c_str(), span.start_ms, span.end_ms,
                    span.parent, static_cast<long long>(span.unit),
                    span.extra ? "true" : "false", span.repeats);
      out << line;
    }
  }

 private:
  double now_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Closes its span on scope exit.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, std::int64_t unit)
      : tracer_(tracer), id_(tracer.open(std::move(name), unit)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// ---------------------------------------------------------------- metrics

/// Counters accumulated at the layer boundaries.
struct Counts {
  std::int64_t cells = 0;
  std::int64_t tasks = 0;
  std::int64_t edges = 0;
  std::int64_t sa_iterations = 0;
  std::int64_t sa_packets = 0;
  std::int64_t gsa_simulations = 0;
  sa::CostOracleStats oracle;
  std::int64_t epochs = 0;
  std::int64_t messages = 0;
  std::int64_t retries = 0;
  std::int64_t restarts = 0;
  std::int64_t faulted_runs = 0;
  std::int64_t failed_runs = 0;
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t errors = 0;
  std::int64_t replay_checks = 0;
  std::int64_t check_failures = 0;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto index = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

void print_metrics(const Tracer& tracer, const Counts& c, double pass_ms) {
  const std::map<std::string, double> self = tracer.self_ms();
  const auto ms = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const auto count = [](std::int64_t value) {
    return static_cast<double>(value);
  };
  const double sa_ms = ms("core.sa");
  const double gsa_ms = ms("core.gsa");
  const std::vector<double> cell_ms = tracer.durations_ms("sweep.cell");
  const std::vector<std::pair<std::string, double>> metrics = {
      {"pass_ms", pass_ms},
      {"extra_ms", tracer.extra_ms()},
      {"sweep.parse_ms", ms("sweep.parse")},
      {"sweep.cells", count(c.cells)},
      {"sweep.cell_ms_p50", quantile(cell_ms, 0.5)},
      {"sweep.cell_ms_max", quantile(cell_ms, 1.0)},
      {"sweep.summary_ms", ms("sweep.summary")},
      {"graph.generate_ms", ms("graph.generate")},
      {"graph.tasks", count(c.tasks)},
      {"graph.edges", count(c.edges)},
      {"topology.build_ms", ms("topology.build")},
      {"core.sa_ms", sa_ms},
      {"core.sa_iterations", count(c.sa_iterations)},
      {"core.sa_packets", count(c.sa_packets)},
      {"core.sa_iter_per_s", ratio(count(c.sa_iterations), sa_ms / 1000.0)},
      {"core.gsa_ms", gsa_ms},
      {"core.gsa_simulations", count(c.gsa_simulations)},
      {"core.gsa_proposals_per_s",
       ratio(count(c.oracle.proposals), gsa_ms / 1000.0)},
      {"core.oracle_accept_ratio",
       ratio(count(c.oracle.accepts), count(c.oracle.proposals))},
      {"core.oracle_memo_hits", count(c.oracle.memo_hits)},
      {"core.oracle_resumed_replays", count(c.oracle.resumed_replays)},
      {"core.oracle_full_replays", count(c.oracle.full_replays)},
      {"core.oracle_replayed_epoch_frac",
       ratio(count(c.oracle.replayed_epochs), count(c.oracle.baseline_epochs))},
      {"sched.list_ms", ms("sched.list")},
      {"sched.heft_ms", ms("sched.heft")},
      {"sched.heft_plan_ms", ms("sched.heft_plan")},
      {"sim.replay_ms", ms("sim.replay")},
      {"sim.epochs", count(c.epochs)},
      {"sim.messages", count(c.messages)},
      {"sim.retries", count(c.retries)},
      {"sim.restarts", count(c.restarts)},
      {"sim.failed_runs", ratio(count(c.failed_runs), count(c.faulted_runs))},
      {"service.parse_ms", ms("service.parse")},
      {"service.canonicalize_ms", ms("service.canonicalize")},
      {"service.cache_lookup_ms", ms("service.cache_lookup")},
      {"service.hit_ratio", ratio(count(c.hits), count(c.hits + c.misses))},
      {"service.serve_hit_ms", ms("service.serve_hit")},
      {"service.serve_miss_ms", ms("service.serve_miss")},
      {"service.serialize_ms", ms("service.serialize")},
      {"service.errors", count(c.errors)},
      {"replay_checks", count(c.replay_checks)},
      {"check_failures", count(c.check_failures)},
  };
  std::string line = "{";
  char buffer[128];
  for (const auto& [name, value] : metrics) {
    if (line.size() > 1) line += ",";
    std::snprintf(buffer, sizeof buffer, "\"%s\":%.17g", name.c_str(), value);
    line += buffer;
  }
  std::cout << line << "}\n";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// ------------------------------------------------------- instance draws

/// The sweep runner's per-instance draws (sweep/runner.cpp), repeated here
/// because the runner keeps them private.  The traced rows are compared
/// byte for byte with the `sweep` binary's artifacts, so drift in this
/// order fails the benchmark's output check instead of going unnoticed.
struct Draw {
  std::uint64_t graph_seed = 0;
  std::vector<std::uint64_t> policy_seeds;
  std::int64_t sigma_us = 0;
  std::int64_t tau_us = 0;
  SendCpu send_cpu = SendCpu::PerTaskOutput;
  std::vector<double> fault_params;
  std::uint64_t fault_seed = 0;
};

double draw_param(Rng& rng, const sweep::ParamRange& range, bool integer) {
  if (integer) {
    return static_cast<double>(
        rng.uniform_int(static_cast<std::int64_t>(range.lo),
                        static_cast<std::int64_t>(range.hi)));
  }
  return range.is_single() ? range.lo : rng.uniform_real(range.lo, range.hi);
}

Draw draw_instance(const sweep::SweepSpec& spec, int family_index,
                   int repetition) {
  const sweep::FamilySpec& family =
      spec.families[static_cast<std::size_t>(family_index)];
  Rng rng = Rng::stream(
      spec.seed, (static_cast<std::uint64_t>(family_index) << 32) |
                     static_cast<std::uint32_t>(repetition));
  Draw draw;
  for (const sweep::ParamDef& def : sweep::family_param_defs(family.kind)) {
    draw_param(rng, family.param(def.name), def.integer);
  }
  draw.graph_seed = rng.next_u64();
  for (std::size_t p = 0; p < spec.policies.size(); ++p) {
    draw.policy_seeds.push_back(rng.next_u64());
  }
  draw.sigma_us = rng.uniform_int(
      static_cast<std::int64_t>(spec.comm.sigma_us.lo),
      static_cast<std::int64_t>(spec.comm.sigma_us.hi));
  draw.tau_us =
      rng.uniform_int(static_cast<std::int64_t>(spec.comm.tau_us.lo),
                      static_cast<std::int64_t>(spec.comm.tau_us.hi));
  draw.send_cpu =
      spec.comm.send_cpu[rng.uniform_index(spec.comm.send_cpu.size())];
  const sweep::FaultAblation& f = spec.faults;
  const sweep::ParamRange* fault_ranges[] = {
      &f.machine_mtbf_us, &f.machine_mttr_us,     &f.stall_mtbf_us,
      &f.stall_us,        &f.link_mtbf_us,        &f.link_mttr_us,
      &f.link_drop_prob,  &f.link_degrade_factor, &f.msg_timeout_us,
      &f.retry_backoff_us};
  const auto fault_defs = sweep::fault_param_defs();
  for (std::size_t i = 0; i < fault_defs.size(); ++i) {
    draw.fault_params.push_back(
        draw_param(rng, *fault_ranges[i], fault_defs[i].integer));
  }
  draw.fault_seed = rng.next_u64();
  return draw;
}

CommModel comm_of(const sweep::SweepSpec& spec, const Draw& draw) {
  if (!spec.comm_enabled) return CommModel::disabled();
  CommModel comm = CommModel::paper_default();
  comm.sigma = us(draw.sigma_us);
  comm.tau = us(draw.tau_us);
  comm.send_cpu = draw.send_cpu;
  return comm;
}

sim::FaultSpec faults_of(const sweep::SweepSpec& spec, const Draw& draw) {
  const auto at = [&](std::size_t i) {
    return us(static_cast<std::int64_t>(draw.fault_params[i]));
  };
  sim::FaultSpec faults;
  faults.machine_mtbf = at(0);
  faults.machine_mttr = at(1);
  faults.stall_mtbf = at(2);
  faults.stall_duration = at(3);
  faults.link_mtbf = at(4);
  faults.link_mttr = at(5);
  faults.link_drop_prob = draw.fault_params[6];
  faults.link_degrade_factor = static_cast<int>(draw.fault_params[7]);
  faults.msg_timeout = at(8);
  faults.retry_backoff = at(9);
  faults.max_retries = spec.faults.max_retries;
  faults.seed = draw.fault_seed;
  return faults;
}

// ------------------------------------------------------------ layer calls

/// The layer span a policy's run is attributed to.
std::string layer_of(const std::string& policy) {
  if (policy == "sa") return "core.sa";
  if (policy == "gsa") return "core.gsa";
  if (policy == "heft" || policy == "peft") return "sched.heft";
  return "sched.list";
}

/// anneal_global's options as the registry's gsa factory builds them
/// (sched/registry.cpp), so the traced call anneals exactly what the
/// policy run does and exposes the oracle counters the policy discards.
sa::GlobalAnnealOptions gsa_options(const sched::PolicyConfig& config) {
  sa::GlobalAnnealOptions options;
  options.cooling.max_steps = static_cast<int>(config.get_int("max_steps"));
  options.num_chains = static_cast<int>(config.get_int("chains"));
  options.moves_per_temperature = static_cast<int>(config.get_int("moves"));
  options.patience = static_cast<int>(config.get_int("patience"));
  options.oracle =
      sa::cost_oracle_kind_from_string(config.get_string("oracle"));
  options.seed = config.seed;
  return options;
}

/// Times a HEFT/PEFT policy's planning on its own through heft_schedule.
/// The programs plan only inside the policy run, so the span is extra.
void time_heft_plan(Tracer& tracer, const sched::PolicyConfig& config,
                    const TaskGraph& graph, const Topology& topology,
                    const CommModel& comm, std::int64_t unit) {
  if (layer_of(config.policy()) != "sched.heft") return;
  Scope plan(tracer, "sched.heft_plan", unit);
  tracer.mark_extra(plan.id());
  const sched::HeftVariant variant = config.get_string("ranking") == "peft"
                                         ? sched::HeftVariant::Peft
                                         : sched::HeftVariant::Heft;
  sched::heft_schedule(graph, topology, comm, variant);
}

/// Runs one policy on one instance inside its layer span and records the
/// layer's counters.  Fault-free gsa goes through sa::anneal_global
/// directly (its makespan is, by contract, the pinned-replay makespan of
/// its mapping); every other run through PolicyRegistry::make +
/// ScheduledPolicy::run.  `repeats` is the span whose policy run this call
/// repeats, or -1 when the call is the traced program's own.
sched::PolicyRunOutcome run_layer(Tracer& tracer, Counts& counts,
                                  const sched::PolicyConfig& config,
                                  const TaskGraph& graph,
                                  const Topology& topology,
                                  const CommModel& comm,
                                  const sim::FaultSpec* faults,
                                  std::int64_t unit, int repeats = -1) {
  const std::string& name = config.policy();
  const std::string layer = layer_of(name);
  Scope scope(tracer, layer, unit);
  if (repeats >= 0) tracer.mark_extra(scope.id(), repeats);
  sched::PolicyRunOutcome outcome;
  if (layer == "core.gsa" && faults == nullptr) {
    const sa::GlobalAnnealResult annealed =
        sa::anneal_global(graph, topology, comm, gsa_options(config));
    outcome.result.makespan = annealed.makespan;
    outcome.result.placement = annealed.mapping;
    outcome.predicted_makespan = annealed.makespan;
    counts.gsa_simulations += annealed.simulations;
    counts.oracle += annealed.oracle_stats;
    return outcome;
  }
  std::unique_ptr<sched::ScheduledPolicy> policy =
      sched::PolicyRegistry::instance().make(name, config);
  sched::PolicyRunOptions options;
  options.sim.record_trace = false;
  options.sim.faults = faults;
  outcome = policy->run(graph, topology, comm, options);
  if (const auto* sa_impl =
          dynamic_cast<const sa::SaScheduler*>(policy->online_impl())) {
    counts.sa_iterations += sa_impl->stats().total_iterations;
    counts.sa_packets += sa_impl->stats().packets;
  }
  counts.epochs += outcome.result.num_epochs;
  counts.messages += outcome.result.num_messages;
  if (faults != nullptr) {
    ++counts.faulted_runs;
    counts.retries += outcome.result.num_retries;
    counts.restarts += outcome.result.num_task_restarts;
    if (outcome.result.failed) ++counts.failed_runs;
  }
  return outcome;
}

/// Replays a policy's placement through the engine with PinnedScheduler
/// (trace off), as extra work.  gsa's makespan is defined as exactly this
/// replay, so for
/// gsa a differing makespan is a failed output check.  For the other
/// policies the replay is timed but not checked: a list scheduler's
/// dispatch order on a processor can differ from the pinned rank order.
void replay(Tracer& tracer, Counts& counts, const std::string& policy,
            const TaskGraph& graph, const Topology& topology,
            const CommModel& comm, const std::vector<ProcId>& placement,
            Time makespan, std::int64_t unit) {
  Time replayed = 0;
  {
    Scope scope(tracer, "sim.replay", unit);
    tracer.mark_extra(scope.id());
    sched::PinnedScheduler pinned(placement);
    sim::SimOptions options;
    options.record_trace = false;
    replayed = sim::simulate(graph, topology, comm, pinned, options).makespan;
  }
  if (policy == "gsa") {
    ++counts.replay_checks;
    if (replayed != makespan) ++counts.check_failures;
  }
}

// ------------------------------------------------------------------ sweep

int run_sweep_pass(const std::string& spec_path, const std::string& e2e_json,
                   const std::string& e2e_csv, const std::string& spans_path) {
  Tracer tracer;
  Counts counts;
  const auto pass_start = Clock::now();

  sweep::SweepSpec spec;
  std::vector<sched::PolicyConfig> configs;
  {
    Scope scope(tracer, "sweep.parse", -1);
    spec = sweep::load_spec_file(spec_path);
    spec.validate();
    for (const sweep::PolicySpec& policy : spec.policies) {
      configs.push_back(sweep::effective_policy_config(spec, policy));
    }
  }
  const bool faulted = spec.faults.enabled();
  const std::size_t num_policies = spec.policies.size();

  sweep::SweepResult result;
  result.spec = spec;
  result.instances.resize(static_cast<std::size_t>(spec.num_instances()));
  std::size_t index = 0;
  for (std::size_t f = 0; f < spec.families.size(); ++f) {
    for (int rep = 0; rep < spec.families[f].count; ++rep) {
      for (std::size_t t = 0; t < spec.topologies.size(); ++t, ++index) {
        const auto unit = static_cast<std::int64_t>(index);
        Scope instance_scope(tracer, "sweep.instance", unit);
        const Draw draw = draw_instance(spec, static_cast<int>(f), rep);
        std::uint64_t graph_seed = 0;
        std::optional<TaskGraph> graph;
        {
          Scope scope(tracer, "graph.generate", unit);
          graph.emplace(sweep::build_instance_graph(spec, static_cast<int>(f),
                                                    rep, &graph_seed));
        }
        if (graph_seed != draw.graph_seed) ++counts.check_failures;
        std::optional<Topology> topology;
        {
          Scope scope(tracer, "topology.build", unit);
          topology.emplace(topo::by_name(spec.topologies[t]));
        }
        const CommModel comm = comm_of(spec, draw);
        const sim::FaultSpec fault_spec = faults_of(spec, draw);
        counts.tasks += graph->num_tasks();
        counts.edges += graph->num_edges();

        sweep::InstanceResult& row = result.instances[index];
        row.index = static_cast<int>(index);
        row.family = sweep::to_string(spec.families[f].kind);
        row.family_index = static_cast<int>(f);
        row.repetition = rep;
        row.topology = spec.topologies[t];
        row.graph_seed = graph_seed;
        row.tasks = graph->num_tasks();
        row.edges = graph->num_edges();
        row.sigma_us = spec.comm_enabled ? draw.sigma_us : 0;
        row.tau_us = spec.comm_enabled ? draw.tau_us : 0;
        row.send_cpu =
            spec.comm_enabled ? dagsched::to_string(draw.send_cpu) : "off";
        row.makespans.assign(num_policies, 0);
        row.timed_out.assign(num_policies, 0);
        row.predicted_makespans.assign(num_policies, 0);
        if (faulted) {
          row.fault_seed = draw.fault_seed;
          row.base_makespans.assign(num_policies, 0);
          row.retries.assign(num_policies, 0);
          row.restarts.assign(num_policies, 0);
          row.failed.assign(num_policies, 0);
        }
        for (std::size_t p = 0; p < num_policies; ++p) {
          const auto cell =
              static_cast<std::int64_t>(index * num_policies + p);
          sched::PolicyConfig config = configs[p];
          config.seed = draw.policy_seeds[p];
          time_heft_plan(tracer, config, *graph, *topology, comm, cell);
          // The cell span holds exactly the runner's work for the cell:
          // the fault-free run and, in a faulted sweep, the faulted one.
          sched::PolicyRunOutcome base;
          sched::PolicyRunOutcome hit;
          {
            Scope cell_scope(tracer, "sweep.cell", cell);
            base = run_layer(tracer, counts, config, *graph, *topology, comm,
                             nullptr, cell);
            if (faulted) {
              hit = run_layer(tracer, counts, config, *graph, *topology, comm,
                              &fault_spec, cell);
            }
          }
          row.predicted_makespans[p] = base.predicted_makespan;
          row.makespans[p] = base.result.makespan;
          if (faulted) {
            row.base_makespans[p] = base.result.makespan;
            row.retries[p] = hit.result.num_retries;
            row.restarts[p] = hit.result.num_task_restarts;
            row.failed[p] = hit.result.failed ? 1 : 0;
            row.makespans[p] = hit.result.failed ? base.result.makespan * 8
                                                 : hit.result.makespan;
          }
          replay(tracer, counts, config.policy(), *graph, *topology, comm,
                 base.result.placement, base.result.makespan, cell);
          ++counts.cells;
        }
      }
    }
  }

  std::string json;
  std::string csv;
  {
    Scope scope(tracer, "sweep.summary", -1);
    const auto ranking = sweep::summarize(result);
    json = sweep::summary_json(result, ranking);
    csv = sweep::per_instance_csv(result);
  }
  // The traced rows must reproduce the end-to-end artifacts byte for byte.
  if (json != read_file(e2e_json)) ++counts.check_failures;
  if (csv != read_file(e2e_csv)) ++counts.check_failures;

  const double pass_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - pass_start)
          .count();
  tracer.write(spans_path);
  print_metrics(tracer, counts, pass_ms);
  return 0;
}

int emit_cells(const std::string& spec_path, const std::string& out_path) {
  sweep::SweepSpec spec = sweep::load_spec_file(spec_path);
  spec.validate();
  std::vector<sched::PolicyConfig> configs;
  for (const sweep::PolicySpec& policy : spec.policies) {
    configs.push_back(sweep::effective_policy_config(spec, policy));
  }
  std::ofstream out(out_path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write '" + out_path + "'");
  std::size_t index = 0;
  for (std::size_t f = 0; f < spec.families.size(); ++f) {
    for (int rep = 0; rep < spec.families[f].count; ++rep) {
      const Draw draw = draw_instance(spec, static_cast<int>(f), rep);
      service::ScheduleRequest request;
      request.graph =
          sweep::build_instance_graph(spec, static_cast<int>(f), rep);
      request.comm = comm_of(spec, draw);
      for (std::size_t t = 0; t < spec.topologies.size(); ++t, ++index) {
        request.topology = spec.topologies[t];
        for (std::size_t p = 0; p < configs.size(); ++p) {
          request.id = std::to_string(index) + "/" + std::to_string(p);
          request.policy = configs[p].canonical();
          request.seed = draw.policy_seeds[p];
          out << service::to_json(request) << '\n';
        }
      }
    }
  }
  out.flush();
  return out ? 0 : 1;
}

// ----------------------------------------------------------------- schedd

int run_schedd_pass(const std::string& requests_path,
                    const std::string& spans_path) {
  Tracer tracer;
  Counts counts;
  const auto pass_start = Clock::now();
  service::ScheduleService service(256);
  service::PlanCache shadow(256);

  std::istringstream lines(read_file(requests_path));
  std::string line;
  std::int64_t seq = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const std::int64_t unit = seq++;
    Scope request_scope(tracer, "service.request", unit);
    service::ScheduleRequest request;
    {
      Scope scope(tracer, "service.parse", unit);
      request = service::request_from_json_text(line);
    }
    // The topology build, canonicalization and cache lookup are timed on
    // their own, and serve() then does them again: the separate calls are
    // extra spans.  They stay in the serve span's self time, since warm
    // and cold repeats of calls this short differ by more than they cost.
    std::optional<Topology> topology;
    {
      Scope scope(tracer, "topology.build", unit);
      tracer.mark_extra(scope.id());
      topology.emplace(topo::by_name(request.topology));
    }
    sched::PolicyConfig config =
        sched::config_for_call(sched::parse_policy_call(request.policy));
    config.seed = request.seed;
    const bool deterministic = sched::PolicyRegistry::instance()
                                   .descriptor(config.policy())
                                   .caps.deterministic;
    service::CanonicalInstance canonical;
    {
      Scope scope(tracer, "service.canonicalize", unit);
      tracer.mark_extra(scope.id());
      canonical = service::canonicalize_instance(request.graph, *topology,
                                                 request.comm);
    }
    const std::string key = service::instance_cache_key(
        canonical, config.canonical(), !deterministic, request.seed);
    bool shadow_hit = false;
    {
      Scope scope(tracer, "service.cache_lookup", unit);
      tracer.mark_extra(scope.id());
      shadow_hit = shadow.lookup(key).has_value();
    }
    service::ScheduleResponse response;
    int serve_span = -1;
    {
      Scope scope(tracer, "service.serve", unit);
      serve_span = scope.id();
      response = service.serve(request);
      tracer.rename(scope.id(), response.cache == service::CacheStatus::Hit
                                    ? "service.serve_hit"
                                    : "service.serve_miss");
    }
    if (response.status != service::ResponseStatus::Ok) {
      ++counts.errors;
    } else if (response.cache == service::CacheStatus::Hit) {
      ++counts.hits;
      if (!shadow_hit) ++counts.check_failures;
    } else {
      ++counts.misses;
      if (shadow_hit) ++counts.check_failures;
      shadow.insert(key, service::PlanCache::Entry{
                             response.makespan, response.predicted_makespan,
                             {}});
      counts.tasks += request.graph.num_tasks();
      counts.edges += request.graph.num_edges();
      time_heft_plan(tracer, config, request.graph, *topology, request.comm,
                     unit);
      const sched::PolicyRunOutcome outcome =
          run_layer(tracer, counts, config, request.graph, *topology,
                    request.comm, nullptr, unit, serve_span);
      // The layer call repeats what serve() just ran on the same instance
      // with the same seed, so it must find the same makespan.
      if (outcome.result.makespan != response.makespan) {
        ++counts.check_failures;
      }
      replay(tracer, counts, config.policy(), request.graph, *topology,
             request.comm, response.placement, response.makespan, unit);
    }
    {
      Scope scope(tracer, "service.serialize", unit);
      service::to_json(response);
    }
  }
  const double pass_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - pass_start)
          .count();
  tracer.write(spans_path);
  print_metrics(tracer, counts, pass_ms);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 5 && args[0] == "sweep") {
      return run_sweep_pass(args[1], args[2], args[3], args[4]);
    }
    if (args.size() == 3 && args[0] == "cells") {
      return emit_cells(args[1], args[2]);
    }
    if (args.size() == 3 && args[0] == "schedd") {
      return run_schedd_pass(args[1], args[2]);
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench_trace: " << error.what() << "\n";
    return 1;
  }
  std::cerr << "usage: perfbench_trace sweep SPEC E2E_JSON E2E_CSV SPANS\n"
               "       perfbench_trace cells SPEC OUT_JSONL\n"
               "       perfbench_trace schedd REQUESTS_JSONL SPANS\n";
  return 2;
}
