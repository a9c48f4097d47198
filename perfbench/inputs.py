"""Workload inputs, generated from the workload seed alone.

The sweep workloads are spec files; the schedd workload is a JSONL request
stream.  The same seed always yields the same bytes.
"""

import bisect
import json
import random
import re

# sweep_faulty_list: list and HEFT-family policies on larger layered and
# gnp graphs, with machine crashes and link faults, so every cell runs the
# engine twice.  No annealer runs here: a change to the core annealers
# must leave this workload unchanged.  Sizes, densities and fault rates
# are pinned for the same reason as in sweep_sa; layer widths, edges,
# durations and the fault timelines stay seeded.
FAULTY_LIST_SPEC = """\
seed {seed}
comm paper
topology hypercube8
topology mesh:4x4
policy heft(on_fault=repin)
policy peft(on_fault=repin)
policy hlf
policy hlf-mincomm
policy etf
policy list-hlf
family layered count={count} layers=15 min_width=4 max_width=16 \
edge_probability=0.2 skip_probability=0.1 min_duration_us=5 \
max_duration_us=60 max_weight_us=14
family gnp count={count} tasks=180 edge_probability=0.035 \
min_duration_us=5 max_duration_us=60 max_weight_us=14
fault_machine_mtbf_us 5000
fault_machine_mttr_us 250
fault_link_mtbf_us 4000
fault_link_drop_prob 0.5
fault_max_retries 8
"""
FAULTY_LIST_COUNT = 10


# sweep_sa: tools/sweep_example.spec (its nine policies, three topologies,
# comm ablation, four families and their counts) with the seed replaced
# and each family's size parameters pinned to the middle of the example's
# range.  SA's cost grows much faster than the instance: one SA cell on the
# example's largest out-tree (341 tasks) costs as much as a hundred
# ordinary cells, so with drawn sizes the wall clock moved 3x from seed to
# seed.  The seed still draws every graph's structure, durations, weights
# and comm parameters.
SA_PINNED_SIZES = {
    "layered": {"layers": "6"},
    "gnp": {"tasks": "48"},
    "fork_join": {"stages": "4", "width": "5"},
    "out_tree": {"depth": "4", "fanout": "3"},
}


def sweep_sa_spec(example_spec_text, seed):
    lines = []
    for line in example_spec_text.splitlines():
        if line.startswith("seed "):
            line = f"seed {seed}"
        elif line.startswith("family "):
            for key, value in SA_PINNED_SIZES[line.split()[1]].items():
                line, found = re.subn(rf"\b{key}=\S+", f"{key}={value}", line)
                if not found:
                    raise ValueError(f"sweep_example.spec: no {key} in "
                                     f"{line!r}")
        lines.append(line)
    if f"seed {seed}" not in lines:
        raise ValueError("sweep_example.spec has no seed line")
    return "\n".join(lines) + "\n"


def faulty_list_spec(seed):
    return FAULTY_LIST_SPEC.format(seed=seed, count=FAULTY_LIST_COUNT)


# schedd_mix: every block of 20 requests holds 9 cold misses, 5 repeats,
# 5 relabelings and 1 gsa miss in a seeded order, so any run's share of
# each class is fixed and only the instances vary with the seed.  Repeats
# and relabelings draw their source from the last REPEAT_WINDOW cold
# requests, well inside the daemon's 256-entry plan cache, so the hit
# ratio is a property of the mix and never of eviction.
MIX_BLOCK = ["cold"] * 9 + ["repeat"] * 5 + ["relabel"] * 5 + ["gsa"]
REPEAT_WINDOW = 48
COLD_POLICIES = ("heft", "hlf", "etf", "sa")
GSA_POLICY = "gsa(chains=1)"
TOPOLOGIES = ("hypercube:3", "mesh:3x3", "ring9")


def _random_dag(rng, num_tasks):
    """A layered DAG: tasks sorted by layer, each non-source task fed by
    one to three tasks of the two layers above it."""
    layers = max(3, round(num_tasks ** 0.5))
    layer_of = sorted(rng.randrange(layers) for _ in range(num_tasks))
    durations = [rng.randint(5, 60) for _ in range(num_tasks)]
    edges = []
    for task, layer in enumerate(layer_of):
        lo = bisect.bisect_left(layer_of, layer - 2)
        hi = bisect.bisect_left(layer_of, layer)
        if hi <= lo:
            continue
        for source in rng.sample(range(lo, hi), min(hi - lo, rng.randint(1, 3))):
            edges.append([source, task, rng.randint(4, 24)])
    return {"durations_us": durations, "edges": edges}


def _relabel(rng, graph):
    """An isomorphic copy: permuted task ids, shuffled edge order."""
    num_tasks = len(graph["durations_us"])
    perm = list(range(num_tasks))
    rng.shuffle(perm)
    durations = [0] * num_tasks
    for task, duration in enumerate(graph["durations_us"]):
        durations[perm[task]] = duration
    edges = [[perm[u], perm[v], w] for u, v, w in graph["edges"]]
    rng.shuffle(edges)
    return {"durations_us": durations, "edges": edges}


class _Sizes:
    """Graph sizes covering lo..hi evenly: each pass visits every size
    once, in a seeded order.  A gsa miss costs roughly the square of its
    size, so independent draws would make a run's total work depend on
    the seed far more than its instances do."""

    def __init__(self, rng, lo, hi):
        self.rng, self.lo, self.hi, self.pending = rng, lo, hi, []

    def next(self):
        if not self.pending:
            self.pending = list(range(self.lo, self.hi + 1))
            self.rng.shuffle(self.pending)
        return self.pending.pop()


def _line(request_id, body):
    return ('{"id":"%s",' % request_id + body[1:] + "\n").encode()


def mix_stream(seed, count):
    """The schedd_mix request stream: `count` JSONL lines plus, per line,
    (kind, group) where group is the index of the cold request whose
    instance the line schedules (its own index for cold and gsa lines)."""
    rng = random.Random(seed)
    kinds = []
    while len(kinds) < count:
        block = list(MIX_BLOCK)
        rng.shuffle(block)
        kinds += block
    kinds[kinds.index("cold")] = kinds[0]
    kinds[0] = "cold"  # repeats need a source
    lines, meta, recent = [], [], []
    cold_sizes, gsa_sizes = _Sizes(rng, 24, 96), _Sizes(rng, 24, 40)
    next_policy = 0
    for index, kind in enumerate(kinds[:count]):
        if kind == "cold":
            graph = _random_dag(rng, cold_sizes.next())
            request = {"policy": COLD_POLICIES[next_policy % 4],
                       "seed": rng.randrange(1, 2 ** 31),
                       "topology": rng.choice(TOPOLOGIES), "graph": graph}
            next_policy += 1
            body = json.dumps(request, separators=(",", ":"))
            recent = (recent + [(index, request, body)])[-REPEAT_WINDOW:]
            group = index
        elif kind == "repeat":
            group, _, body = rng.choice(recent)
        elif kind == "relabel":
            group, source, _ = rng.choice(recent)
            request = dict(source, graph=_relabel(rng, source["graph"]))
            body = json.dumps(request, separators=(",", ":"))
        else:
            request = {"policy": GSA_POLICY, "seed": rng.randrange(1, 2 ** 31),
                       "topology": rng.choice(TOPOLOGIES),
                       "graph": _random_dag(rng, gsa_sizes.next())}
            body = json.dumps(request, separators=(",", ":"))
            group = index
        lines.append(_line(f"r{index}", body))
        meta.append((kind, group))
    return lines, meta


def cell_blocks(spec_text, num_cells, seed):
    """A sweep's cells, as cell indices (instance-major, policy-minor, as
    the sweep enumerates them), in blocks holding one repetition of every
    (family, topology, policy), shuffled within the block by the seed.
    Every block of a spec whose families have equal counts has the sweep's
    exact mix of families and policies."""
    counts, topologies = [], 0
    for line in spec_text.splitlines():
        if line.startswith("family "):
            counts.append(int(re.search(r"\bcount=(\d+)", line)[1]))
        elif line.startswith("topology "):
            topologies += 1
    per_instance = num_cells // (sum(counts) * topologies)
    first = [sum(counts[:f]) * topologies for f in range(len(counts))]
    rng = random.Random(seed)
    blocks = []
    for rep in range(max(counts)):
        block = [(first[f] + rep * topologies + t) * per_instance + p
                 for f in range(len(counts)) if rep < counts[f]
                 for t in range(topologies) for p in range(per_instance)]
        rng.shuffle(block)
        blocks.append(block)
    return blocks
