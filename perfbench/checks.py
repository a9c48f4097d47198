"""Output checks.  Each check counts its failures; the benchmark reports a
run as correct only when every count is zero."""

import collections
import csv
import io
import json


def us_to_ns(text):
    """A makespan printed in microseconds with three decimals, in ns."""
    return round(float(text) * 1000)


def differing_artifacts(artifacts):
    """Sweep summary JSON and CSV must be byte-identical across every run
    of one seed, whatever the worker count.  `artifacts` holds one
    (json_bytes, csv_bytes) pair per run."""
    first = artifacts[0]
    return sum((run[0] != first[0]) + (run[1] != first[1])
               for run in artifacts[1:])


def csv_makespans_ns(csv_bytes):
    """Per-(instance, policy) fault-free makespans from a sweep CSV, in row
    order: the fault-free baseline column when the sweep injected faults."""
    reader = csv.DictReader(io.StringIO(csv_bytes.decode()))
    column = ("base_makespan_us" if "base_makespan_us" in reader.fieldnames
              else "makespan_us")
    return [us_to_ns(row[column]) for row in reader]


class StreamCheck:
    """Checks one daemon response stream against the requests sent.

    Responses must arrive in request order with matching ids.  A request
    with an expected makespan must get exactly that makespan.  A cache hit
    must carry the makespan of a miss on the same instance (same `group`):
    the cache only holds plans that requests computed.  That miss may come
    later in the stream, since with several workers a later repeat can
    finish before an earlier one looks the instance up.  Shed and errored
    requests are failures.

    `misses`, when given, maps request index to makespan and is shared by
    every stream sent the same requests: each policy is seeded or
    deterministic, so a request that misses the cache must get the same
    makespan in every stream, whatever the worker count or the load.
    """

    def __init__(self, ids, groups, expected_ns=None, misses=None):
        self.ids = ids
        self.groups = groups
        self.expected_ns = expected_ns
        self.misses = misses
        self.failed_checks = 0
        self.shed = 0
        self.errors = 0
        self.ok = [False] * len(ids)
        self.elapsed_ms = [None] * len(ids)

    def run(self, lines, corrupt=None):
        """Checks `lines`.  `corrupt` (self-test only) perturbs one makespan
        before checking: with "response", the first hit's, or the first
        response's when makespans are expected; with "miss", that of the
        first miss on an instance no other request in the stream schedules,
        which only the cross-stream check can catch."""
        group_sizes = collections.Counter(self.groups)
        ok = {}
        for index, request_id in enumerate(self.ids):
            if index >= len(lines):
                self.failed_checks += 1
                continue
            try:
                response = json.loads(lines[index])
            except ValueError:
                self.failed_checks += 1
                continue
            if response.get("id") != request_id:
                self.failed_checks += 1
            elif response.get("status") == "shed":
                self.shed += 1
            elif response.get("status") != "ok":
                self.errors += 1
            else:
                hit = response.get("cache") == "hit"
                makespan = us_to_ns(response["makespan_us"])
                if (corrupt == "response" and
                        (hit or self.expected_ns is not None)) or (
                        corrupt == "miss" and not hit
                        and group_sizes[self.groups[index]] == 1):
                    makespan += 1
                    corrupt = None
                ok[index] = (hit, makespan, response.get("elapsed_ms"))
        computed = {}
        for index, (hit, makespan, _) in ok.items():
            if not hit:
                computed.setdefault(self.groups[index], set()).add(makespan)
        for index, (hit, makespan, elapsed_ms) in ok.items():
            if self.expected_ns is not None:
                good = makespan == self.expected_ns[index]
            elif hit:
                good = makespan in computed.get(self.groups[index], ())
            else:
                good = (self.misses is None or
                        self.misses.setdefault(index, makespan) == makespan)
            self.failed_checks += not good
            self.ok[index] = good
            self.elapsed_ms[index] = elapsed_ms
        return self
