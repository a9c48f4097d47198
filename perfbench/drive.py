"""Drives the built `sweep` and `schedd` executables the way users run them.

Every function starts its process, waits for it to end, and returns what
it measured.  Measured runs go through perfbench_spawn, which reports the
process's own peak memory (see tracer/spawn_main.cpp); call use_launcher
first.
"""

import io
import json
import subprocess
import threading
import time
from pathlib import Path

clock = time.perf_counter
_launcher = []


def use_launcher(spawn, rss_file):
    """Runs every measured process under the perfbench_spawn binary
    `spawn`, which writes the process's peak RSS to `rss_file`."""
    _launcher[:] = [str(spawn), str(rss_file)]


def _start(cmd, **kwargs):
    return subprocess.Popen(_launcher + list(cmd), **kwargs)


def _reap(proc):
    """Waits for a process started by _start; returns its peak resident
    set in MiB."""
    proc.wait()
    return int(Path(_launcher[1]).read_text()) / 1024.0


def sweep_setup_s(sweep, spec):
    """Seconds from spawning `sweep` until its progress note reports the
    spec parsed; the run is then stopped."""
    start = clock()
    proc = subprocess.Popen([sweep, spec, "--threads", "1"],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    elapsed = None
    for line in proc.stderr:
        if b" instances (" in line:
            elapsed = clock() - start
            break
    proc.kill()
    proc.stderr.close()
    proc.wait()
    return elapsed


def schedd_setup_s(schedd):
    """Seconds from spawning `schedd` until its first list_policies
    response arrives."""
    start = clock()
    proc = subprocess.Popen([schedd], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    proc.stdin.write(b'{"op":"list_policies","id":"setup"}\n')
    proc.stdin.flush()
    line = proc.stdout.readline()
    elapsed = clock() - start
    proc.stdin.close()
    proc.stdout.read()
    proc.stdout.close()
    proc.wait()
    try:
        ok = json.loads(line).get("status") == "ok"
    except ValueError:
        ok = False
    return elapsed if ok else None


def run_sweep(sweep, spec, threads, out_json, out_csv):
    """One full sweep; returns (wall seconds, peak MiB, exit code)."""
    start = clock()
    proc = _start(
        [sweep, spec, "--threads", str(threads), "--quiet", "--out", out_json,
         "--csv", out_csv],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    rss = _reap(proc)
    return clock() - start, rss, proc.returncode


def open_loop(cmd, lines, rate, burst=1):
    """Sends `lines` at a fixed rate, in bursts of `burst` lines written at
    once, each burst on its due time whatever the daemon's progress.
    Returns per-line due times, per-burst send lateness, response (arrival
    time, line) pairs, and the daemon's peak MiB."""
    proc = _start(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                  stderr=subprocess.DEVNULL, bufsize=0)
    received = []

    def reader():
        for line in io.BufferedReader(proc.stdout, 1 << 16):
            received.append((clock(), line))

    thread = threading.Thread(target=reader)
    thread.start()
    due, late = [], []
    start = clock() + 0.05
    try:
        for first in range(0, len(lines), burst):
            when = start + first / rate
            wait = when - clock()
            if wait > 0:
                time.sleep(wait)
            late.append(clock() - when)
            chunk = lines[first:first + burst]
            due += [when] * len(chunk)
            proc.stdin.write(b"".join(chunk))
    finally:
        proc.stdin.close()
        thread.join()
        proc.stdout.close()
        rss = _reap(proc)
    return due, late, received, rss


def closed_loop(cmd, lines, outstanding, seconds):
    """Keeps `outstanding` requests in flight for `seconds`: each response
    releases the next request.  Returns (requests sent, responses, the
    completion rate, peak MiB).  The rate is counted from the
    2*outstanding-th response on, once the pipeline is full."""
    proc = _start(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                  stderr=subprocess.DEVNULL, bufsize=0)
    out = io.BufferedReader(proc.stdout, 1 << 16)
    responses = []
    sent = 0
    in_phase = 0
    deadline = clock() + seconds
    start = last = None
    try:
        while sent < min(outstanding, len(lines)):
            proc.stdin.write(lines[sent])
            sent += 1
        while len(responses) < sent:
            line = out.readline()
            if not line:
                break
            now = clock()
            responses.append(line)
            if now <= deadline:
                if len(responses) == 2 * outstanding:
                    start = now
                elif start is not None:
                    in_phase += 1
                    last = now
                if sent < len(lines):
                    proc.stdin.write(lines[sent])
                    sent += 1
    finally:
        proc.stdin.close()
        out.read()
        proc.stdout.close()
        rss = _reap(proc)
    rate = in_phase / (last - start) if in_phase else 0.0
    return sent, responses, rate, rss


def drain(cmd, in_path, out_path):
    """Pipes a whole request file through the daemon as fast as it reads;
    returns (wall seconds, peak MiB, exit code)."""
    with open(in_path, "rb") as src, open(out_path, "wb") as dst:
        start = clock()
        proc = _start(cmd, stdin=src, stdout=dst, stderr=subprocess.DEVNULL)
        rss = _reap(proc)
        return clock() - start, rss, proc.returncode
