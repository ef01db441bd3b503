#!/usr/bin/env python3
"""Benchmark of palu's live fit path, trace archive, counts sweep and
analytic window.

Run from the repository root:

    python3 perfbench/run.py --workload serve-fit --seed 1 --seconds 20 --trace 0

It builds `palu_tool` and `perfbench_harness` (perfbench/CMakeLists.txt)
into $CARGO_TARGET_DIR (default .bench_build), makes the workload's inputs
from --seed, measures for about --seconds, checks every output, and prints
one JSON object as its last line: end-to-end metrics with --trace 0,
per-layer metrics (from a traced pass over all four pipelines) with
--trace 1.  Lines before it are provenance and details.  See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WINDOW = 20000          # serve-fit: packets per window (--window)
CHAIN_WINDOWS = 10      # serve-fit: windows per daemon run
CHAINS_PER_SECOND = 3   # serve-fit: daemon runs per measured second
REFERENCE_CHAINS = 3    # serve-fit: daemon runs checked line by line
TRACED_CHAINS = 10      # serve-fit: daemon runs in the traced pass
ARCHIVE_LINES = 8000000  # trace-archive: lines captured per capture
ARCHIVE_NVALID = 100000  # trace-archive: packets per stored window
MIN_REPLAYS = 100       # trace-archive: replays per run, at least
SWEEP_WINDOWS = 512     # sweep: windows per `palu_tool sweep`
SWEEP_NVALID = 1000000  # sweep: packets per window
TRACED_SWEEP_WINDOWS = 256
SETUPS = 3              # serve-fit, trace-archive: renders per run;
                        # setup_s is their median
NETWORK = ["--lambda", "6", "--core", "0.35", "--leaves", "0.2",
           "--alpha", "2.3", "--window", "1.0", "--nodes", "150000"]

SPEC = os.path.join(ROOT, "BENCHMARK.json")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build():
    """Configures and builds palu_tool and the harness; returns paths."""
    out = build_dir()
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if os.path.exists(os.path.join(out, "CMakeCache.txt")):
        gen = []  # the generator of an existing tree cannot change
    run_logged(["cmake", "-S", HERE, "-B", out, *gen,
                "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    run_logged(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                "--target", "palu_tool", "perfbench_harness"])
    tool = os.path.join(out, "palu", "tools", "palu_tool")
    harness = os.path.join(out, "perfbench_harness")
    for path in (tool, harness):
        if not os.access(path, os.X_OK):
            raise BenchError(f"build produced no {path}")
    return tool, harness


def run_logged(cmd):
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:3])}... exited {r.returncode}")


def load_spec():
    """Workload reasons and metric units, from BENCHMARK.json."""
    with open(SPEC) as f:
        spec = json.load(f)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return why, e2e, per_layer


def provenance(seed, workload, why):
    cache = {}
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":")[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    version = ""
    if compiler:
        r = subprocess.run([compiler, "--version"], capture_output=True,
                           text=True)
        version = r.stdout.splitlines()[0] if r.stdout else ""
    git_sha = "none"  # a checkout without git history has no sha
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True)
        out = top.stdout.split()
        if top.returncode == 0 and out[0] == os.path.realpath(ROOT):
            git_sha = out[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("include", "src", "tools", "CMakeLists.txt"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in sorted(paths):
            digest.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                digest.update(f.read())
    return {
        "workload": workload, "why": why, "seed": seed,
        "nproc": os.cpu_count(), "pool_threads": os.cpu_count(),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "compiler": version or compiler,
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
    }


# ----------------------------------------------------------------- inputs

class MemFile:
    """A memory-backed input file (memfd), readable by path."""

    def __init__(self, name):
        self.fd = os.memfd_create(name)
        self.path = f"/proc/{os.getpid()}/fd/{self.fd}"

    def close(self):
        if self.fd >= 0:
            os.close(self.fd)
            self.fd = -1


def render(harness, seed, streams, packets):
    """Streams 0..streams-1 of `seed`, one memory-backed trace each."""
    files = [MemFile(f"trace-{seed}-{k}") for k in range(streams)]
    fds = [f.fd for f in files]
    r = subprocess.run([harness, "render", "--seed", str(seed), "--packets",
                        str(packets), "--fds", ",".join(map(str, fds))],
                       pass_fds=fds, stderr=sys.stderr)
    if r.returncode != 0:
        for f in files:
            f.close()
        raise BenchError(f"render exited {r.returncode}")
    return files


def repeated_setup(make):
    """Runs `make()` SETUPS times (dropping each previous result first)
    and returns (last result, median seconds)."""
    times = []
    result = None
    for _ in range(SETUPS):
        if result is not None:
            for f in result:
                f.close()
        t0 = time.perf_counter()
        result = make()
        times.append(time.perf_counter() - t0)
    return result, statistics.median(times)


# -------------------------------------------------------------- processes

def timed(cmd, line_times=False):
    """Runs `cmd`; returns (exit code, stdout lines, seconds from launch
    to exit, per-line seconds from launch, peak RSS in MB)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr)
    lines, stamps = [], []
    try:
        if line_times:
            for raw in p.stdout:
                stamps.append(time.perf_counter() - t0)
                lines.append(raw.decode().rstrip("\n"))
            tail = b""
        else:
            tail = p.stdout.read()
        _, status, usage = os.wait4(p.pid, 0)
        seconds = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if p.returncode is None:
            p.kill()
            p.wait()
        p.stdout.close()
    if not line_times:
        lines = tail.decode().splitlines()
    return p.returncode, lines, seconds, stamps, usage.ru_maxrss / 1024.0


def harness_json(harness, *args):
    r = subprocess.run([harness, *args], capture_output=True, text=True)
    if r.returncode != 0:
        log(r.stderr)
        raise BenchError(f"harness {args[0]} exited {r.returncode}")
    return json.loads(r.stdout.splitlines()[-1])


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


# -------------------------------------------------------------- workloads

def serve_chain(tool, trace):
    """One daemon run over one chain's trace: lines and their intervals."""
    rc, lines, _, stamps, rss = timed(
        [tool, "serve", "--trace", trace.path, "--window", str(WINDOW)],
        line_times=True)
    intervals = [b - a for a, b in zip([0.0] + stamps, stamps)]
    return rc, lines, intervals, (stamps[-1] if stamps else 0.0), rss


def serve_chain_failures(rc, lines):
    """Windows of one chain that fail the count and degraded checks."""
    if rc != 0 or len(lines) != CHAIN_WINDOWS:
        return CHAIN_WINDOWS
    return sum(1 for ln in lines if " degraded=- " not in ln)


def serve_fit(tool, harness, seed, seconds):
    chains = max(REFERENCE_CHAINS, round(seconds * CHAINS_PER_SECOND))
    traces, setup_s = repeated_setup(
        lambda: render(harness, seed, chains, CHAIN_WINDOWS * WINDOW))
    try:
        intervals, outputs, to_last, rss = [], [], 0.0, []
        failed = 0
        for trace in traces:
            rc, lines, iv, last, peak = serve_chain(tool, trace)
            intervals += iv
            to_last += last
            rss.append(peak)
            outputs.append(lines)
            failed += serve_chain_failures(rc, lines)
        # Line-by-line check of some chains against a direct refit replay.
        checked = {(seed + i * chains // REFERENCE_CHAINS) % chains
                   for i in range(REFERENCE_CHAINS)}
        for k in sorted(checked):
            ref = harness_json(harness, "serve-ref", "--trace",
                               traces[k].path, "--window", str(WINDOW))
            if ref["lines"] != outputs[k] or ref["bad_lines"] != 0:
                failed += CHAIN_WINDOWS
    finally:
        for t in traces:
            t.close()
    windows = chains * CHAIN_WINDOWS
    lines_per_s = windows * WINDOW / to_last if to_last > 0 else 0.0
    detail = {"daemon_runs": chains, "windows": len(intervals),
              "lines_per_s": lines_per_s,
              "window_mean_ms": 1e3 * statistics.mean(intervals),
              "window_p50_ms": 1e3 * statistics.median(intervals),
              "window_p90_ms": 1e3 * p90(intervals)}
    metrics = {"setup_s": setup_s, "peak_rss_mb": statistics.median(rss),
               "throughput_per_s": lines_per_s,
               "step_mean_ms": detail["window_mean_ms"],
               "step_p90_ms": detail["window_p90_ms"]}
    return metrics, windows, min(failed, windows), detail


def work_dir():
    path = os.path.join(ROOT, ".bench_work")
    os.makedirs(path, exist_ok=True)
    return path


def remove_tree(path):
    shutil.rmtree(path, ignore_errors=True)


def capture(tool, trace, store):
    # Always into a new directory: ext4 flushes a file that is truncated
    # and rewritten, which stalled repeated captures into one store for
    # over a second each.
    remove_tree(store)
    rc, out, secs, _, rss = timed([tool, "capture", "--trace", trace.path,
                                   "--nvalid", str(ARCHIVE_NVALID),
                                   "--store", store])
    windows = ARCHIVE_LINES // ARCHIVE_NVALID
    ok = rc == 0 and any(ln.startswith(f"capture: {windows} windows")
                         for ln in out)
    return ok, secs, rss


def replay(tool, store):
    rc, out, secs, _, rss = timed([tool, "replay", "--store", store,
                                   "--csv"])
    return rc == 0, "\n".join(out) + "\n", secs, rss


def trace_archive(tool, harness, seed, seconds):
    traces, setup_s = repeated_setup(
        lambda: render(harness, seed, 1, ARCHIVE_LINES))
    trace = traces[0]
    windows = ARCHIVE_LINES // ARCHIVE_NVALID
    store = None
    try:
        captures, replays, csvs = [], [], set()
        capture_rss, replay_rss, failed, attempted = [], [], 0, 0
        t0 = time.perf_counter()
        while len(captures) < 3 or time.perf_counter() - t0 < seconds / 2:
            previous = store
            store = os.path.join(work_dir(), f"store-{seed}-{len(captures)}")
            ok, secs, peak = capture(tool, trace, store)
            if previous:
                remove_tree(previous)
            captures.append(secs)
            capture_rss.append(peak)
            attempted += windows
            failed += 0 if ok else windows
        t0 = time.perf_counter()
        while (len(replays) < MIN_REPLAYS
               or time.perf_counter() - t0 < seconds / 2):
            ok, csv, secs, peak = replay(tool, store)
            replays.append(secs)
            replay_rss.append(peak)
            csvs.add(csv)
            attempted += windows
            failed += 0 if ok else windows
        # The replayed ensemble must equal the one accumulated straight
        # from the trace, and every stored block must verify.
        ref = harness_json(harness, "archive-ref", "--trace", trace.path,
                           "--nvalid", str(ARCHIVE_NVALID))
        rc, out, _, _, _ = timed([tool, "replay", "--store", store,
                                  "--verify"])
        verified = rc == 0 and any(": OK (" in ln for ln in out)
        merged = merged_line([tool, "replay", "--store", store])
        if (csvs != {ref["csv"]} or merged != ref["merged"] or not verified
                or ref["bad_lines"] != 0):
            failed = attempted
    finally:
        trace.close()
        if store:
            remove_tree(store)
    capture_s = statistics.median(captures)
    replay_s = statistics.median(replays)
    detail = {"captures": len(captures), "replays": len(replays),
              "lines_per_s": ARCHIVE_LINES / capture_s,
              "replay_packets_per_s": ref["packets"] / replay_s,
              "replay_mean_ms": 1e3 * statistics.mean(replays),
              "replay_p50_ms": 1e3 * replay_s,
              "replay_p90_ms": 1e3 * p90(replays),
              "replay_peak_rss_mb": statistics.median(replay_rss)}
    metrics = {"setup_s": setup_s,
               "peak_rss_mb": statistics.median(capture_rss),
               "throughput_per_s": detail["lines_per_s"],
               "step_mean_ms": detail["replay_mean_ms"],
               "step_p90_ms": detail["replay_p90_ms"]}
    return metrics, attempted, failed, detail


def sweep_cmd(tool, seed, windows, csv=True):
    return [tool, "sweep", *NETWORK, "--synthesis", "counts", "--nvalid",
            str(SWEEP_NVALID), "--windows", str(windows), "--seed",
            str(seed)] + (["--csv"] if csv else [])


def merged_line(cmd):
    """The `d_max=... merged_total=... support=...` line of a sweep or
    replay printed without --csv (which then also fits; not timed)."""
    rc, out, _, _, _ = timed(cmd)
    lines = [ln for ln in out if ln.startswith("d_max=")]
    return lines[0] if rc == 0 and lines else None


def one_window_sweep(tool, seed):
    """Set-up cost of `palu_tool sweep`: realising the network, rates and
    pool, measured as a one-window sweep."""
    rc, _, secs, _, _ = timed(sweep_cmd(tool, seed, 1))
    if rc != 0:
        raise BenchError(f"one-window sweep exited {rc}")
    return secs


def sweep(tool, harness, seed, seconds):
    # A one-window sweep before each full one: set-up time follows the
    # machine's state from second to second, so its samples are spread
    # over the run rather than taken back to back at its start.
    setups, runs, csvs, rss, failed, attempted = [], [], set(), [], 0, 0
    t0 = time.perf_counter()
    while len(runs) < 3 or time.perf_counter() - t0 < seconds:
        setups.append(one_window_sweep(tool, seed))
        rc, out, secs, _, peak = timed(sweep_cmd(tool, seed, SWEEP_WINDOWS))
        runs.append(secs)
        csvs.add("\n".join(out) + "\n")
        rss.append(peak)
        attempted += SWEEP_WINDOWS
        failed += 0 if rc == 0 else SWEEP_WINDOWS
    # The nproc-thread sweep must print what a 1-thread run of the same
    # windows computes.
    ref = harness_json(harness, "sweep-ref", "--seed", str(seed),
                       "--windows", str(SWEEP_WINDOWS), "--nvalid",
                       str(SWEEP_NVALID))
    merged = merged_line(sweep_cmd(tool, seed, SWEEP_WINDOWS, csv=False))
    if csvs != {ref["csv"]} or merged != ref["merged"]:
        failed = attempted
    setup_s = statistics.median(setups)
    sweep_s = statistics.median(runs) - setup_s
    packets_per_s = (SWEEP_WINDOWS - 1) * SWEEP_NVALID / sweep_s
    # Each sweep's time past set-up, per window it added.
    window_ms = [1e3 * (secs - setup_s) / (SWEEP_WINDOWS - 1)
                 for secs in runs]
    detail = {"sweeps": len(runs), "windows_per_sweep": SWEEP_WINDOWS,
              "packets_per_s": packets_per_s,
              "sweep_p50_s": statistics.median(runs)}
    metrics = {"setup_s": setup_s, "peak_rss_mb": statistics.median(rss),
               "throughput_per_s": packets_per_s,
               "step_mean_ms": statistics.mean(window_ms),
               "step_p90_ms": p90(window_ms)}
    return metrics, attempted, failed, detail


def expected(tool, harness, seed, seconds):
    r = harness_json(harness, "expected", "--seed", str(seed), "--seconds",
                     str(seconds))
    evals_per_s = r["evals"] / r["measured_s"]
    # Without a writable clear_refs the peak also covers the set-ups.
    detail = {"passes": r["passes"], "evaluations": r["evals"],
              "evals_per_s": evals_per_s, "links": r["links"],
              "eval_p50_ms": statistics.median(r["eval_ms"]),
              "peak_rss_reset": r["rss_reset"]}
    metrics = {"setup_s": statistics.median(r["setup_s"]),
               "peak_rss_mb": r["peak_rss_mb"],
               "throughput_per_s": evals_per_s,
               "step_mean_ms": statistics.mean(r["eval_ms"]),
               "step_p90_ms": p90(r["eval_ms"])}
    return metrics, r["evals"], r["failed"], detail


WORKLOADS = {"serve-fit": serve_fit, "trace-archive": trace_archive,
             "sweep": sweep, "expected": expected}


# ------------------------------------------------------------------ traced

def traced(tool, harness, workload, seed):
    chains = render(harness, seed, TRACED_CHAINS, CHAIN_WINDOWS * WINDOW)
    archive = render(harness, seed, 1, ARCHIVE_LINES)[0]
    store = os.path.join(work_dir(), f"store-traced-{seed}")
    spans = os.path.join(work_dir(), f"spans-{workload}-{seed}.tsv")
    metrics_json = os.path.join(work_dir(), f"serve-metrics-{seed}.json")
    metrics_files = (metrics_json, metrics_json[:-len(".json")] + ".prom")
    remove_tree(store)
    try:
        # The daemon itself: the lines the staged pass must reproduce, and
        # its stage restarts.
        daemon_lines, restarts, failed = [], 0, 0
        for trace in chains:
            rc, lines, _, _, _ = timed(
                [tool, "serve", "--trace", trace.path, "--window",
                 str(WINDOW), "--metrics", metrics_json])
            failed += serve_chain_failures(rc, lines)
            daemon_lines += lines
            with open(metrics_json) as f:
                for c in json.load(f)["counters"]:
                    if c["name"] == "palu_serve_stage_restarts_total":
                        restarts += c["value"]
        r = harness_json(
            harness, "traced", "--workload", workload,
            "--serve-traces", ",".join(t.path for t in chains),
            "--window", str(WINDOW), "--archive-trace", archive.path,
            "--nvalid", str(ARCHIVE_NVALID), "--store", store,
            "--seed", str(seed), "--sweep-windows",
            str(TRACED_SWEEP_WINDOWS), "--sweep-nvalid", str(SWEEP_NVALID),
            "--spans", spans)
        info = r["info"]
        if info["serve_lines"] != daemon_lines:
            failed += len(info["serve_lines"])
    finally:
        for t in chains:
            t.close()
        archive.close()
        remove_tree(store)
        for path in metrics_files:
            if os.path.exists(path):
                os.remove(path)
    metrics = dict(r["metrics"])
    metrics["serve.stage_restarts"] = restarts
    detail = {"coverage": info["coverage"],
              "untraced_s": info["untraced_s"],
              "traced_s": info["traced_s"],
              "spans": os.path.relpath(spans, ROOT),
              "serve_windows": info["serve_windows"]}
    return metrics, r["attempted"], r["failed"] + failed, detail


# ------------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        why, e2e_units, per_layer_units = load_spec()
        tool, harness = build()
        print(json.dumps({"provenance": provenance(
            args.seed, args.workload, why[args.workload])}))
        if args.trace:
            values, attempted, failed, detail = traced(
                tool, harness, args.workload, args.seed)
            units = per_layer_units
        else:
            values, attempted, failed, detail = WORKLOADS[args.workload](
                tool, harness, args.seed, args.seconds)
            units = e2e_units
    except (BenchError, OSError, ValueError, KeyError,
            json.JSONDecodeError) as e:
        log(f"perfbench: {e}")
        return 1
    missing = sorted(set(units) - set(values))
    if missing:
        log(f"perfbench: metrics not measured: {missing}")
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
