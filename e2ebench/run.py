#!/usr/bin/env python3
"""The end-to-end benchmark: one command that builds the program from source,
runs a workload, checks every output, and prints its metrics.

    python3 e2ebench/run.py --workload cold-start|prove-stream|serve-mix|all
                            [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. It builds into $CARGO_TARGET_DIR (default
.bench_build) and keeps each run's raw samples and spans under .bench_run/.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics (see README.md). The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import metrics  # noqa: E402

WORKLOADS = ("cold-start", "prove-stream", "serve-mix")
RUN_BUDGET_S = 170  # one workload run, build excluded
# e2ebench exits with this code when the optimizer, calibrated at process
# start, picked another layout than workloads.json names; the run then starts
# a fresh process, at most MAX_ATTEMPTS in all, and counts each flip.
LAYOUT_FLIP_EXIT = 3
MAX_ATTEMPTS = 3


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_files():
    files = [os.path.join(HERE, "CMakeLists.txt"), os.path.join(HERE, "e2ebench.cc"),
             os.path.join(ROOT, "examples", "zkml_serve.cpp")]
    for base, _, names in os.walk(os.path.join(ROOT, "src")):
        files += [os.path.join(base, n) for n in names]
    return sorted(files)


def source_hash():
    h = hashlib.sha256()
    for path in source_files():
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(src_hash):
    """Builds e2ebench and the daemon unless this source tree was built last."""
    out = build_dir()
    stamp = os.path.join(out, "e2ebench.stamp")
    binaries = [os.path.join(out, b) for b in ("e2ebench", "e2ebench_serve")]
    if all(os.path.exists(b) for b in binaries) and os.path.exists(stamp):
        with open(stamp) as f:
            if f.read().strip() == src_hash:
                return binaries
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "-j", jobs, "--target", "e2ebench", "e2ebench_serve"]):
        log("build: " + " ".join(cmd))
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    with open(stamp, "w") as f:
        f.write(src_hash + "\n")
    return binaries


def git_sha():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_process(cmd, timeout_s):
    """Runs cmd in its own process group; on timeout the whole group dies."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr, process_group=0)
    try:
        return proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError("%s did not finish within %.0f s" % (cmd[1], timeout_s))
    finally:
        # Anything the run left behind (the daemon, on an error path) stops too.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def run_workload(workload, seed, seconds, trace, binaries, cfg, deadline):
    bench, daemon = binaries
    workdir = os.path.join(ROOT, ".bench_run", "%s-seed%d-trace%d" % (workload, seed, trace))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    raw_path = os.path.join(workdir, "raw.json")
    cmd = [bench, workload, "--seed=%d" % seed, "--seconds=%g" % seconds,
           "--trace=%d" % trace, "--out=" + raw_path]
    cmd += ["--expect=%s:%s" % pin for pin in sorted(cfg["layouts"].items())]
    if workload == "serve-mix":
        schedule_path = os.path.join(workdir, "schedule.json")
        with open(schedule_path, "w") as f:
            json.dump(metrics.make_schedule(seed, seconds, cfg), f)
        cmd += ["--schedule=" + schedule_path, "--daemon=" + daemon, "--workdir=" + workdir]
    discarded = 0
    while True:
        code = run_process(cmd, deadline - time.monotonic())
        if code != LAYOUT_FLIP_EXIT or discarded + 1 >= MAX_ATTEMPTS:
            break
        discarded += 1
    if code == LAYOUT_FLIP_EXIT:
        raise RuntimeError("the optimizer picked other layouts than %s in %d processes in a row"
                           % (cfg["layouts"], MAX_ATTEMPTS))
    if code != 0:
        raise RuntimeError("e2ebench %s exited with %d" % (workload, code))
    with open(raw_path) as f:
        raw = json.load(f)

    values, samples, layer = metrics.REDUCERS[workload](raw, cfg, trace)
    attempted, failed, messages = metrics.failures(raw, workload)
    invalid = []
    if workload == "serve-mix":
        lags = [metrics.request_timing(op)["send_lag_s"] for op in raw["ops"] if op["ok"]]
        if lags and metrics.percentile(lags, 90) > cfg["max_send_lag_p90_s"]:
            invalid.append("load generator ran late: send lag p90 %.3f s" %
                           metrics.percentile(lags, 90))
        if raw["daemon_exit"] != 0:
            invalid.append("daemon exited with %d" % raw["daemon_exit"])
    if trace and workload == "cold-start":
        gap = layer["trace.phase_sum_gap_frac"]
        if abs(gap) > cfg["phase_sum_tolerance"]:
            invalid.append("cold-start phases sum %.1f%% away from the facade wall" % (100 * gap))
    flipped = metrics.flips(raw, workload, cfg)
    if flipped:
        invalid.append("%d timed compiles picked other layouts than %s" % (flipped, cfg["layouts"]))
    rejected = metrics.rejected_daemons(raw)
    if trace:
        layer["optimizer.flips"] = float(discarded + rejected + flipped)
        layer.update(metrics.sweep_metrics(raw["sweep"]))
        names = metrics.PER_LAYER
        # A layer the workload does not run reads 0.
        values = {name: layer.get(name, 0.0) for name, _ in names}
    else:
        names = metrics.END_TO_END
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "host": dict(raw["host"], git_sha=git_sha()),
        "correct": failed == 0 and not invalid,
        "attempted": attempted,
        "failed": failed,
        "problems": messages + invalid,
        "values": values,
        "units": dict(names),
        "samples": samples,
        "layout_note": ("optimizer picked %s; expected %s; %d differ; %d processes discarded "
                        "for a flip; %d daemons rejected" % (
                            sorted(set(metrics.layout_picks(raw, workload))), cfg["layouts"],
                            flipped, discarded, rejected)),
        "workdir": workdir,
    }


def print_report(res, src_hash):
    host = dict(res["host"], source_hash=src_hash)
    print("host: " + json.dumps(host, sort_keys=True))
    print("workload %s  seed %d  trace %d  attempted %d  failed %d  error_rate %.4f" % (
        res["workload"], res["seed"], res["trace"], res["attempted"], res["failed"],
        res["failed"] / res["attempted"]))
    for name, value in res["values"].items():
        n = res["samples"].get(name)
        note = ""
        if name == "serve_p90_s" and n is not None:
            tail = metrics.tail_percentile(n)
            note = "  tail rule: p%s" % ("%g" % tail if tail else "-")
        print("  %-40s %14.6g %-6s %s%s" % (name, value, res["units"][name],
                                          "n=%d" % n if n is not None else "", note))
    print("  " + res["layout_note"])
    for problem in res["problems"][:10]:
        print("  FAILED: " + problem)
    with open(os.path.join(res["workdir"], "result.json"), "w") as f:
        json.dump(dict(res, host=host), f, indent=1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        log("e2ebench: %s holds no zkml source tree (CMakeLists.txt, src/)" % ROOT)
        return 2
    with open(os.path.join(HERE, "workloads.json")) as f:
        config = json.load(f)
    src_hash = source_hash()
    try:
        binaries = build(src_hash)
    except (OSError, subprocess.CalledProcessError) as e:
        log("e2ebench: build failed: %s" % e)
        return 1

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in workloads:
        deadline = time.monotonic() + RUN_BUDGET_S
        try:
            res = run_workload(workload, args.seed, args.seconds, args.trace, binaries,
                               config[workload], deadline)
        except (RuntimeError, OSError, KeyError, ValueError, ZeroDivisionError) as e:
            log("e2ebench: %s failed: %s" % (workload, e))
            return 1
        print_report(res, src_hash)
        results.append(res)

    if len(results) == 1:
        res = results[0]
        values, units = res["values"], res["units"]
    else:
        values = {"%s/%s" % (r["workload"], k): v for r in results for k, v in r["values"].items()}
        units = {"%s/%s" % (r["workload"], k): u for r in results for k, u in r["units"].items()}
    line = metrics.result_line(all(r["correct"] for r in results),
                               sum(r["attempted"] for r in results),
                               sum(r["failed"] for r in results), values, units)
    metrics.parse_result_line(line, values)  # the printed line must meet its own schema
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
