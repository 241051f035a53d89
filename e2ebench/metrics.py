"""Pure functions of the end-to-end benchmark: statistics, the serve-mix
schedule, span self-times, and the raw-samples -> metrics reduction.

Nothing here runs the program; run.py does that and calls into this module.
"""

import json
import math
import random
import statistics

# Percentiles the tail rule may report, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 85.0, 80.0, 75.0, 50.0)
MIN_BEYOND = 10

STAGES = ("advice-commit", "lookup-mult", "lookup-perm-commit", "quotient", "evals", "openings")
ZOO = ("gpt2", "diffusion", "twitter", "dlrm", "mobilenet", "resnet18", "vgg16", "mnist")
PROVED = ("mnist", "dlrm", "resnet18")
LAYERS = ("optimizer", "pcs", "compiler", "plonk", "zkml", "serve", "bench")

# Every end-to-end metric, in print order: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("prove_s", "s"),
    ("verify_ms", "ms"),
    ("proof_bytes", "B"),
    ("peak_rss_mb", "MB"),
    ("serve_p50_s", "s"),
    ("serve_p90_s", "s"),
    ("serve_slo_frac", "ratio"),
)


def _per_layer():
    out = [
        ("optimizer.calibrate_s", "s"),
        ("optimizer.search_s", "s"),
        ("optimizer.plans", "count"),
        ("optimizer.flips", "count"),
    ]
    for model in ZOO:
        out += [
            ("optimizer.k." + model, "count"),
            ("optimizer.columns." + model, "count"),
            ("optimizer.margin." + model, "ratio"),
        ]
    out += [("optimizer.pred_over_measured." + m, "ratio") for m in PROVED]
    out += [
        ("pcs.srs_s", "s"),
        ("pcs.lagrange_basis_s", "s"),
        ("compiler.circuit_s", "s"),
        ("compiler.witness_s", "s"),
        ("plonk.keygen_s", "s"),
        ("plonk.keygen.msm_calls", "count"),
        ("plonk.keygen.msm_points", "count"),
        ("plonk.keygen.fft_calls", "count"),
    ]
    out += [("prover." + s.replace("-", "_") + "_s", "s") for s in STAGES]
    out += [
        ("prover.msm_points", "count"),
        ("prover.fft_points", "count"),
        ("verifier.batch_ms_per_proof", "ms"),
        ("pcs.kzg.pairing_checks", "count"),
        ("zkml.single.prove_s", "s"),
        ("zkml.batched.prove_s_per_inference", "s"),
        ("zkml.sharded.prove_s", "s"),
        ("serve.queue_p50_s", "s"),
        ("serve.queue_p90_s", "s"),
        ("serve.overhead_s", "s"),
        ("serve.cache_hit_frac", "ratio"),
        ("serve.shed", "count"),
        ("serve.deadline_exceeded", "count"),
        ("serve.send_lag_p90_s", "s"),
        ("pool.busy_frac", "ratio"),
        ("cpu.busy_frac", "ratio"),
    ]
    out += [("layer.%s.self_s" % layer, "s") for layer in LAYERS]
    out += [("trace.phase_sum_gap_frac", "ratio"), ("trace.overhead_s", "s")]
    return tuple(out)


# Every per-layer metric, in print order: (name, unit).
PER_LAYER = _per_layer()


# --- statistics ---

def percentile(values, p):
    """The p-th percentile (0..100), linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n):
    """The highest percentile with at least ten of n samples beyond it, or None."""
    for p in TAIL_CANDIDATES:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return None


def median(values):
    return statistics.median(values)


# --- serve-mix schedule ---

def make_schedule(seed, seconds, cfg):
    """The seeded open-loop schedule for one serve-mix run.

    Arrivals come at `cfg["rate"]` per second over [0, seconds) with gaps
    drawn uniformly from [1 - jitter, 1 + jitter] / rate. Request kinds keep
    the fixed mix `cfg["mix"]` exactly (counts rounded, order shuffled).
    Each inference gets its own input seed.
    """
    rng = random.Random("serve-mix/%d" % seed)
    rate = float(cfg["rate"])
    jitter = float(cfg["jitter"])
    times = []
    t = rng.uniform(0, 1.0 / rate)
    while t < seconds:
        times.append(t)
        t += rng.uniform(1.0 - jitter, 1.0 + jitter) / rate
    kinds = []
    total = sum(cfg["mix"].values())
    for kind in sorted(cfg["mix"]):
        kinds += [kind] * int(round(len(times) * cfg["mix"][kind] / total))
    while len(kinds) < len(times):
        kinds.append("single")
    kinds = kinds[: len(times)]
    rng.shuffle(kinds)

    def request(t, kind):
        n = int(cfg["batch"]) if kind == "batch" else 1
        return {"t": t, "kind": kind, "seeds": [rng.getrandbits(40) for _ in range(n)]}

    return {
        "model": cfg["model"],
        "connections": int(cfg["connections"]),
        "warmup": [request(0.0, k) for k in ("single", "batch", "sharded")],
        "requests": [request(t, k) for t, k in zip(times, kinds)],
    }


def request_timing(op):
    """Latency (from the scheduled send), send lag and in-flight time of one reply."""
    return {
        "latency_s": op["t_done"] - op["t_sched"],
        "send_lag_s": max(0.0, op["t_send"] - op["t_sched"]),
        "in_flight_s": op["t_done"] - op["t_send"],
    }


# --- spans ---

def self_times(spans):
    """Maps span id -> duration minus the part of it its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo = max(c["start"], cursor)
            hi = min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_of(name):
    head = name.split(".", 1)[0]
    return {"prover": "plonk", "verifier": "plonk"}.get(head, head)


def layer_split(spans, units=None):
    """Self seconds per layer over spans of operations >= 0, divided by
    `units` (default: the number of operations)."""
    own = [s for s in spans if s["op"] >= 0]
    selfs = self_times(own)
    split = {layer: 0.0 for layer in LAYERS}
    for s in own:
        layer = layer_of(s["name"])
        split[layer] = split.get(layer, 0.0) + selfs[s["id"]]
    n = units if units is not None else max(1, len({s["op"] for s in own}))
    return {layer: secs / n for layer, secs in split.items()}


def phase_sum(spans):
    """Self seconds of the layer phases of operations >= 0: every span but
    the operation roots, whose self time is the glue between layer calls. So
    time that no layer span covers stays out of the sum."""
    own = [s for s in spans if s["op"] >= 0]
    selfs = self_times(own)
    return sum(selfs[s["id"]] for s in own if s["parent"] != -1)


def serve_spans(ops):
    """Reconstructs one span tree per serve-mix request from client
    timestamps and the daemon's reported queue and prove durations."""
    spans = []
    for op in ops:
        if not op["ok"]:
            continue
        root = len(spans)
        spans.append(dict(id=root, parent=-1, name="serve.request", op=op["index"],
                          start=op["t_sched"], end=op["t_done"]))
        spans.append(dict(id=root + 1, parent=root, name="bench.send_lag", op=op["index"],
                          start=op["t_sched"], end=op["t_send"]))
        q_end = min(op["t_send"] + op["queue_s"], op["t_done"])
        spans.append(dict(id=root + 2, parent=root, name="serve.queue", op=op["index"],
                          start=op["t_send"], end=q_end))
        spans.append(dict(id=root + 3, parent=root, name="zkml.prove", op=op["index"],
                          start=q_end, end=min(q_end + op["prove_s"], op["t_done"])))
    return spans


# --- raw samples -> metrics ---

def _by_rep(ops):
    reps = {}
    for op in ops:
        reps.setdefault(op["rep"], []).append(op)
    return [group for _, group in sorted(reps.items())]


def _rep_sum(reps, key, scale=1.0):
    return median([sum(op[key] for op in rep) * scale for rep in reps])


def _stage_sums(op):
    stages = op.get("stages", {})
    out = {s: stages[s]["seconds"] for s in STAGES if s in stages}
    out["msm_points"] = sum(st["kernels"]["msm_points"] for st in stages.values())
    out["fft_points"] = sum(st["kernels"]["fft_points"] for st in stages.values())
    return out


def _prover_metrics(groups, m):
    """Prover-stage medians; each group's stage values are summed first."""
    if not groups:
        return
    per_group = []
    for group in groups:
        acc = {}
        for op in group:
            for k, v in _stage_sums(op).items():
                acc[k] = acc.get(k, 0.0) + v
        per_group.append(acc)
    for stage in STAGES:
        name = "prover." + stage.replace("-", "_") + "_s"
        m[name] = median([g.get(stage, 0.0) for g in per_group])
    m["prover.msm_points"] = median([g["msm_points"] for g in per_group])
    m["prover.fft_points"] = median([g["fft_points"] for g in per_group])


def _verify_ms(raw, per_group_sum=False):
    """verify_ms: the median verification call, or for cold-start the sum over
    models of each model's median call."""
    samples = raw["verify_samples"]
    if not per_group_sum:
        return median([s["seconds"] for s in samples]) * 1e3, len(samples)
    groups = {}
    for s in samples:
        groups.setdefault(s["group"], []).append(s["seconds"])
    return sum(median(v) for v in groups.values()) * 1e3, len(samples)


def _latency_metrics(latencies, sent, ok_within, m):
    m["serve_p50_s"] = median(latencies)
    m["serve_p90_s"] = percentile(latencies, 90)
    m["serve_slo_frac"] = ok_within / sent


def reduce_cold_start(raw, cfg, trace):
    """Metrics of one cold-start run. One operation is one repetition: both
    models compiled from scratch, proved and verified; sums are over models."""
    reps = [rep for rep in _by_rep(raw["ops"]) if len(rep) == 2]
    walls = [sum(op["wall_s"] for op in rep) for rep in reps]
    ok_reps = [all(op["ok"] for op in rep) for rep in reps]
    m = {
        "setup_s": _rep_sum(reps, "setup_s"),
        "prove_s": _rep_sum(reps, "prove_s"),
        "verify_ms": _verify_ms(raw, per_group_sum=True)[0],
        "proof_bytes": float(sum(op["proof_bytes"] for op in reps[0])),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }
    within = sum(1 for w, ok in zip(walls, ok_reps) if ok and w <= cfg["latency_limit_s"])
    _latency_metrics(walls, len(reps), within, m)
    samples = {"setup_s": len(reps), "prove_s": len(reps), "verify_ms": _verify_ms(raw)[1],
               "serve_p50_s": len(walls), "serve_p90_s": len(walls), "serve_slo_frac": len(reps)}
    layer = {}
    if trace:
        layer["optimizer.calibrate_s"] = raw["calibrate_s"]
        for key, name in (("search_s", "optimizer.search_s"), ("srs_s", "pcs.srs_s"),
                          ("circuit_s", "compiler.circuit_s"), ("keygen_s", "plonk.keygen_s"),
                          ("witness_s", "compiler.witness_s")):
            layer[name] = _rep_sum(reps, key)
        layer["optimizer.plans"] = float(sum(op["plans"] for op in reps[0]))
        for k in ("msm_calls", "msm_points", "fft_calls"):
            layer["plonk.keygen." + k] = float(sum(op["keygen_kernels"][k] for op in reps[0]))
        layer["pcs.lagrange_basis_s"] = sum(raw["lagrange_basis_s"].values())
        for model in ("mnist", "dlrm"):
            ops = [op for op in raw["ops"] if op["model"] == model]
            layer["optimizer.pred_over_measured." + model] = (
                ops[0]["predicted_s"] / median([op["create_proof_s"] for op in ops]))
        _prover_metrics(reps, layer)
        split_walls = [sum(op["split_wall_s"] for op in rep) for rep in reps]
        # Exclusive phases of the split path per repetition, against the
        # facade's CompileModel + Prove + Verify wall of the same repetitions.
        facade_mean = statistics.mean(walls)
        phases = phase_sum(raw["spans"]) / len(reps)
        layer["trace.phase_sum_gap_frac"] = (phases - facade_mean) / facade_mean
        layer["trace.overhead_s"] = median(split_walls) - median(walls)
        for name, secs in layer_split(raw["spans"], units=len(reps)).items():
            layer["layer.%s.self_s" % name] = secs
        layer["pool.busy_frac"] = raw["window"]["pool_busy_frac"]
    layer["cpu.busy_frac"] = raw["window"]["cpu_busy_frac"]
    return m, samples, layer


def reduce_prove_stream(raw, cfg, trace):
    """Metrics of one prove-stream run: one operation proves and verifies one
    distinct input against the once-compiled resnet18 keys."""
    ops = raw["ops"]
    facade = [op for op in ops if op.get("untraced")]
    setups = [s["setup_s"] for s in raw["setups"] if "setup_s" in s]
    walls = [op["wall_s"] for op in ops]
    m = {
        "setup_s": median(setups),
        "prove_s": median([op["prove_s"] for op in facade]),
        "verify_ms": _verify_ms(raw)[0],
        "proof_bytes": float(median([op["proof_bytes"] for op in ops])),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }
    within = sum(1 for op in ops if op["ok"] and op["wall_s"] <= cfg["latency_limit_s"])
    _latency_metrics(walls, len(ops), within, m)
    samples = {"setup_s": len(setups), "prove_s": len(facade), "verify_ms": _verify_ms(raw)[1],
               "serve_p50_s": len(walls), "serve_p90_s": len(walls), "serve_slo_frac": len(ops)}
    layer = {}
    if trace:
        split = [s for s in raw["setups"] if "keygen_s" in s]
        layer["optimizer.calibrate_s"] = raw["calibrate_s"]
        for key, name in (("search_s", "optimizer.search_s"), ("srs_s", "pcs.srs_s"),
                          ("circuit_s", "compiler.circuit_s"), ("keygen_s", "plonk.keygen_s")):
            layer[name] = median([s[key] for s in split])
        layer["optimizer.plans"] = float(split[0]["plans"])
        for k in ("msm_calls", "msm_points", "fft_calls"):
            layer["plonk.keygen." + k] = float(split[0]["keygen_kernels"][k])
        traced = [op for op in ops if not op.get("untraced")]
        layer["compiler.witness_s"] = median([op["witness_s"] for op in traced])
        layer["optimizer.pred_over_measured.resnet18"] = (
            raw["predicted_s"] / median([op["create_proof_s"] for op in ops]))
        _prover_metrics([[op] for op in ops], layer)
        batch = raw["batch_verify"]
        layer["verifier.batch_ms_per_proof"] = batch["seconds"] * 1e3 / batch["proofs"]
        layer["pcs.kzg.pairing_checks"] = float(batch["pairing_checks"])
        layer["trace.overhead_s"] = (median([op["prove_s"] for op in traced]) -
                                     median([op["prove_s"] for op in facade]))
        for name, secs in layer_split(raw["spans"]).items():
            layer["layer.%s.self_s" % name] = secs
        layer["pool.busy_frac"] = raw["window"]["pool_busy_frac"]
    layer["cpu.busy_frac"] = raw["window"]["cpu_busy_frac"]
    return m, samples, layer


def reduce_serve_mix(raw, cfg, trace):
    """Metrics of one serve-mix run over the requests of the timed window
    (each daemon's warm-up requests are checked as one operation, in
    failures())."""
    sent = raw["ops"]
    ok = [op for op in sent if op["ok"]]
    timing = [request_timing(op) for op in ok]
    latencies = [t["latency_s"] for t in timing]
    single = [op for op in ok if op["kind"] == "single"]
    setups = [s for s in raw["setups"] if not s["layout_flip"]] or raw["setups"]
    m = {
        "setup_s": median([s["setup_s"] for s in setups]),
        "prove_s": median([op["prove_s"] for op in single]),
        "verify_ms": _verify_ms(raw)[0],
        "proof_bytes": float(median([op["proof_bytes"] for op in single])),
        "peak_rss_mb": raw["daemon_peak_rss_kb"] / 1024.0,
    }
    within = sum(1 for t in latencies if t <= cfg["latency_limit_s"])
    _latency_metrics(latencies, len(sent), within, m)
    samples = {"setup_s": len(setups), "prove_s": len(single),
               "verify_ms": _verify_ms(raw)[1],
               "serve_p50_s": len(latencies), "serve_p90_s": len(latencies),
               "serve_slo_frac": len(sent)}
    layer = {"cpu.busy_frac": raw["window"]["cpu_busy_frac"]}
    if trace:
        for kind, name in (("single", "zkml.single.prove_s"),
                           ("batch", "zkml.batched.prove_s_per_inference"),
                           ("sharded", "zkml.sharded.prove_s")):
            per_inference = [op["prove_s"] / op["inferences"] for op in ok if op["kind"] == kind]
            layer[name] = median(per_inference)
        queue = [op["queue_s"] for op in ok]
        layer["serve.queue_p50_s"] = median(queue)
        layer["serve.queue_p90_s"] = percentile(queue, 90)
        layer["serve.overhead_s"] = median(
            [t["in_flight_s"] - op["queue_s"] - op["prove_s"] for t, op in zip(timing, ok)])
        layer["serve.cache_hit_frac"] = sum(1 for op in ok if op["cache_hit"]) / len(ok)
        layer["serve.shed"] = float(sum(1 for op in sent if op.get("shed")))
        layer["serve.deadline_exceeded"] = float(sum(1 for op in sent if op.get("deadline_exceeded")))
        layer["serve.send_lag_p90_s"] = percentile([t["send_lag_s"] for t in timing], 90)
        reports = [r for r in raw.get("run_reports", [])
                   if r.get("schema") == "zkml.run_report/v1" and r.get("model") == cfg["model"]]
        if reports:
            stage_ops = [{"stages": {s["name"]: {"seconds": s["seconds"], "kernels": s["kernels"]}
                                     for s in r["stages"]}} for r in reports]
            _prover_metrics([[op] for op in stage_ops], layer)
            layer["optimizer.pred_over_measured." + cfg["model"]] = median(
                [r["timings"]["predicted_prove_seconds"] / r["timings"]["prove_seconds"]
                 for r in reports])
        for name, secs in layer_split(serve_spans(raw["ops"])).items():
            layer["layer.%s.self_s" % name] = secs
    return m, samples, layer


REDUCERS = {
    "cold-start": reduce_cold_start,
    "prove-stream": reduce_prove_stream,
    "serve-mix": reduce_serve_mix,
}


def sweep_metrics(sweep):
    out = {}
    for model, rec in sweep.items():
        out["optimizer.k." + model] = float(rec["k"])
        out["optimizer.columns." + model] = float(rec["columns"])
        out["optimizer.margin." + model] = rec["margin"]
    return out


def layout_picks(raw, workload):
    """(model, layout) pairs the optimizer chose in this run's timed compiles."""
    if workload == "cold-start":
        return [(op["model"], op["optimizer_pick"]) for op in raw["ops"] if "optimizer_pick" in op]
    if workload == "prove-stream":
        return [("resnet18", s["optimizer_pick"]) for s in raw["setups"] if "optimizer_pick" in s]
    return [(raw["model"], raw["layouts"]["single"])]


def flips(raw, workload, cfg):
    """Timed compiles whose optimizer pick differs from the workload's named layout."""
    return sum(1 for model, pick in layout_picks(raw, workload)
               if model in cfg["layouts"] and pick != cfg["layouts"][model])


def rejected_daemons(raw):
    """Serve-mix daemons replaced because they ran other layouts."""
    return sum(1 for s in raw.get("setups", []) if s.get("layout_flip"))


def failures(raw, workload):
    """(attempted, failed, messages) over every checked operation of a run."""
    ops = raw["ops"]
    if workload == "serve-mix":
        # Each daemon's warm-up. One that ran other layouts was replaced,
        # unless it is the last, which served the timed window.
        setups = raw["setups"]
        ops = ops + [s for s in setups[:-1] if not s["layout_flip"]] + setups[-1:]
    failed = [op["error"] for op in ops if not op["ok"]]
    attempted = len(ops)
    batch = raw.get("batch_verify")
    if batch is not None:
        attempted += 1
        if not batch["ok"]:
            failed.append("batched verification: " + batch["error"])
    if "verify_block_ok" in raw:
        attempted += 1
        if not raw["verify_block_ok"]:
            failed.append("a proof stopped verifying in the verification block")
    return attempted, len(failed), failed


# --- the result line ---

RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def result_line(correct, attempted, failed, values, units):
    """The one-line JSON result the benchmark prints last."""
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in values}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics}, sort_keys=False)


def parse_result_line(line, expected_names):
    """Parses and validates a result line; raises ValueError when malformed."""
    doc = json.loads(line)
    if not isinstance(doc, dict) or tuple(sorted(doc)) != tuple(sorted(RESULT_KEYS)):
        raise ValueError("result keys must be exactly %s" % (RESULT_KEYS,))
    if not isinstance(doc["correct"], bool):
        raise ValueError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(doc[key], int) or isinstance(doc[key], bool) or doc[key] < 0:
            raise ValueError("%s must be a whole number" % key)
    if doc["attempted"] < 1:
        raise ValueError("attempted must be at least 1")
    if set(doc["metrics"]) != set(expected_names):
        raise ValueError("metrics differ from the declared set")
    for name, metric in doc["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(metric["value"], (int, float)):
            raise ValueError("metric %s must have a numeric value and a unit" % name)
        if not math.isfinite(metric["value"]):
            raise ValueError("metric %s is not finite" % name)
    return doc
