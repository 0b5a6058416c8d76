"""Benchmark harness: one closed-loop run of one workload.

    python3 perfbench/run.py --workload session_los --seed 1 --seconds 12 --trace 0

Run from the root of a checkout holding ``src/repro``.  With
``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced ops and reports the
per-layer metrics (means per traced op) instead.  Either way it runs
the workload's correctness gates after the timed window, prints every
metric by name with its unit, one ``{"record": ...}`` line (config hash,
machine fingerprint, raw figures) and, last, the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

T0 = time.perf_counter()  # set-up is measured from here to the first op

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

#: A timed window runs until --seconds have passed and the workload's
#: ``min_ops`` were timed, but no longer than this.
MAX_WINDOW_S = 100.0
#: setup_s is the median of this many set-ups: this process plus fresh
#: processes started after the timed window.
SETUP_SAMPLES = 3
#: A traced run alternates untraced and traced ops, at least this many.
TRACE_MIN_OPS = 20

#: setup_s is in host seconds; the other timing metrics are in reference
#: seconds (see CAL_REF_S), and the record keeps them in host seconds too.
END_TO_END = {
    "setup_s": "s",
    "queries_per_ref_s": "1/ref_s",
    "op_p50_ref_s": "ref_s",
    "op_p90_ref_s": "ref_s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: means per traced op, except the trace.* rates and
#: overhead (whole run) and core.fleet.build_s (once, in set-up).  A layer
#: the workload does not run reads 0.
PER_LAYER = {
    "trace.op_s": "s",
    "trace.overhead": "ratio",
    "trace.traced_queries_per_s": "1/s",
    "trace.untraced_queries_per_s": "1/s",
    "phy.error_model.channel.busy_s": "s",
    "phy.error_model.csi.busy_s": "s",
    "phy.error_model.eesm.busy_s": "s",
    "phy.error_model.coding.busy_s": "s",
    "phy.error_model.fading.busy_s": "s",
    "phy.error_model.subframes": "count",
    "phy.error_model.csi.share": "ratio",
    "core.system.query-build.busy_s": "s",
    "core.system.tag-fsm.busy_s": "s",
    "core.system.phy-decode.busy_s": "s",
    "core.system.mac-ba.busy_s": "s",
    "core.session.unattributed_s": "s",
    "core.query.build_fast.calls": "count",
    "core.query.build_fast.busy_s": "s",
    "mac.security.ccmp.encrypt.calls": "count",
    "mac.security.ccmp.encrypt.busy_s": "s",
    "mac.security.ccmp.encrypt.bytes": "B",
    "mac.security.ccmp.encrypt.bytes_per_s": "B/s",
    "core.fleet.poll_tags.busy_s": "s",
    "core.fleet.queries": "count",
    "core.fleet.build_s": "s",
    "core.fleet.unattributed_s": "s",
    "runner.wall_s": "s",
    "runner.worker_busy_s": "s",
    "runner.dispatch_s": "s",
    "runner.utilization": "ratio",
    "runner.chunks": "count",
    "runner.retries": "count",
    "serve.submit_s": "s",
    "serve.queue_wait_s": "s",
    "serve.first_chunk_s": "s",
    "serve.exec_s": "s",
    "serve.result_s": "s",
    "serve.unattributed_s": "s",
}


#: One reference second is a host second scaled by CAL_REF_S over the
#: time of a fixed calibration kernel, timed just before and just after
#: each op.  On a shared VM whose speed drifts by up to 2x over minutes,
#: this cancels most of the drift (see README.md).
CAL_REF_S = 0.001
_CAL_TABLE = [(i * 167 + 13) & 255 for i in range(256)]


def calibration_s(rng) -> float:
    """Time one fixed kernel: pure-Python table lookups and xors, then
    small numpy generator draws -- the two kinds of work the workloads
    spend their time in."""
    table = _CAL_TABLE
    start = time.perf_counter()
    x = 0
    for i in range(5000):
        x = table[(x ^ i) & 255] ^ (x >> 1)
    for _ in range(100):
        rng.standard_normal(104).sum()
    return time.perf_counter() - start


def canonical_hash(payload) -> str:
    raw = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(raw.encode(), digest_size=8).hexdigest()


def fingerprint() -> dict:
    """The machine and software a record was measured on."""
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (``statistics.quantiles``, n=100)."""
    return statistics.quantiles(values, n=100)[q - 1]


def counter_snapshot(counters) -> dict:
    return {
        stage: (counters.seconds[stage], counters.calls.get(stage, 0))
        for stage in counters.seconds
    }


def counter_delta(before: dict, counters) -> dict:
    after = counter_snapshot(counters)
    return {
        stage: (secs - before.get(stage, (0.0, 0))[0],
                calls - before.get(stage, (0.0, 0))[1])
        for stage, (secs, calls) in after.items()
    }


class Tally:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(what)


def run_op(workload, i: int, tally: Tally, before=None, after=None):
    """Prepare, time and check op ``i``; (seconds, queries, result) or None."""
    tally.attempted += 1
    try:
        workload.prepare(i)
        if before is not None:
            before(i)
        start = time.perf_counter()
        result = workload.op(i)
        elapsed = time.perf_counter() - start
        if after is not None:
            after(i, start, start + elapsed, result)
        queries = workload.check(i, result)
    except Exception as error:  # noqa: BLE001 - a failed op is counted
        tally.fail(f"op {i}: {type(error).__name__}: {error}")
        return None
    return elapsed, queries, result


def run_gates(workload, tally: Tally) -> list[dict]:
    gates = []
    try:
        results = workload.gates()
    except Exception as error:  # noqa: BLE001 - a crashed gate fails
        results = [("gates", False, f"{type(error).__name__}: {error}")]
    for name, ok, detail in results:
        tally.attempted += 1
        if not ok:
            tally.fail(f"gate {name}: {detail}")
        gates.append({"name": name, "ok": bool(ok)})
    return gates


def setup_samples(args, tally: Tally) -> list[float]:
    """Set-up times of fresh processes (the first sample is this one's)."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        tally.attempted += 1
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
        if proc.returncode != 0:
            tally.fail(f"set-up process failed: {proc.stderr[-500:]}")
            continue
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def timed_run(workload, args, setup_s: float, tally: Tally) -> tuple[dict, dict]:
    import numpy as np

    cal_rng = np.random.default_rng(0)
    cal: dict[int, float] = {}

    def before(i):
        cal[i] = calibration_s(cal_rng)

    def after(i, start, end, result):
        cal[i] = (cal[i] + calibration_s(cal_rng)) / 2

    latencies: list[float] = []
    queries: list[int] = []
    scales: list[float] = []
    window = time.perf_counter()
    i = 0
    while True:
        spent = time.perf_counter() - window
        if spent >= args.seconds and len(latencies) >= workload.min_ops:
            break
        if spent >= max(args.seconds, MAX_WINDOW_S):
            break
        outcome = run_op(workload, i, tally, before, after)
        if outcome is not None:
            latencies.append(outcome[0])
            queries.append(outcome[1])
            scales.append(CAL_REF_S / cal[i])
        i += 1
    peak_rss = workload.peak_rss_mb()
    gates_start = time.perf_counter()
    gates = run_gates(workload, tally)
    gates_s = time.perf_counter() - gates_start
    workload.close()
    setups = [setup_s] + setup_samples(args, tally)
    if len(latencies) < 2:
        raise SystemExit("too few successful ops to report latency")
    ref = [t * k for t, k in zip(latencies, scales)]
    metrics = {
        "setup_s": statistics.median(setups),
        "queries_per_ref_s": sum(queries) / sum(ref),
        "op_p50_ref_s": statistics.median(ref),
        "op_p90_ref_s": percentile(ref, 90),
        "peak_rss_mb": peak_rss,
    }
    extra = {
        "host": {
            "queries_per_s": sum(queries) / sum(latencies),
            "op_p50_s": statistics.median(latencies),
            "op_p90_s": percentile(latencies, 90),
        },
        "ops": len(latencies),
        "window_s": time.perf_counter() - window,
        "setup_samples_s": setups,
        "gates_s": gates_s,
        "latencies_s": [round(x, 7) for x in latencies],
        "scales": [round(x, 5) for x in scales],
        "gates": gates,
    }
    return metrics, extra


def traced_run(workload, args, tally: Tally) -> tuple[dict, dict]:
    from tracing import SpanRecorder, self_times, with_parents

    recorder = SpanRecorder()
    workload.trace_targets(recorder)
    counters = workload.counters()
    for layer, instance in counters.items():
        recorder.counter_layers[id(instance)] = layer
    snapshots: dict = {}

    def before(i):
        snapshots.clear()
        for layer, instance in counters.items():
            snapshots[layer] = counter_snapshot(instance)
        if i % 2:
            recorder.install(i)

    def after(i, start, end, result):
        if i % 2:
            recorder.uninstall()
            recorder.add_span("op", start, end)
            workload.after_traced_op(recorder, result)

    sums = {"traced": [0.0, 0], "untraced": [0.0, 0]}
    figures: list[dict] = []
    decompositions: list[dict] = []
    labels: dict = {}
    self_time: dict[str, float] = {}
    span_records: list[dict] = []
    window = time.perf_counter()
    i = 0
    while True:
        spent = time.perf_counter() - window
        if spent >= args.seconds and i >= TRACE_MIN_OPS:
            break
        if spent >= max(args.seconds, MAX_WINDOW_S):
            break
        outcome = run_op(workload, i, tally, before, after)
        recorder.uninstall()  # also when the op raised
        if outcome is not None:
            elapsed, n_queries, result = outcome
            side = sums["traced" if i % 2 else "untraced"]
            side[0] += elapsed
            side[1] += n_queries
            if i % 2:
                deltas = {
                    layer: counter_delta(snapshots[layer], instance)
                    for layer, instance in counters.items()
                }
                spans = recorder.op_spans(i)
                split = workload.decompose(elapsed, spans, deltas, result)
                figs = dict(split["figures"])
                labels.update(figs.pop("labels", {}))
                figs["trace.op_s"] = elapsed
                figures.append(figs)
                decompositions.append({
                    "op": i,
                    "op_s": elapsed,
                    "parts": {p: figs[p] for p in split["parts"]},
                    "unattributed": figs[split["unattributed"]],
                    "overlap": figs.get("serve.overlap_s", 0.0),
                })
                records = with_parents(spans)
                span_records.extend(records)
                for name, secs in self_times(records).items():
                    self_time[name] = self_time.get(name, 0.0) + secs
        i += 1
    gates = run_gates(workload, tally)
    workload.close()
    if not figures or not sums["untraced"][1]:
        raise SystemExit("too few successful ops to report per-layer figures")

    n = len(figures)
    metrics = {name: 0.0 for name in PER_LAYER}
    for figs in figures:
        for name, value in figs.items():
            if name in metrics:
                metrics[name] += value / n
    enc_busy = metrics["mac.security.ccmp.encrypt.busy_s"]
    metrics["mac.security.ccmp.encrypt.bytes_per_s"] = (
        metrics["mac.security.ccmp.encrypt.bytes"] / enc_busy if enc_busy else 0.0
    )
    traced_qps = sums["traced"][1] / sums["traced"][0]
    untraced_qps = sums["untraced"][1] / sums["untraced"][0]
    metrics["trace.traced_queries_per_s"] = traced_qps
    metrics["trace.untraced_queries_per_s"] = untraced_qps
    metrics["trace.overhead"] = traced_qps / untraced_qps

    mean_parts: dict[str, float] = {}
    for d in decompositions:
        for part, secs in d["parts"].items():
            mean_parts[part] = mean_parts.get(part, 0.0) + secs / n
    mean_unattr = sum(d["unattributed"] for d in decompositions) / n
    mean_overlap = sum(d["overlap"] for d in decompositions) / n
    extra = {
        "traced_ops": n,
        "untraced_ops": i - n,
        "labels": labels,
        "missing_targets": sorted(recorder.missing),
        "breakdown": {
            "op_s": metrics["trace.op_s"],
            "parts_s": mean_parts,
            "overlap_s": mean_overlap,
            "unattributed_s": mean_unattr,
            "parts_minus_overlap_plus_unattributed_s":
                sum(mean_parts.values()) - mean_overlap + mean_unattr,
        },
        "self_time_s": {k: v / n for k, v in sorted(self_time.items())},
        "gates": gates,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as out:
        json.dump({"summary": extra, "spans": span_records}, out)
    extra["spans_file"] = os.path.relpath(path, ROOT)
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}/repro; run from a full "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    try:
        workload.setup()
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            workload.close()
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            metrics, extra = traced_run(workload, args, tally)
            units = PER_LAYER
        else:
            metrics, extra = timed_run(workload, args, setup_s, tally)
            units = END_TO_END
    except BaseException:
        workload.close()
        raise

    config = workload.config() | {
        "seconds": args.seconds,
        "trace": args.trace,
        "harness": {"min_ops": workload.min_ops, "setup_samples": SETUP_SAMPLES},
    }
    machine = fingerprint()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "config": config,
        "config_hash": canonical_hash(config),
        "fingerprint": machine,
        "fingerprint_hash": canonical_hash(machine),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "metrics": metrics,
        **extra,
    }
    for problem in tally.problems:
        print(f"FAILED {problem}")
    for name, value in metrics.items():
        print(f"{args.workload:16s} {name:40s} {value:14.6g} {units[name]}")
    for name, value in extra.get("host", {}).items():
        unit = "1/s" if name.startswith("queries") else "s"  # host clock
        print(f"{args.workload:16s} {'host.' + name:40s} {value:14.6g} {unit}")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
