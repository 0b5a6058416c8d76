"""Run the benchmark several times per workload and summarise its spread.

    python3 perfbench/steadiness.py --runs 10 --out perfbench/out/set1.json
    python3 perfbench/steadiness.py --runs 10 --out perfbench/out/set2.json \\
        --compare perfbench/out/set1.json

Each run is ``run.py`` with another ``--seed`` (1, 2, ...); seeds are
interleaved across workloads so that slow drift of the machine hits
every workload alike.  For every end-to-end metric the summary holds the
ten values, their median and quartiles (``statistics.quantiles(n=4)``)
and the spread ``(q3 - q1) / median`` next to the metric's bound from
``BENCHMARK.json``.  Records are grouped by workload, config hash and
machine fingerprint hash, and only groups whose keys match are compared
(``--compare``): a median worse than the other set's by more than the
bound is reported as a regression.  Exits 1 if any run failed, any
spread (except ``setup_s``) exceeds its bound, or a compared median got
worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        return json.load(spec)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One ``run.py`` run; its record plus the result object."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=180,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"workload": workload, "seed": seed, "error": proc.stderr[-2000:]}
    record = json.loads(lines[-2])["record"]
    for samples in ("latencies_s", "scales"):
        record.pop(samples)  # per-op samples; the summary figures stay
    record["result"] = json.loads(lines[-1])
    record["run_wall_s"] = time.perf_counter() - start
    return record


def summarise(records: list[dict], bounds: dict, whys: dict) -> dict:
    groups: dict[tuple, list[dict]] = {}
    for record in records:
        if "error" in record:
            continue
        key = (record["workload"], record["config_hash"], record["fingerprint_hash"])
        groups.setdefault(key, []).append(record)
    summary = {}
    for (workload, config_hash, machine_hash), group in sorted(groups.items()):
        metrics = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in group]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            metrics[name] = {
                "values": values,
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "bound": bound,
                "within_third_of_bound": spread < bound / 3,
            }
        summary[f"{workload}/{config_hash}/{machine_hash}"] = {
            "workload": workload,
            "why": whys.get(workload, ""),
            "config_hash": config_hash,
            "fingerprint_hash": machine_hash,
            "fingerprint": group[0]["fingerprint"],
            "seconds": group[0]["config"]["seconds"],
            "runs": len(group),
            "seeds": [r["seed"] for r in group],
            "ops": [r["ops"] for r in group],
            "run_wall_s": [round(r["run_wall_s"], 1) for r in group],
            "failed": sum(r["failed"] for r in group),
            "metrics": metrics,
        }
    return summary


def compare(summary: dict, other: dict, better: dict) -> list[str]:
    """Medians of matching groups that got worse by more than the bound."""
    findings = []
    for key, group in summary.items():
        if key not in other:
            findings.append(f"{key}: no matching group (config or machine differs); not compared")
            continue
        for name, stats in group["metrics"].items():
            base = other[key]["metrics"][name]["median"]
            change = (stats["median"] - base) / base
            worse = change if better[name] == "lower" else -change
            status = "WORSE" if worse > stats["bound"] else "ok"
            findings.append(
                f"{group['workload']:16s} {name:14s} {base:12.6g} -> "
                f"{stats['median']:12.6g} ({change:+.1%}) {status}"
            )
    return findings


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", default=os.path.join(HERE, "out", "steadiness.json"))
    parser.add_argument("--compare", help="an earlier --out file to compare medians with")
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    records = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in workloads:
            record = run_once(workload, seed, args.seconds)
            records.append(record)
            if "error" in record:
                print(f"{workload} seed {seed}: run failed\n{record['error']}")
            else:
                figures = " ".join(
                    f"{k}={v:.6g}" for k, v in record["metrics"].items()
                )
                print(f"{workload} seed {seed}: failed={record['failed']} {figures}", flush=True)

    summary = summarise(records, bounds, whys)
    ok = all("error" not in r and r["failed"] == 0 for r in records)
    print(f"\n{'workload':16s} {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} spread  bound")
    for group in summary.values():
        for name, s in group["metrics"].items():
            flag = "" if s["within_third_of_bound"] else "  (over a third of bound)"
            if name != "setup_s" and s["spread"] > s["bound"]:
                ok = False
                flag = "  OVER BOUND"
            print(f"{group['workload']:16s} {name:14s} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:6.1%} {s['bound']:5.0%}{flag}")
    findings = []
    if args.compare:
        with open(args.compare) as prior:
            other = json.load(prior)["groups"]
        findings = compare(summary, other, better)
        print("\ncompared with", args.compare)
        for line in findings:
            print(line)
            if line.endswith("WORSE"):
                ok = False
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as out:
        compared = os.path.basename(args.compare) if args.compare else None
        json.dump({"groups": summary, "compared_with": compared,
                   "comparison": findings, "records": records}, out, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
