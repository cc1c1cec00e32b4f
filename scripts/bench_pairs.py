#!/usr/bin/env python3
"""Run healbench on two checkouts in alternating pairs and compare them.

    python3 scripts/bench_pairs.py --base DIR --change DIR \\
        --workload aged_open --seeds 601-610 [--seconds 10] [--trace 0]

For each seed, `python3 healbench/run.py` runs once in each checkout; the
side that goes first alternates from seed to seed, so a slow drift of the
host lands on both sides alike. Each checkout builds its own benchmark
under its .bench_build/ on the first call (one untimed warm-up run per
side does that before the pairs start).

Around every run the script reads the host's CPU steal from /proc/stat
(the "steal" column of the aggregate "cpu" line, in jiffies), so a run
that failed or spiked while the hypervisor took the CPU can be told
apart from an engine fault. It prints one line per run, then, per metric,
each side's median and quartiles, the number of pairs the change won
and the number tied ("better" directions come from the change checkout's
BENCHMARK.json; a metric tied in every pair is identical seed by seed).
Runs reporting correct=false are listed at the end with their steal and
the checks healbench reported as failed ("# FAILED CHECK:" lines).

Standard library only; it reads, never writes, healbench/ and
BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def host_steal():
    """Aggregate steal jiffies since boot, or None where unavailable."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except (OSError, ValueError):
        return None


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "healbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    before = host_steal()
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    after = host_steal()
    steal = after - before if before is not None and after is not None else None
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    failed_checks = [ln[len("# FAILED CHECK: "):] for ln in lines
                     if ln.startswith("# FAILED CHECK: ")]
    return {"seed": seed, "exit": proc.returncode, "steal": steal, "result": result,
            "failed_checks": failed_checks}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def directions(checkout):
    try:
        spec = json.loads((Path(checkout) / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["better"] for m in spec.get("end_to_end", [])}


def metric(run, name):
    res = run["result"]
    if res is None or name not in res["metrics"]:
        return None
    return res["metrics"][name]["value"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 601-610 or 1,5,9-12")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    sides = {"base": args.base, "change": args.change}
    for side, checkout in sides.items():
        warm = run_once(checkout, args.workload, 1, 1.0, 0)
        if warm["exit"] != 0:
            print(f"{side}: warm-up run failed (exit {warm['exit']})", file=sys.stderr)
            return 1

    runs = {"base": [], "change": []}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            rec = run_once(sides[side], args.workload, seed, args.seconds, args.trace)
            runs[side].append(rec)
            res = rec["result"]
            status = "failed" if res is None else (
                "correct" if res["correct"] else "INCORRECT")
            print(f"seed {seed:>6} {side:<6} {status:<9} steal {rec['steal']}"
                  f"  rss_mb {metric(rec, 'rss_mb')}  heal_p50_ms "
                  f"{metric(rec, 'heal_p50_ms')}", flush=True)

    better = directions(args.change)
    names = sorted({n for recs in runs.values() for r in recs if r["result"]
                    for n in r["result"]["metrics"]})
    print(f"\n{'metric':<18} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34}  change wins / ties")
    for name in names:
        cols = []
        for side in ("base", "change"):
            vals = [v for v in (metric(r, name) for r in runs[side]) if v is not None]
            if not vals:
                cols.append(f"{'-':>34}")
                continue
            q1, med, q3 = quartiles(vals)
            cols.append(f"{med:>14.6g} [{q1:.6g}, {q3:.6g}]".rjust(34))
        wins = ties = pairs = 0
        for b, c in zip(runs["base"], runs["change"]):
            vb, vc = metric(b, name), metric(c, name)
            if vb is None or vc is None:
                continue
            pairs += 1
            ties += vc == vb
            wins += vc > vb if better.get(name) == "higher" else vc < vb
        print(f"{name:<18} {cols[0]} {cols[1]}  {wins}/{pairs} / {ties}")

    steals = {s: [r["steal"] for r in recs if r["steal"] is not None]
              for s, recs in runs.items()}
    for side, vals in steals.items():
        if vals:
            print(f"{side} steal jiffies: median {statistics.median(vals)}, "
                  f"max {max(vals)}")
    bad = [(s, r) for s, recs in runs.items() for r in recs
           if r["result"] is None or not r["result"]["correct"]]
    for side, r in bad:
        kind = "failed" if r["result"] is None else "correct=false"
        print(f"{kind}: {side} seed {r['seed']} exit {r['exit']} steal {r['steal']}")
        for check in r["failed_checks"]:
            print(f"  failed check: {check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
