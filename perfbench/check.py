#!/usr/bin/env python3
"""Steadiness and determinism checks for the lifelong-loop benchmark.

Run from the root of an lpat checkout:

    python3 perfbench/check.py spread [--workloads lifelong,exec,daemon]
        [--seeds 1-10] [--seconds N] [--out FILE]
    python3 perfbench/check.py compare FIRST.json SECOND.json
    python3 perfbench/check.py determinism [--workloads ...] [--seconds N]

`spread` runs every workload once per seed (untraced) and reports, per
end-to-end metric, the median and the interquartile range as a share of
the median (Python's statistics.quantiles, n=4), flagging any spread over
a third of the metric's bound in BENCHMARK.json. With --out it writes the
summary — host fingerprint, seeds, sample counts, medians and spreads —
as JSON. `compare` checks that no median in SECOND is worse than in FIRST
by more than the metric's bound. `determinism` runs each workload twice
on one seed and once on another and checks that the per-program counts
(bytecode bytes, IR instructions, guest and per-tier instructions) repeat
exactly, that the same seed repeats its draw, and that another seed
draws differently but validly.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace=0):
    """One benchmark run: (result line, run record)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True)
    result = json.loads(p.stdout.decode().strip().splitlines()[-1])
    tag = f"{workload}-seed{seed}-trace{trace}.json"
    with open(os.path.join(ROOT, ".bench_out", "runs", tag)) as f:
        record = json.load(f)
    return result, record


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def cmd_spread(args):
    spec = bench_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    seeds = seed_list(args.seeds)
    summary = {"schema": "lpat-perfbench-spread/v1", "seconds": seconds, "seeds": seeds,
               "workloads": {}}
    steady = True
    for w in workloads:
        values, samples, host = {}, [], None
        for s in seeds:
            result, record = run_once(w, s, seconds)
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {s}: incorrect ({result['failed']} failed)")
                steady = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            samples.append({"seed": s, "attempted": result["attempted"], **record["samples"],
                            "tail": record["tail"], "steal_share": record["host"]["steal_share"]})
            host = record["host"]
        rows = {}
        print(f"\n{w}: {len(seeds)} seeds x {seconds} s")
        for name, vs in values.items():
            med, sp = spread(vs)
            bound = bounds[name]["bound"]
            flag = "" if sp < bound / 3 else "  <-- over bound/3"
            if flag:
                steady = False
            print(f"  {name:22s} median {med:14.6g}  spread {sp:7.4f}  bound {bound}{flag}")
            rows[name] = {"median": med, "spread": sp, "unit": bounds[name]["unit"], "values": vs}
        summary["workloads"][w] = {"host": host, "runs": samples, "metrics": rows}
        for key in ("scale", "repeat", "daemon"):
            if key in record:
                summary["workloads"][w][key] = record[key]
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


def cmd_compare(args):
    spec = bench_spec()
    better = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    with open(args.first) as f:
        a = json.load(f)["workloads"]
    with open(args.second) as f:
        b = json.load(f)["workloads"]
    ok = True
    for w in sorted(set(a) & set(b)):
        for name, (direction, bound) in better.items():
            m1, m2 = a[w]["metrics"][name]["median"], b[w]["metrics"][name]["median"]
            change = (m2 - m1) / m1 if direction == "lower" else (m1 - m2) / m1
            flag = "  <-- worse by more than the bound" if change > bound else ""
            ok &= not flag
            print(f"{w:9s} {name:22s} {m1:14.6g} -> {m2:14.6g}  worse by {change:+.4f}{flag}")
    print("agree" if ok else "DISAGREE")
    return 0 if ok else 1


def cmd_determinism(args):
    spec = bench_spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    ok = True
    for w in workloads:
        runs = [run_once(w, s, args.seconds) for s in (args.seed, args.seed, args.seed + 1)]
        (r1, a), (r2, b), (r3, c) = runs
        checks = {
            "all three runs correct": all(r["correct"] and r["failed"] == 0 for r, _ in runs),
            "no count changed within a run": all(rec["count_mismatches"] == 0 for _, rec in runs),
            "same seed, same counts": a["counts"] == b["counts"],
            "same seed, same draw": a["draws"] == b["draws"],
            "other seed, other draw": a["draws"] != c["draws"],
            "other seed, same per-program counts": a["counts"] == c["counts"],
        }
        for what, good in checks.items():
            print(f"{w:9s} {what:38s} {'ok' if good else 'FAILED'}")
            ok &= good
        totals = {}
        for counts in a["counts"].values():
            for k, v in counts.items():
                totals[k] = totals.get(k, 0) + v
        print(f"{w:9s} totals {json.dumps(totals, sort_keys=True)}")
    print("deterministic" if ok else "NOT deterministic")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--workloads")
    s.add_argument("--seeds", default="1-10")
    s.add_argument("--seconds", type=int)
    s.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    d = sub.add_parser("determinism")
    d.add_argument("--workloads")
    d.add_argument("--seed", type=int, default=1)
    d.add_argument("--seconds", type=int, default=4)
    args = ap.parse_args()
    return {"spread": cmd_spread, "compare": cmd_compare, "determinism": cmd_determinism}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
