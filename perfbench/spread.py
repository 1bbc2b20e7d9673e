#!/usr/bin/env python3
"""Run the benchmark over several seeds and judge its steadiness.

Run from the repository root:

  python3 perfbench/spread.py --workloads mvm-cold,fleet-route --seeds 1-10
  python3 perfbench/spread.py --workloads mvm-cold --seeds 1-10 --save a.json
  python3 perfbench/spread.py --compare a.json b.json
  python3 perfbench/spread.py --workloads mvm-cold --seeds 1-5 --inject 0,0.05,0.1
  python3 perfbench/spread.py --determinism --seeds 7 --seconds 3

For each workload and end-to-end metric it prints the median over the
seeds, the quartile spread (Q3 - Q1) / median with
statistics.quantiles(n=4), the metric's bound from BENCHMARK.json, and
whether the spread is under a third of the bound ("steady"). --compare
reports how far the second set's medians moved from the first's, against
the bounds. --inject stretches every op by each fraction and reports
which slowdowns the op-time bounds flag against the unstretched runs.
--determinism runs every workload twice at one seed and fails unless the
simulated metrics and the dram/mem/isr counts repeat exactly.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seeds_of(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run_once(spec, workload, seed, seconds, trace=0, inject=0.0):
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", str(trace)]
    if inject:
        cmd += ["--inject-slowdown", str(inject)]
    t0 = time.time()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.time() - t0
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run\n{p.stderr}")
    return res, wall


def collect(spec, workloads, seeds, seconds, inject=0.0):
    data = {}
    for w in workloads:
        per = {}
        walls = []
        for s in seeds:
            res, wall = run_once(spec, w, s, seconds, inject=inject)
            walls.append(wall)
            for name, m in res["metrics"].items():
                per.setdefault(name, []).append(m["value"])
        data[w] = {"metrics": per, "walls": walls}
        print(f"# {w}: {len(seeds)} runs, wall median {statistics.median(walls):.1f}s, max {max(walls):.1f}s",
              file=sys.stderr)
    return data


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / abs(med) if med else 0.0


def report(spec, data):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for w, d in data.items():
        print(f"{w}  (wall median {statistics.median(d['walls']):.1f}s)")
        for name, bound in bounds.items():
            med, sp = spread(d["metrics"][name])
            verdict = "steady" if sp <= bound / 3 else ("within" if sp <= bound else "NOISY")
            if name != "setup_s" and verdict != "steady":
                ok = False
            print(f"  {name:20s} median {med:14.6g}  spread {sp:7.4f}  bound {bound:5.3f}  {verdict}")
    return ok


def compare(spec, a, b):
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for w in a:
        print(w)
        for name, bound in bounds.items():
            m1 = statistics.median(a[w]["metrics"][name])
            m2 = statistics.median(b[w]["metrics"][name])
            worse = (m2 - m1) / m1 if better[name] == "lower" else (m1 - m2) / m1
            flag = "REGRESSED" if worse > bound else "ok"
            ok = ok and flag == "ok"
            print(f"  {name:20s} {m1:14.6g} -> {m2:14.6g}  worse by {worse:+.4f}  bound {bound:5.3f}  {flag}")
    return ok


def inject(spec, workload, seeds, seconds, levels):
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    gated = [n for n in ("op_p50_ms", "requests_per_s") if n in bounds]
    base = collect(spec, [workload], seeds, seconds)[workload]["metrics"]
    flagged = None
    for level in levels:
        got = collect(spec, [workload], seeds, seconds, inject=level)[workload]["metrics"]
        hits = []
        for name in gated:
            bound, better = bounds[name]
            m1, m2 = statistics.median(base[name]), statistics.median(got[name])
            worse = (m2 - m1) / m1 if better == "lower" else (m1 - m2) / m1
            hits.append(f"{name} worse by {worse:+.4f} ({'FLAGGED' if worse > bound else 'passes'})")
            if worse > bound and flagged is None:
                flagged = level
        print(f"inject {level:.3f}: " + "; ".join(hits))
    print(f"smallest injected slowdown flagged: {flagged}")


SIMULATED = ("sim_cycles_per_op", "sim_req_p99_cycles", "cluster.shed_frac", "cluster.mean_batch")


def determinism(spec, workloads, seed, seconds):
    """Run each workload twice at one seed, traced and untraced, and
    require every simulated metric and count to repeat exactly."""
    ok = True
    for w in workloads:
        for trace in (0, 1):
            a, _ = run_once(spec, w, seed, seconds, trace=trace)
            b, _ = run_once(spec, w, seed, seconds, trace=trace)
            names = [n for n in a["metrics"]
                     if n in SIMULATED
                     or (n.split(".")[0] in ("dram", "mem", "isr") and not n.endswith("_ms"))]
            diff = [n for n in names if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
            ok = ok and not diff
            print(f"{w} trace {trace}: {len(names)} simulated metrics, "
                  + (f"DIFFER: {', '.join(diff)}" if diff else "identical"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in load_spec()["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--save", help="write the collected values to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two saved sets")
    ap.add_argument("--inject", help="comma-separated slowdown fractions to inject into the first workload")
    ap.add_argument("--determinism", action="store_true",
                    help="run each workload twice at the first seed and compare simulated metrics")
    args = ap.parse_args()
    spec = load_spec()
    if args.compare:
        with open(args.compare[0]) as f, open(args.compare[1]) as g:
            sys.exit(0 if compare(spec, json.load(f), json.load(g)) else 1)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",")
    seeds = seeds_of(args.seeds)
    if args.determinism:
        sys.exit(0 if determinism(spec, workloads, seeds[0], seconds) else 1)
    if args.inject:
        inject(spec, workloads[0], seeds, seconds, [float(x) for x in args.inject.split(",")])
        return
    data = collect(spec, workloads, seeds, seconds)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(data, f)
    sys.exit(0 if report(spec, data) else 1)


if __name__ == "__main__":
    main()
