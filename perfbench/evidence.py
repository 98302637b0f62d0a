#!/usr/bin/env python3
"""Runs every workload of BENCHMARK.json at seeds 1..10, twice, and
records for each end-to-end metric the median, the quartiles and the
spread (quartile distance over median, as statistics.quantiles(values,
n=4) gives them) of each set, and how far the second set's median moved
from the first's. The timings as measured, before the speed meter's
scaling, and the host's slowness are recorded the same way.

    python3 perfbench/evidence.py --traced --out perfbench/results

Run from the repository root. Within a set, round r runs every workload
once at seed r, so slow and fast phases of the host fall on all
workloads alike; the second set starts when the first has ended. With
--traced, one traced run per workload at seed 1 follows, and its
per-layer metrics and span table are kept too.
"""
import argparse
import json
import pathlib
import re
import statistics
import subprocess
import sys
import time

SEEDS = range(1, 11)
SETS = 2


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1], time.time() - start


AS_MEASURED = re.compile(r"as measured: latency_ms.p50 (\S+), latency_ms.p90 (\S+), throughput (\S+) plans/s; host slowness (\S+) ")


def as_measured(human):
    """The report lines' timings before scaling: p50, p90, throughput,
    the host's slowness and the median set-up."""
    out = {}
    for line in human:
        m = AS_MEASURED.match(line)
        if m:
            out.update(zip(["latency_ms.p50", "latency_ms.p90", "throughput", "slowness"], map(float, m.groups())))
        if line.startswith("setup_s samples as measured ["):
            out["setup_s"] = statistics.median(float(x) for x in line.split("[")[1].rstrip("]").split())
    return out


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--traced", action="store_true", help="also make one traced run per workload")
    ap.add_argument("--out", help="directory to write runs.json/runs.md (and layers.json/layers.md)")
    args = ap.parse_args()
    bench = json.loads(pathlib.Path("BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]

    raw = [{w: [] for w in workloads} for _ in range(SETS)]
    for k in range(SETS):
        for seed in SEEDS:
            for w in workloads:
                res, human, took = run(w, seed, seconds, 0)
                raw[k][w].append({"seed": seed, "wall_s": took, "as_measured": as_measured(human), **res})
                print(f"set {k + 1} {w} seed {seed}: {took:.1f}s attempted={res['attempted']} " + " ".join(
                    f"{n}={v['value']:.6g}" for n, v in sorted(res["metrics"].items())), flush=True)

    summary = {}
    lines = [f"# {len(SEEDS)} interleaved runs per workload, two sets, run_seconds={seconds}", "",
             "Spread: (q3 - q1) / median over one set's ten seeds. Moved: the second set's median",
             "over the first's, minus 1, signed so that positive is worse. The benchmark holds",
             "when every spread but setup_s's is within its bound and no metric moved by more.", "",
             "| workload | metric | set | median | q1 | q3 | spread | moved | bound |",
             "|---|---|---|---|---|---|---|---|---|"]
    for w in workloads:
        summary[w] = {}
        for name, spec in metrics.items():
            sets = [summarize([r["metrics"][name]["value"] for r in raw[k][w]]) for k in range(SETS)]
            moved = sets[1]["median"] / sets[0]["median"] - 1
            if spec["better"] == "higher":
                moved = -moved
            summary[w][name] = {"sets": sets, "moved": moved, "bound": spec["bound"]}
            for k, s in enumerate(sets):
                mv = f"{moved:+.4f}" if k == SETS - 1 else ""
                lines.append(f"| {w} | {name} | {k + 1} | {s['median']:.6g} | {s['q1']:.6g} | {s['q3']:.6g} | "
                             f"{s['spread']:.4f} | {mv} | {spec['bound']} |")
    lines += ["", "## As measured", "",
              "The same runs' timings before the speed meter's scaling, and the host's slowness",
              "(median calibration unit time over 1 ms) they were divided by.", "",
              "| workload | figure | set | median | q1 | q3 | spread |", "|---|---|---|---|---|---|---|"]
    for w in workloads:
        for name in ["latency_ms.p50", "latency_ms.p90", "throughput", "setup_s", "slowness"]:
            for k in range(SETS):
                st = summarize([r["as_measured"][name] for r in raw[k][w]])
                lines.append(f"| {w} | {name} | {k + 1} | {st['median']:.6g} | {st['q1']:.6g} | {st['q3']:.6g} | {st['spread']:.4f} |")
    lines += ["", "## Work and quality per seed", "",
              "Requests or plans each run completed, and its makespan_cycles, set 1.", "",
              "| workload | " + " | ".join(f"seed {s}" for s in SEEDS) + " |",
              "|---|" + "---|" * len(SEEDS)]
    for w in workloads:
        lines.append(f"| {w} attempted | " + " | ".join(str(r["attempted"]) for r in raw[0][w]) + " |")
        lines.append(f"| {w} makespan_cycles | " + " | ".join(
            f"{r['metrics']['makespan_cycles']['value']:.0f}" for r in raw[0][w]) + " |")
    table = "\n".join(lines) + "\n"
    print(table)

    layers = {}
    if args.traced:
        for w in workloads:
            res, human, took = run(w, SEEDS[0], seconds, 1)
            layers[w] = {"seed": SEEDS[0], "wall_s": took, "metrics": res["metrics"], "report": human}
            print("\n".join(human))

    if args.out:
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "runs.json").write_text(json.dumps({"run_seconds": seconds, "summary": summary, "runs": raw}, indent=2) + "\n")
        (out / "runs.md").write_text(table)
        if layers:
            (out / "layers.json").write_text(json.dumps(layers, indent=2) + "\n")
            (out / "layers.md").write_text(layers_md(layers, seconds))


def layers_md(layers, seconds):
    """Where the time goes: each workload's per-layer metrics, then the
    span table (count, mean duration, mean self time) of its traced run."""
    lines = ["# Where the time goes", "",
             f"One traced run per workload, run_seconds={seconds}.", "",
             "Tracing overhead: 0 by construction. No span is recorded while the run is timed;",
             "the spans are built afterwards from the timestamps an untraced run takes too,",
             "and the in-process replay that times parse, build, validate and encode runs after",
             "the timed phase.", ""]
    for w, d in layers.items():
        lines += [f"## {w} (seed {d['seed']})", "", "| metric | value | unit |", "|---|---|---|"]
        for name, m in d["metrics"].items():
            lines.append(f"| {name} | {m['value']:.6g} | {m['unit']} |")
        spans = d["report"][:len(d["report"]) - len(d["metrics"])]
        lines += ["", "```"] + spans + ["```", ""]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    main()
