#!/usr/bin/env python3
"""Steadiness and determinism harness for the SPECRUN benchmark.

Run from the repository root:

  python3 perfbench/steady.py spread [--workloads W ...] [--seeds N] [--first-seed S]
                                     [--out FILE]
      Runs every workload once per seed with --trace 0 and prints, for each
      end-to-end metric, the median and the spread (interquartile range as a
      share of the median, as statistics.quantiles(n=4) gives it) against the
      metric's bound in BENCHMARK.json. Deterministic metrics must read the
      same on every seed (the work is seed-independent). --out keeps the raw
      values so two sets can be compared.

  python3 perfbench/steady.py compare FIRST SECOND
      Compares two --out files: every metric's second median must not be
      worse than the first by more than its bound.

  python3 perfbench/steady.py determinism [--workloads W ...] [--seed S] [--seconds N]
      Runs each workload twice untraced and twice as a span run with the same
      seed, diffs every deterministic metric bit for bit, and checks that the
      span run's simulated cycles equal the untraced run's. Determinism does
      not depend on run length, so a short --seconds makes a cheap check.

  python3 perfbench/steady.py self-test
      Runs the benchmark's own self-test, which proves every correctness
      check can fail.

Every run goes through the command in BENCHMARK.json; its set-up and run
length come from there too.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

# Per-layer metrics derived from host time, and so not deterministic.
HOST_TIME_RATIOS = {"span.overhead_frac", "core.fork_share"}
HOST_TIME_UNITS = {"ms", "ns", "s", "1/s", "MB"}


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed, trace, seconds=None):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds or bench["run_seconds"]), "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall_s = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result\n{proc.stderr[-2000:]}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["wall_s"] = wall_s
    return values


def deterministic(name, unit):
    return unit not in HOST_TIME_UNITS and name not in HOST_TIME_RATIOS


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def cmd_spread(args):
    bench = load_benchmark()
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    raw = {}
    ok = True
    for workload in workloads:
        runs = [run_once(bench, workload, seed, 0) for seed in seeds]
        raw[workload] = runs
        walls = [r["wall_s"] for r in runs]
        print(f"{workload} ({len(runs)} seeds from {args.first_seed}; "
              f"run wall time median {statistics.median(walls):.1f} s, max {max(walls):.1f} s)")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r[name] for r in runs]
            s = spread(values)
            if deterministic(name, metric["unit"]):
                verdict = "exact" if len(set(values)) == 1 else "DIFFERS"
            elif name == "setup_s":
                verdict = "(not bounded)"
            else:
                verdict = "ok" if s <= bound / 3 else ("within bound" if s <= bound else "TOO NOISY")
            ok &= verdict not in ("DIFFERS", "TOO NOISY")
            print(f"  {name:<18} median {statistics.median(values):<14.6g} "
                  f"spread {s:8.4f}  bound {bound:<8} {verdict}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    return 0 if ok else 1


def cmd_compare(args):
    bench = load_benchmark()
    with open(args.first) as f:
        first = json.load(f)
    with open(args.second) as f:
        second = json.load(f)
    ok = True
    for workload in first:
        print(workload)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = statistics.median(r[name] for r in first[workload])
            b = statistics.median(r[name] for r in second[workload])
            worse = (a - b) / a if metric["better"] == "higher" else (b - a) / a
            verdict = "ok" if worse <= bound else "WORSE THAN BOUND"
            ok &= verdict == "ok"
            print(f"  {name:<18} {a:<14.6g} -> {b:<14.6g} worse by {worse:+.4f}  "
                  f"bound {bound:<8} {verdict}")
    return 0 if ok else 1


def cmd_determinism(args):
    bench = load_benchmark()
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        for trace in (0, 1):
            a = run_once(bench, workload, args.seed, trace, args.seconds)
            b = run_once(bench, workload, args.seed, trace, args.seconds)
            exact = [n for n in units if n in a and deterministic(n, units[n])]
            differ = [n for n in exact if a[n] != b[n]]
            ok &= not differ
            label = "span" if trace else "untraced"
            print(f"{workload} {label}: {len(exact)} deterministic metrics, "
                  f"{'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}")
            if trace:
                # cpu.cycles is the span run's simulated cycles; the run
                # itself also checks them against its untraced pass.
                match = a["cpu.cycles"] == untraced["sim_cycles"] and a["span.sim_cycles_match"] == 1
                ok &= match
                print(f"{workload}: span-run cycles {a['cpu.cycles']:.0f} vs untraced "
                      f"{untraced['sim_cycles']:.0f}: {'identical' if match else 'DIFFER'}")
            else:
                untraced = a
    return 0 if ok else 1


def cmd_self_test(_args):
    bench = load_benchmark()
    # The command ends with the argument separator; the self-test replaces
    # the measuring arguments.
    return subprocess.run(bench["command"] + ["--self-test"]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_spread)
    p = sub.add_parser("compare")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_compare)
    p = sub.add_parser("determinism")
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, help="run length (default: BENCHMARK.json's)")
    p.set_defaults(func=cmd_determinism)
    p = sub.add_parser("self-test")
    p.set_defaults(func=cmd_self_test)
    args = parser.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
