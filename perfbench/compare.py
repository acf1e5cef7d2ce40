#!/usr/bin/env python3
"""Compare two sets of benchmark runs offline (standard library only).

    python3 perfbench/compare.py BASE HEAD

BASE and HEAD are each a directory of files, or a list of files separated by
commas, where every file is the captured standard output of one run of
`perfbench/run.py` (its last line is the JSON result, its "== <workload>:"
line names the workload). Runs of the two sets are paired by seed.

For every (workload, metric) it prints each side's median and quartiles,
the ratio of the medians, the share of seed pairs the head wins, and a
verdict by the rule of the choosing-metrics method:

  gain        head wins at least 9 in 10 pairs (ties count for neither) and
              its median is better than base's by more than the base's
              interquartile range
  unresolved  base's interquartile range, as a share of its median, is wider
              than the metric's bound from BENCHMARK.json, and not every
              head run is better than every base run
  worse       base's spread is within the bound, and head's median is worse
              than base's by more than the bound
  same        none of the above: no worse than the bound allows

Directions and bounds come from BENCHMARK.json next to this directory.
"""

import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    better, bound = {}, {}
    for m in spec["end_to_end"]:
        better[m["name"]] = m["better"]
        bound[m["name"]] = m["bound"]
    for m in spec["per_layer"]:
        better[m["name"]] = m["better"]
    return better, bound


def run_files(arg):
    if os.path.isdir(arg):
        return sorted(os.path.join(arg, f) for f in os.listdir(arg))
    return [f for f in arg.split(",") if f]


def parse_run(path):
    """Returns (seed, {workload: {metric: value}}) for one run's output."""
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    result = json.loads(lines[-1])
    workloads = [m.group(1) for l in lines if (m := re.match(r"== (\S+):", l))]
    seed = next((m.group(1) for l in lines if (m := re.search(r"\bseed (\d+)", l))), path)
    out = {}
    for key, mv in result["metrics"].items():
        if len(workloads) == 1:
            w, name = workloads[0], key
        else:
            w, name = key.split(".", 1)
        out.setdefault(w, {})[name] = mv["value"]
    return seed, out


def load_set(arg):
    runs = {}
    for path in run_files(arg):
        seed, per = parse_run(path)
        for w, metrics in per.items():
            runs.setdefault(w, {})[seed] = metrics
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


def verdict(base, head, pairs, better, bound):
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    if pairs and win_frac >= 0.9 and sign * (hm - bm) > (b3 - b1):
        return "gain", win_frac
    if bound is None or bm == 0:
        return "same", win_frac
    if (b3 - b1) / abs(bm) > bound:
        all_better = all(sign * (h - b) > 0 for h in head for b in base)
        return ("same" if all_better else "unresolved"), win_frac
    if sign * (hm - bm) < -bound * abs(bm):
        return "worse", win_frac
    return "same", win_frac


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    better, bound = load_spec()
    base, head = load_set(argv[1]), load_set(argv[2])
    print(f"{'workload':8} {'metric':38} {'base q1/med/q3':>30} {'head q1/med/q3':>30} "
          f"{'head/base':>9} {'wins':>5}  verdict")
    worse = 0
    for w in sorted(set(base) & set(head)):
        metrics = sorted(set().union(*base[w].values()) & set().union(*head[w].values()))
        for name in metrics:
            b = [r[name] for r in base[w].values() if name in r]
            h = [r[name] for r in head[w].values() if name in r]
            pairs = [(base[w][s][name], head[w][s][name])
                     for s in base[w] if s in head[w] and name in base[w][s] and name in head[w][s]]
            v, win_frac = verdict(b, h, pairs, better.get(name, "higher"), bound.get(name))
            worse += v == "worse"
            bq, hq = quartiles(b), quartiles(h)
            ratio = hq[1] / bq[1] if bq[1] else float("nan")
            print(f"{w:8} {name:38} {'%.4g/%.4g/%.4g' % bq:>30} {'%.4g/%.4g/%.4g' % hq:>30} "
                  f"{ratio:9.3f} {win_frac:5.2f}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
