#!/usr/bin/env python3
"""Compares two sets of bench_workload result files.

    python3 bench/workload/compare.py --base A1.json A2.json ... \\
                                      --new B1.json B2.json ...

Each file is one result written by `bench_workload --out` (run.py keeps
them under .bench_build/workload/results/). For every workload and metric
the table shows each side's median and quartiles, the spread (quartile
distance over the median) and the change of the medians. End-to-end
metrics also get a verdict, using the bounds in BENCHMARK.json:

  regressed   the new median is worse than the base median by more than
              the bound;
  improved    the new side wins at least 9 of every 10 pairs (paired by
              seed where the seeds match, else in order; ties count for
              neither) and the medians differ by more than the base
              quartile distance;
  unresolved  a side's spread exceeds the bound, unless every new run is
              better than every base run (improved) or worse than every
              base run (regressed);
  unchanged   otherwise.

Failed operations (the files' top-level `failed` over `attempted`) have an
absolute bound: a workload whose new side failed a larger share of its
operations than the base regressed, and none of its metrics can be
`improved` — an operation that gives up early flatters latency and
throughput.

Exits 1 if any metric regressed.
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SPEC = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                            "BENCHMARK.json")


def load(paths):
    """({workload: [(seed, {metric: value})]} in file order,
    {workload: [attempted, failed]} summed over the files)."""
    runs = defaultdict(list)
    ops = defaultdict(lambda: [0, 0])
    for path in paths:
        with open(path) as f:
            r = json.load(f)
        if not r.get("correct", False):
            print(f"warning: {path} failed its correctness checks",
                  file=sys.stderr)
        values = {k: v["value"] for k, v in r["metrics"].items()}
        runs[r["workload"]].append((r.get("seed"), values))
        ops[r["workload"]][0] += r["attempted"]
        ops[r["workload"]][1] += r["failed"]
    return runs, ops


def failed_frac(ops):
    attempted, failed = ops
    return failed / attempted if attempted else 0.0


def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def spread(q):
    q1, med, q3 = q
    return (q3 - q1) / med if med else 0.0


def pairs(base, new, metric):
    """Paired (base, new) values: by seed when both sides share the seeds."""
    bs = {s: v[metric] for s, v in base if metric in v}
    ns = {s: v[metric] for s, v in new if metric in v}
    if set(bs) == set(ns) and None not in bs:
        return [(bs[s], ns[s]) for s in sorted(bs)]
    bl = [v[metric] for _, v in base if metric in v]
    nl = [v[metric] for _, v in new if metric in v]
    return list(zip(bl, nl))


def verdict(spec, b, n, pb, pn):
    sign = 1 if spec["better"] == "lower" else -1
    bound = spec["bound"]
    worse_by = sign * (pn[1] - pb[1]) / pb[1] if pb[1] else 0.0
    all_better = max(sign * x for x in n) < min(sign * x for x in b)
    all_worse = min(sign * x for x in n) > max(sign * x for x in b)
    if spread(pb) > bound or spread(pn) > bound:
        if all_better:
            return "improved"
        if all_worse:
            return "regressed"
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    return None


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    ap.add_argument("--spec", default=DEFAULT_SPEC)
    args = ap.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    (base, base_ops), (new, new_ops) = load(args.base), load(args.new)

    header = (f"{'workload':14} {'metric':32} {'base q1/med/q3':>30} "
              f"{'spr%':>6} {'new q1/med/q3':>30} {'spr%':>6} "
              f"{'chg%':>7}  verdict")
    print(header)
    regressed = False
    for w in [w for w in base if w in new]:
        fb, fn = failed_frac(base_ops[w]), failed_frac(new_ops[w])
        more_failed = fn > fb
        regressed |= more_failed
        print(f"{w:14} {'failed_frac':32} {fb:>30.4g} {'':6} {fn:>30.4g} "
              f"{'':6} {'':7}  {'regressed' if more_failed else 'unchanged'}")
        for name in list(e2e) + list(layer):
            b = [v[name] for _, v in base[w] if name in v]
            n = [v[name] for _, v in new[w] if name in v]
            if not b or not n:
                continue
            pb, pn = quartiles(b), quartiles(n)
            chg = (pn[1] - pb[1]) / pb[1] * 100 if pb[1] else 0.0
            result = "-"
            if name in e2e:
                result = verdict(e2e[name], b, n, pb, pn)
                if result == "improved" and more_failed:
                    result = "unresolved"
                if result is None:
                    ps = pairs(base[w], new[w], name)
                    sign = 1 if e2e[name]["better"] == "lower" else -1
                    wins = sum(1 for x, y in ps if sign * y < sign * x)
                    if (ps and wins >= 0.9 * len(ps) and not more_failed and
                            abs(pn[1] - pb[1]) > pb[2] - pb[0]):
                        result = f"improved ({wins}/{len(ps)} pairs)"
                    else:
                        result = f"unchanged ({wins}/{len(ps)} pairs won)"
                regressed |= result == "regressed"
            fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
            print(f"{w:14} {name:32} {fmt(pb):>30} {spread(pb) * 100:6.2f} "
                  f"{fmt(pn):>30} {spread(pn) * 100:6.2f} {chg:7.2f}  "
                  f"{result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
