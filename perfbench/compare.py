"""Compare two sets of results written by run.py --out.

    python3 perfbench/compare.py --base A/*.json --new B/*.json
    python3 perfbench/compare.py --base perfbench/baseline.json --new B/*.json

For each workload and metric it prints both sides' median and quartiles
and the change of the median.  It refuses, with exit code 2, to compare
results whose backends, run lengths or trace modes differ: a compiled
kernel build is several times faster than the pure-Python one and would
read as a gain.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict


def load(paths) -> dict:
    """Results by workload; a file holds one result or a list of them."""
    groups = defaultdict(list)
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        for res in data if isinstance(data, list) else [data]:
            groups[res["workload"]].append(res)
    return groups


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def fail_share(results) -> float:
    return sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)

    checks = (
        ("backends", lambda r: r["provenance"]["backend"]),
        ("run lengths", lambda r: r["seconds"]),
        ("trace modes", lambda r: r["trace"]),
    )
    for label, get in checks:
        seen = {get(r) for side in (base, new) for rs in side.values() for r in rs}
        if len(seen) != 1:
            print(f"refusing to compare: results mix {label} {sorted(seen)}", file=sys.stderr)
            return 2

    print(f"{'workload':14} {'metric':40} {'base median [q1, q3]':>32} "
          f"{'new median [q1, q3]':>32} {'change':>8}")
    for workload in sorted(set(base) & set(new)):
        for metric in base[workload][0]["metrics"]:
            b = quartiles([r["metrics"][metric]["value"] for r in base[workload]])
            n = quartiles([r["metrics"][metric]["value"] for r in new[workload]])
            change = (n[1] - b[1]) / b[1] if b[1] else float("nan")
            print(f"{workload:14} {metric:40} "
                  f"{b[1]:12.5g} [{b[0]:8.4g}, {b[2]:8.4g}] "
                  f"{n[1]:12.5g} [{n[0]:8.4g}, {n[2]:8.4g}] {change:+8.1%}")
        print(f"{workload:14} {'failed / attempted':40} "
              f"{fail_share(base[workload]):32.4g} {fail_share(new[workload]):32.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
