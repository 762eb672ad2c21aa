"""How much of an unstratified corpus the series-sweep strata cover.

    python3 bench/corpus.py [--seed N] [--machines M]

Run from the root of a checkout.  It builds the corpus series-sweep was
designed from: M random cyclic machines with k in {3, 5, 7} and at most 8
states, each offering the ops of ``workloads.series_candidates``.  It
times every op once with the program and prints, per pool, the share of
ops and of op time whose size (vector entries stored) lies below, inside
and above that pool's strata in ``workloads.SERIES_POOLS``.  Reference
runs stop at CAP entries; an op that reaches the cap counts as above the
strata and is not timed.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import workloads  # noqa: E402

CAP = 2**22


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--machines", type=int, default=120)
    args = p.parse_args(argv)
    rng = random.Random(f"corpus/{args.seed}")
    rows = []  # (pool, entries or None, seconds or None)
    for _ in range(args.machines):
        offers = workloads.series_candidates(rng, (3, 5, 7)[rng.randrange(3)], CAP)
        for pool in set(workloads.SERIES_POOLS) - {pool for pool, _, _ in offers}:
            rows.append((pool, None, None))
        for pool, entries, item in offers:
            inputs = workloads.Inputs(plan=[(pool, "c", item)])
            for role, m in item.items():
                if isinstance(m, workloads.Machine):
                    workloads._add(inputs, f"c_{role}", m)
            for op in workloads.prepare_series(inputs):
                t0 = time.perf_counter()
                op.call()
                rows.append((pool, entries, time.perf_counter() - t0))

    total = sum(s for _, _, s in rows if s is not None)
    timed = [s for _, _, s in rows if s is not None]
    print(f"corpus: {args.machines} machines, seed {args.seed}, {len(rows)} ops, "
          f"{total:.3f} s of op time, median op {statistics.median(timed) * 1e3:.3f} ms")
    print(f"{'pool':<7} {'strata (entries)':<18} {'ops below/inside/above':<24} time below/inside/above")
    for pool, (lo, hi) in workloads.SERIES_POOLS.items():
        parts = {"below": [], "inside": [], "above": []}
        for _, entries, s in (r for r in rows if r[0] == pool):
            where = "above" if entries is None or entries >= 2**hi else "below" if entries < 2**lo else "inside"
            parts[where].append(s)
        n = sum(len(v) for v in parts.values())
        ops = "/".join(f"{len(v) / n:.0%}" for v in parts.values())
        share = "/".join(f"{sum(s for s in v if s is not None) / total:.1%}" for v in parts.values())
        capped = sum(1 for v in parts["above"] if v is None)
        print(f"{pool:<7} {f'[2^{lo}, 2^{hi})':<18} {ops:<24} {share}" + (f"  ({capped} capped, not timed)" if capped else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
