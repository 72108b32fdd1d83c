"""Paired perfbench runs of two checkouts, parent against change.

    python3 tools/pairs.py PARENT CHANGE --workload spectral-cli --seeds 501-510

runs ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
in each checkout once per seed, the two sides back to back, the parent
first on odd seeds and the change first on even ones.  Each checkout runs
its own perfbench and its own sources.  The end-to-end metrics, which way
is better and their bounds come from CHANGE/BENCHMARK.json.

Prints one JSON document (and writes it to --out when given): for each
workload, the seeds, the failed and attempted ops of each side, and for
each metric

- each side's median, q1 and q3 over its runs;
- change_better_pairs, the pairs where the change did strictly better
  (a tie counts as not better), as "k/N";
- median_gap_exceeds_parent_quartile_spread: whether the change's median
  is better than the parent's by more than the parent's q3 - q1;
- claim_met: whether a claimed gain on the metric holds: the change did
  strictly better in at least 9/10 of the pairs (a tie is no win) and its
  median gap exceeds the parent's quartile spread, as above;
- regressed: whether the change's median is worse than the parent's by
  more than the metric's bound times the parent's median, the rule a
  change that claims no gain is held to;
- relative_quartile_spread, the larger side's (q3 - q1) / median, and
  unresolved, whether that spread exceeds the metric's bound;
- every run, in seed order.

It also gives, for each op family (the op label without its ``n=`` and
``t=`` parts), each side's median over its runs of the family's latency
sum in one run, and the pairs where the change's sum was lower.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(xs: list[float]) -> dict:
    """Median, q1 and q3 (inclusive method; one run gives all three)."""
    if len(xs) == 1:
        return {"median": xs[0], "q1": xs[0], "q3": xs[0]}
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The paired summary of one metric; parent[i] and change[i] share a seed."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change run per seed")
    sign = 1.0 if better == "higher" else -1.0
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    gap_exceeds = sign * (c["median"] - p["median"]) > p["q3"] - p["q1"]
    spread = max((s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0
                 for s in (p, c))
    return {
        "parent": p,
        "change": c,
        "change_better_pairs": f"{wins}/{len(parent)}",
        "median_gap_exceeds_parent_quartile_spread": gap_exceeds,
        "claim_met": gap_exceeds and 10 * wins >= 9 * len(parent),
        "regressed": sign * (p["median"] - c["median"]) > bound * abs(p["median"]),
        "relative_quartile_spread": spread,
        "bound": bound,
        "unresolved": spread > bound,
        "runs": {"parent": parent, "change": change},
    }


def family_sums(report: dict) -> dict:
    """Each op family's latency sum in ms over one run's report line."""
    sums: dict = {}
    for label, latencies in report["op_latencies_ms"].items():
        family = " ".join(w for w in label.split() if not w.startswith(("n=", "t=")))
        sums[family] = sums.get(family, 0.0) + sum(latencies)
    return sums


def summarize_families(parent: list[dict], change: list[dict]) -> dict:
    """Per op family: each side's median latency sum and the pairs the change won."""
    families = sorted(set().union(*parent, *change))
    doc = {}
    for family in families:
        p = [s.get(family, 0.0) for s in parent]
        c = [s.get(family, 0.0) for s in change]
        doc[family] = {
            "parent_median_ms": statistics.median(p),
            "change_median_ms": statistics.median(c),
            "change_better_pairs": f"{sum(b < a for a, b in zip(p, c))}/{len(p)}",
        }
    return doc


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one perfbench run in checkout, with its report
    line under "report"."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    report, result = done.stdout.strip().splitlines()[-2:]
    return {**json.loads(result), **json.loads(report)}


def parse_seeds(text: str) -> list[int]:
    """The seeds of "501-510", or the one seed of "501"."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=parse_seeds, required=True)
    p.add_argument("--seconds", type=float, default=60)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    doc = {}
    for workload in args.workload:
        results = {"parent": [], "change": []}
        for seed in args.seeds:
            sides = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in sides:
                checkout = args.parent if side == "parent" else args.change
                results[side].append(run_once(checkout, workload, seed, args.seconds))
                print(f"{workload} seed {seed} {side} done", file=sys.stderr)
        doc[workload] = {
            "seeds": args.seeds,
            "attempted_ops": {s: sum(r["attempted"] for r in rs) for s, rs in results.items()},
            "failed_ops": {s: sum(r["failed"] for r in rs) for s, rs in results.items()},
            "metrics": {
                m["name"]: summarize(
                    [r["metrics"][m["name"]]["value"] for r in results["parent"]],
                    [r["metrics"][m["name"]]["value"] for r in results["change"]],
                    m["better"], m["bound"])
                for m in spec["end_to_end"]
            },
            "family_latency_sums": summarize_families(
                [family_sums(r["report"]) for r in results["parent"]],
                [family_sums(r["report"]) for r in results["change"]]),
        }
    text = json.dumps(doc, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
