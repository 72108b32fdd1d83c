"""Command-line front end.

Exit codes: 0 ok, 1 law failure, 2 bad input or flags, 3 a
decomposition that does not evaluate exactly to rint(f).  ``main`` is
the single place where input errors become exit 2.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time

import numpy as np

from . import fourier, laws
from .decompose import DecomposeParams, decompose, decomposition_json
from .fourier import RealFn, spectrum_to_json, wht
from .generate import flat_indicator, gen_coset_ring, gen_random_boolean, random_subgroup, rng_for
from .gf2 import Ambient, Subgroup
from .io import read_truth_table, write_truth_table
from .spectral import a_norm, psi

EXIT_OK = 0
EXIT_LAW_FAILURE = 1
EXIT_BAD_INPUT = 2
EXIT_INCOMPLETE = 3


def cmd_wht(args) -> int:
    f = read_truth_table(args.input)
    s = wht(f)
    parseval = abs(
        float(np.mean(f.values**2)) - float(np.sum(s.coeffs**2))
    )
    print(f"a_norm={fourier.spec_lp_norm(s, 1)!r}")
    print(f"linf={fourier.lp_norm(f, math.inf)!r}")
    print(f"parseval_residual={parseval!r}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(spectrum_to_json(s), fh, indent=1)
            fh.write("\n")
    return EXIT_OK


def cmd_anorm(args) -> int:
    f = read_truth_table(args.input)
    print(f"a_norm={a_norm(f)!r}")
    return EXIT_OK


def cmd_psi(args) -> int:
    f = read_truth_table(args.input)
    H = Subgroup.from_json(f.ambient, json.loads(args.subgroup))
    g = psi(f, H)
    if args.out:
        write_truth_table(args.out, g)
    else:
        print(" ".join(repr(float(v)) for v in g.values))
    return EXIT_OK


def cmd_decompose(args) -> int:
    f = read_truth_table(args.input)
    expr, report = decompose(f, DecomposeParams(eps0=args.eps0))
    doc = decomposition_json(expr, report)
    out = json.dumps(doc, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)
    return EXIT_OK if report.exact else EXIT_INCOMPLETE


# verify's --n, --trials and --seed default to None, so that a flag given
# to a law that does not read it is refused rather than dropped
VERIFY_UNREAD = {"tiny-norm": ("trials", "seed"), "pd": ("n", "trials", "seed")}


def cmd_verify(args) -> int:
    for flag in VERIFY_UNREAD.get(args.law, ()):
        if getattr(args, flag) is not None:
            raise ValueError(f"verify {args.law} does not take --{flag}")
    if args.n is not None:
        n = args.n  # each law that reads n checks it with Ambient(n)
    else:  # the exhaustive tiny-norm sweep stops at n = 4
        n = 4 if args.law == "tiny-norm" else 8
    trials = 100 if args.trials is None else args.trials
    if trials < 1:
        raise ValueError(f"--trials must be >= 1, got {trials}")
    rep = laws.CHECKS[args.law](n, trials, 0 if args.seed is None else args.seed)
    if args.json:
        print(json.dumps(rep.to_json(), indent=1))
    else:
        status = "PASS" if rep.passed else "FAIL"
        worst = rep.worst_margin if not math.isinf(rep.worst_margin) else float("nan")
        print(
            f"{rep.law_id:<14} {status}  trials={rep.trials} failures={rep.failures} "
            f"worst_margin={worst:.3e} elapsed={rep.elapsed:.2f}s"
        )
        for k, v in rep.notes.items():
            print(f"  note {k}={v}")
    if rep.counterexample is not None:
        path = f"{rep.law_id}-counterexample.json"
        with open(path, "w") as fh:
            json.dump(rep.counterexample, fh, indent=1)
        if not args.json:
            print(f"  counterexample written to {path}")
    return EXIT_OK if rep.passed else EXIT_LAW_FAILURE


def cmd_gen(args) -> int:
    ambient = Ambient(args.n)
    rng = rng_for(args.seed)
    if args.kind == "coset-ring":
        f, record = gen_coset_ring(ambient, args.flats, args.depth, rng)
    elif args.kind == "random-boolean":
        f = gen_random_boolean(ambient, rng)
        record = {"n": args.n, "kind": "random-boolean", "seed": args.seed}
    else:  # "subgroup"
        H = random_subgroup(ambient, rng)
        f = flat_indicator(H, 0)
        record = {"n": args.n, "kind": "subgroup", "basis": H.to_json()}
    write_truth_table(args.out, f)
    with open(args.out + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return EXIT_OK


def _bench_one(fn, reps: int) -> dict:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return {
        "median_s": statistics.median(times),
        "p90_s": times[min(len(times) - 1, int(0.9 * len(times)))],
    }


def cmd_bench(args) -> int:
    if args.what == "decompose" and args.n > 12:
        raise ValueError("n too large for this benchmark")
    ambient = Ambient(args.n)  # wht and anorm: n <= gf2.MAX_N
    rng = rng_for(args.seed)
    results = {}
    if args.what in ("wht", "anorm"):
        f = RealFn(ambient, rng.uniform(-1, 1, ambient.size))
        op = a_norm if args.what == "anorm" else wht
        stats = _bench_one(lambda: op(f), args.reps)
        stats["points_per_s"] = ambient.size / stats["median_s"]
        results[fourier.BACKEND] = stats
    else:
        f, _ = gen_coset_ring(ambient, 3, 2, rng)
        results["decompose"] = _bench_one(lambda: decompose(f), args.reps)
    doc = {"what": args.what, "n": args.n, "reps": args.reps,
           "active_backend": fourier.BACKEND, "results": results}
    if args.json:
        print(json.dumps(doc, indent=1))
    else:
        for name, stats in results.items():
            line = f"{args.what} n={args.n} [{name}] median={stats['median_s'] * 1e3:.3f}ms p90={stats['p90_s'] * 1e3:.3f}ms"
            if "points_per_s" in stats:
                line += f" throughput={stats['points_per_s']:.3e} pts/s"
            print(line)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="specnorm")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("wht", help="transform a truth table")
    sp.add_argument("--input", required=True)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_wht)

    sp = sub.add_parser("anorm", help="spectral norm of a truth table")
    sp.add_argument("--input", required=True)
    sp.set_defaults(fn=cmd_anorm)

    sp = sub.add_parser("psi", help="coset-average projection")
    sp.add_argument("--input", required=True)
    sp.add_argument("--subgroup", required=True,
                    help='JSON array of basis hex words, e.g. \'["0x3"]\'')
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_psi)

    sp = sub.add_parser("decompose", help="signed-subgroup decomposition")
    sp.add_argument("--input", required=True)
    sp.add_argument("--eps0", type=float, default=2.0**-20)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("verify", help="run a law check")
    sp.add_argument("law", choices=sorted(laws.CHECKS))
    sp.add_argument("--n", type=int, help="default 8; 4 for tiny-norm; not for pd")
    sp.add_argument("--trials", type=int, help="default 100; not for tiny-norm or pd")
    sp.add_argument("--seed", type=int, help="default 0; not for tiny-norm or pd")
    sp.add_argument("--json", action="store_true",
                    help="print the report as one JSON document")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("gen", help="generate a test instance")
    sp.add_argument("kind", choices=["coset-ring", "random-boolean", "subgroup"])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--flats", type=int, default=2)
    sp.add_argument("--depth", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("bench", help="time the transform, the spectral norm or decompose")
    sp.add_argument("what", choices=["wht", "anorm", "decompose"])
    sp.add_argument("--n", type=int, default=16)
    sp.add_argument("--reps", type=int, default=5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_bench)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The one input boundary.  OSError: a file that cannot be read or
    # written.  ValueError: MalformedInput, NotAlmostInteger, JSONDecodeError
    # and UnicodeDecodeError derive from it; Ambient, Subgroup.from_json,
    # DecomposeParams and gen_coset_ring raise it.
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
