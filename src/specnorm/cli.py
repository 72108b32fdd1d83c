"""Command-line front end.

Exit codes: 0 ok, 1 law failure, 2 bad input or flags, 3 a
decomposition that does not evaluate exactly to rint(f).  ``main`` is
the single place where input errors become exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import statistics
import sys
import tempfile
import time

import numpy as np

from . import fourier, laws
from .decompose import (
    DecomposeParams,
    _expand,
    decompose,
    decomposition_json,
    evaluate,
    exact_support_eta,
    inductive_step,
)
from .fourier import RealFn, spectrum_to_json, wht
from .generate import (
    flat_indicator,
    gen_coset_ring,
    gen_random_boolean,
    random_subgroup,
    rng_for,
    subgroup_of_dim,
)
from .gf2 import Ambient, Subgroup, full
from .io import _format_reals, read_truth_table, write_truth_table
from .spectral import a_norm, find_spectral_support, psi, round_to_int

EXIT_OK = 0
EXIT_LAW_FAILURE = 1
EXIT_BAD_INPUT = 2
EXIT_INCOMPLETE = 3


def cmd_wht(args) -> int:
    f = read_truth_table(args.input)
    s = wht(f)
    linf = fourier.lp_norm(f, math.inf)
    # with max|f| > 1, square the table and spectrum scaled by 2^-e, e the
    # max's binary exponent, so that no square overflows, and scale back
    e = math.frexp(linf)[1] if linf > 1 else 0
    x, c = f.values, s.coeffs
    if e:  # a scale of 1.0 would change no bit
        x, c = x * 2.0**-e, c * 2.0**-e
    residual = abs(float(np.mean(x**2)) - float(np.sum(c**2)))
    with np.errstate(over="ignore"):  # a residual past float64 reads inf
        parseval = float(np.ldexp(residual, 2 * e))
    if args.out:  # written first, so that a failed write prints nothing
        with open(args.out, "w") as fh:
            json.dump(spectrum_to_json(s), fh, indent=1)
            fh.write("\n")
    print(f"a_norm={fourier.spec_lp_norm(s, 1)!r}")
    print(f"linf={linf!r}")
    print(f"parseval_residual={parseval!r}")
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
        print(b"".join(_format_reals(g.values)).decode())
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


# The flags that each (command, law or kind) does not read.  Those flags
# default to None, so that main refuses one given there rather than drop it.
UNREAD = {
    ("verify", "tiny-norm"): ("trials", "seed"),
    ("verify", "pd"): ("n", "trials", "seed"),
    ("gen", "random-boolean"): ("flats", "depth"),
    ("gen", "subgroup"): ("flats", "depth"),
}


def cmd_verify(args) -> int:
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
    # every sidecar says which kind and seed made its table
    record = {"n": args.n, "kind": args.kind, "seed": args.seed}
    if args.kind == "coset-ring":
        flats = 2 if args.flats is None else args.flats
        depth = 1 if args.depth is None else args.depth
        f, construction = gen_coset_ring(ambient, flats, depth, rng)
        record.update(construction)
    elif args.kind == "random-boolean":
        f = gen_random_boolean(ambient, rng)
    else:  # "subgroup"
        H = random_subgroup(ambient, rng)
        f = flat_indicator(H, 0)
        record["basis"] = H.to_json()
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
    if args.reps < 1:
        raise ValueError(f"--reps must be >= 1, got {args.reps}")
    # at n = 20 the random-boolean decompose builds about 10^6 terms in
    # about 4 s and the bench peaks near 480 MB; each step of n doubles both
    if args.what == "decompose" and args.n > 20:
        raise ValueError("bench decompose needs n <= 20")
    if args.what == "psi" and args.n < 4:
        raise ValueError("bench psi needs n >= 4 (subgroups of dimension 2 and n - 4)")
    if args.what == "io" and args.n < 2:
        raise ValueError("bench io needs n >= 2 (a projection onto a dim-2 subgroup)")
    ambient = Ambient(args.n)  # the rest: n <= gf2.MAX_N
    rng = rng_for(args.seed)
    results = {}
    if args.what in ("wht", "anorm"):
        f = RealFn(ambient, rng.uniform(-1, 1, ambient.size))
        op = a_norm if args.what == "anorm" else wht
        stats = _bench_one(lambda: op(f), args.reps)
        stats["points_per_s"] = ambient.size / stats["median_s"]
        results[fourier.BACKEND] = stats
    elif args.what == "psi":
        f = RealFn(ambient, rng.uniform(-1, 1, ambient.size))
        subgroups = {name: subgroup_of_dim(ambient, dim, rng)
                     for name, dim in (("dim=2", 2), ("codim=4", args.n - 4))}
        # the two lowest unit words: top bits 1 and 0, the column-by-column steps
        subgroups["low"] = Subgroup(ambient, (0b10, 0b1))
        for name, H in subgroups.items():
            results[name] = {**_bench_one(lambda: psi(f, H), args.reps), "dim": H.dim}
    elif args.what == "support":
        # the coset ring is bench decompose's input; dense reals descend to
        # the trivial subgroup, n steps
        ring, _ = gen_coset_ring(ambient, 3, 2, rng)
        reals = RealFn(ambient, rng.uniform(-1, 1, ambient.size))
        top, eta = full(ambient), exact_support_eta(ambient)
        for name, f in (("coset-ring", ring), ("reals", reals)):
            stats = _bench_one(lambda: find_spectral_support(f, top, eta), args.reps)
            stats["steps"] = find_spectral_support(f, top, eta).steps_used
            results[name] = stats
    elif args.what == "io":
        # bits=, few distinct short real= tokens, dense 17-digit reals,
        # and dense short tokens (reals to 5 decimals)
        ring, _ = gen_coset_ring(ambient, 3, 2, rng)
        reals = rng.uniform(-1, 1, ambient.size)
        tables = {"coset-ring": ring,
                  "projection": psi(ring, subgroup_of_dim(ambient, 2, rng)),
                  "reals": RealFn(ambient, reals),
                  "rounded": RealFn(ambient, reals.round(5))}
        with tempfile.TemporaryDirectory() as tmp:
            for name, f in tables.items():
                path = os.path.join(tmp, name + ".txt")
                stats = _bench_one(lambda: write_truth_table(path, f), args.reps)
                results[f"write {name}"] = {**stats, "bytes": os.path.getsize(path)}
                results[f"read {name}"] = _bench_one(lambda: read_truth_table(path), args.reps)
    else:
        # the whole call, then its term expansion and its exactness check, on
        # a coset ring and on a random boolean table drawn after it
        ring, _ = gen_coset_ring(ambient, 3, 2, rng)
        for prefix, f in (("", ring), ("random-boolean ", gen_random_boolean(ambient, rng))):
            expr, _ = decompose(f)
            step = inductive_step(round_to_int(f))
            H = step.certificate.subgroup
            for name, op in (("decompose", lambda: decompose(f)),
                             ("expand", lambda: _expand(H, step.reps, step.coeffs)),
                             ("evaluate", lambda: evaluate(expr))):
                results[prefix + name] = {**_bench_one(op, args.reps), "L": expr.L}
    doc = {"what": args.what, "n": args.n, "reps": args.reps,
           "active_backend": fourier.BACKEND, "results": results}
    if args.json:
        print(json.dumps(doc, indent=1))
    else:
        for name, stats in results.items():
            line = f"{args.what} n={args.n} [{name}] median={stats['median_s'] * 1e3:.3f}ms p90={stats['p90_s'] * 1e3:.3f}ms"
            if "points_per_s" in stats:
                line += f" throughput={stats['points_per_s']:.3e} pts/s"
            for key in ("dim", "steps", "bytes", "L"):
                if key in stats:
                    line += f" {key}={stats[key]}"
            print(line)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it took
    1.6 ms against 0.06 ms for a parse.  cmd_verify reads laws.CHECKS when
    it runs, so a check patched in later still runs."""
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
    sp.add_argument("--eps0", type=float, default=DecomposeParams.eps0)
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
    sp.add_argument("--flats", type=int, help="default 2; coset-ring only")
    sp.add_argument("--depth", type=int, help="default 1; coset-ring only")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser(
        "bench", help="time the transform, the spectral norm, psi, the support descent, "
        "truth-table files or decompose")
    sp.add_argument("what", choices=["wht", "anorm", "psi", "support", "io", "decompose"])
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
    # DecomposeParams and gen_coset_ring raise it, and so does a flag given
    # where UNREAD lists it.
    try:
        which = (args.command, vars(args).get("law", vars(args).get("kind")))
        for flag in UNREAD.get(which, ()):
            if getattr(args, flag) is not None:
                raise ValueError(f"{' '.join(which)} does not take --{flag}")
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
