"""Command-line front end.

Exit codes: 0 ok, 1 law failure, 2 bad input, 3 incomplete
decomposition (heuristic mode with the fallback disabled).
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
from .generate import flat_indicator, gen_coset_ring, gen_random_boolean, random_flat, random_subgroup, rng_for
from .gf2 import Ambient, Subgroup
from .io import MalformedInput, read_truth_table, write_truth_table
from .spectral import NotAlmostInteger, a_norm, psi

EXIT_OK = 0
EXIT_LAW_FAILURE = 1
EXIT_BAD_INPUT = 2
EXIT_INCOMPLETE = 3


def _load(path: str) -> RealFn:
    try:
        return read_truth_table(path)
    except (OSError, MalformedInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT)


def cmd_wht(args) -> int:
    f = _load(args.input)
    s = wht(f)
    parseval = abs(
        float(np.mean(f.values**2)) - float(np.sum(s.coeffs**2))
    )
    print(f"a_norm={float(np.sum(np.abs(s.coeffs)))!r}")
    print(f"linf={float(np.max(np.abs(f.values)))!r}")
    print(f"parseval_residual={parseval!r}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(spectrum_to_json(s), fh, indent=1)
            fh.write("\n")
    return EXIT_OK


def cmd_anorm(args) -> int:
    f = _load(args.input)
    print(f"a_norm={a_norm(f)!r}")
    return EXIT_OK


def cmd_psi(args) -> int:
    f = _load(args.input)
    try:
        H = Subgroup.from_json(f.ambient, json.loads(args.subgroup))
    except (ValueError, TypeError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: bad subgroup: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    g = psi(f, H)
    if args.out:
        write_truth_table(args.out, g)
    else:
        print(" ".join(repr(float(v)) for v in g.values))
    return EXIT_OK


def cmd_decompose(args) -> int:
    f = _load(args.input)
    try:
        params = DecomposeParams(eps0=args.eps0, mode=args.mode)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        expr, report = decompose(f, params)
    except NotAlmostInteger as exc:
        print(f"error: input is not almost integer-valued: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    doc = decomposition_json(expr, report)
    out = json.dumps(doc, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)
    if not report.exact:
        return EXIT_INCOMPLETE
    if args.no_fallback and report.fallback_used and args.mode == "heuristic":
        return EXIT_INCOMPLETE
    return EXIT_OK


def cmd_verify(args) -> int:
    check = laws.CHECKS.get(args.law)
    if check is None:
        print(f"error: unknown law {args.law!r}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        rep = check(args.n, args.trials, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
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
        print(f"  counterexample written to {path}")
    return EXIT_OK if rep.passed else EXIT_LAW_FAILURE


def cmd_gen(args) -> int:
    try:
        ambient = Ambient(args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    rng = rng_for(args.seed)
    if args.kind == "coset-ring":
        try:
            f, record = gen_coset_ring(ambient, args.flats, args.depth, rng)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
    elif args.kind == "random-boolean":
        f = gen_random_boolean(ambient, rng)
        record = {"n": args.n, "kind": "random-boolean", "seed": args.seed}
    elif args.kind == "subgroup":
        H = random_subgroup(ambient, rng)
        f = flat_indicator(H, 0)
        record = {"n": args.n, "kind": "subgroup", "basis": H.to_json()}
    else:
        print(f"error: unknown generator {args.kind!r}", file=sys.stderr)
        return EXIT_BAD_INPUT
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
    if args.what in ("wht", "anorm") and args.n > 24 or args.what == "decompose" and args.n > 12:
        print("error: n too large for this benchmark", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        ambient = Ambient(args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    rng = rng_for(args.seed)
    results = {}
    if args.what in ("wht", "anorm"):
        vals = rng.uniform(-1, 1, ambient.size)
        backends = {"python": fourier.wht_inplace_python}
        if fourier.wht_inplace_cython is not None:
            backends["cython"] = fourier.wht_inplace_cython
        for name, kernel in backends.items():
            def run():
                a = vals.copy()
                kernel(a)
                a /= ambient.size
                if args.what == "anorm":
                    np.sum(np.abs(a))
            stats = _bench_one(run, args.reps)
            stats["points_per_s"] = ambient.size / stats["median_s"]
            results[name] = stats
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
    sp.add_argument("--mode", default="heuristic",
                    choices=["heuristic", "fallback-only"])
    sp.add_argument("--eps0", type=float, default=2.0**-20)
    sp.add_argument("--no-fallback", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("verify", help="run a law check")
    sp.add_argument("law", choices=sorted(laws.CHECKS))
    sp.add_argument("--n", type=int, default=8)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("gen", help="generate a test instance")
    sp.add_argument("kind", choices=["coset-ring", "random-boolean", "subgroup"])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--flats", type=int, default=2)
    sp.add_argument("--depth", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("bench", help="kernel benchmarks (both backends)")
    sp.add_argument("what", choices=["wht", "anorm", "decompose"])
    sp.add_argument("--n", type=int, default=16)
    sp.add_argument("--reps", type=int, default=5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_bench)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
