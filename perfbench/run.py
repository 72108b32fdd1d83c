"""Seeded, layered benchmark for specnorm.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload decompose-laws --seed 1 --seconds 60 --trace 0

Workloads: decompose-laws and spectral-cli (see workloads.py).  Each is a
closed loop with one caller: the runner repeats a
fixed, seeded list of ops as whole passes.  A run is a fixed number of
passes per workload, so every run (and every commit) measures the same
number of ops in the same mix, and order statistics such as op_tail_ms sit
at the same rank; --seconds caps the run: no pass starts that would, judged
by the previous pass, end after it.  Each op is timed, then its output is
checked untimed; an op that raises or fails its check counts as failed.

op_p50_ms and op_tail_ms are Harrell-Davis quantile estimates over all op
latencies of the run: a weighted mean of every order statistic, which moves
far less from run to run than the single sample at that rank.  The tail is
taken at the highest percentile that has at least ten samples above it.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes (at least one of each) and reports the per-layer metrics
from the traced ones, with the tracing overhead as the gap between their
ops per second.

The second-to-last output line is a JSON report with the environment and
every figure; the last line is the result object
{"correct", "attempted", "failed", "metrics"}.  specnorm is imported from
src/ next to this directory, never from an installed copy; without it the
benchmark exits with status 2.
"""

import os

# one process, one thread: pin the BLAS pools before numpy is imported
THREAD_PINS = {
    var: "1" for var in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
    )
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("decompose-laws", "spectral-cli")
SETUP_REPS = 5
TAIL_BEYOND = 10

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def _timed(*names):
    out = []
    for name in names:
        out += [(name + ".calls", "count", "lower"), (name + ".self_s", "s", "lower")]
    return out


PER_LAYER = (
    _timed("fourier.wht", "fourier.iwht", "fourier.convolve")
    + [("fourier.butterfly_points", "count", "lower"),
       ("fourier.bytes_computed", "B", "lower"),
       ("fourier.ns_per_point_stage", "ns", "lower")]
    + _timed("gf2.Subgroup.element_array")
    + [("gf2.Subgroup.elements_enumerated", "count", "lower")]
    + _timed("gf2.Subgroup.mask", "gf2.Subgroup.annihilator", "gf2.rref_span",
             "spectral.psi", "spectral.a_norm", "spectral.find_spectral_support")
    + [("spectral.support_steps", "count", "lower")]
    + _timed("spectral.round_to_int", "additive.find_concentration_subgroup")
    + [("additive.psi_per_search", "ratio", "lower")]
    + _timed("additive.sumset", "additive.nu4", "additive.s_eta",
             "additive.bogolyubov_subgroup", "decompose.decompose",
             "decompose.inductive_step", "decompose.evaluate", "decompose.trivial_expr")
    + [("decompose.splits_total", "count", "lower"),
       ("decompose.fallback_ops", "count", "lower"),
       ("decompose.L_ratio_p50", "ratio", "lower"),
       ("decompose.terms_L_total", "count", "lower")]
    + [(f"laws.{law}.self_s", "s", "lower") for law in (
        "tiny-norm", "pd", "approx-hom", "power-bound", "bogolyubov", "lemma13", "plunnecke")]
    + [("laws.min_margin", "1", "higher")]
    + _timed("io.read_truth_table", "io.write_truth_table")
    + [("io.write_truth_table.bytes", "B", "lower")]
    + _timed("fourier.spectrum_to_json", "cli.main.wht", "cli.main.anorm", "cli.main.psi",
             "cli.main.decompose", "generate.gen_coset_ring")
    + [("trace.self_share", "ratio", "higher"),
       ("trace.overhead_pct", "%", "lower")]
)

KERNEL_NOTE = (
    "fourier.butterfly_points (sum of n*2^n per transform) and fourier.bytes_computed "
    "(16 bytes per point per stage: one float64 read and one write) are computed from "
    "array sizes, not measured.  No roofline ratio is reported: the benchmark does not "
    "measure sustained memory bandwidth, and its largest table (8 MiB at n = 20) is "
    "smaller than four times a server's last-level cache, so a bandwidth figure would "
    "time the cache, not memory."
)


@dataclass
class PassResult:
    phase: int
    traced: bool
    stats: dict
    # (op label, seconds), seconds None where the op raised or failed its check
    samples: list = field(default_factory=list)
    op_seconds: float = 0.0
    errors: list = field(default_factory=list)
    wall: float = 0.0

    @property
    def latencies(self):
        return [dt for _, dt in self.samples if dt is not None]

    @property
    def failed(self):
        return sum(dt is None for _, dt in self.samples)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every size (self-test only; figures are not comparable)")
    return p.parse_args(argv)


def import_specnorm():
    """Import specnorm and its modules from SRC; returns the import time."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import workloads

    mods = workloads.modules()
    elapsed = time.perf_counter() - t0
    pkg = sys.modules["specnorm"]
    if Path(pkg.__file__).resolve().parent != (SRC / "specnorm").resolve():
        raise SystemExit(f"error: specnorm imported from {pkg.__file__}, not from {SRC}")
    return workloads, mods, elapsed


def run_pass(wl, new_stats, phase, traced, tracer, op_ids):
    res = PassResult(phase=phase, traced=traced, stats=new_stats())
    if traced:
        tracer.phase = phase
        tracer.install()
    start = time.perf_counter()
    try:
        for op in wl.ops:
            ok = True
            if traced:
                tracer.op = next(op_ids)
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a failed op is counted; the run goes on
                ok = False
                res.errors.append(f"{op.label}: raised {exc!r}")
            dt = time.perf_counter() - t0
            if traced:
                tracer.enabled = False
            res.op_seconds += dt
            if ok:
                try:
                    op.check(result, res.stats)
                except Exception as exc:  # check failures and malformed output
                    ok = False
                    res.errors.append(f"{op.label}: {exc!r}")
            res.samples.append((op.label, dt if ok else None))
    finally:
        if traced:
            tracer.uninstall()
    res.wall = time.perf_counter() - start
    return res


def measure(wl, new_stats, n_passes, seconds, tracer):
    """Up to n_passes whole passes, stopping early only where the next pass
    would overrun `seconds`; when tracing, passes alternate untraced and
    traced and at least one of each runs."""
    passes = []
    op_ids = itertools.count()
    min_passes = 1 if tracer is None else 2
    start = time.perf_counter()
    while len(passes) < max(n_passes, min_passes):
        if len(passes) >= min_passes and (
                time.perf_counter() - start + passes[-1].wall > seconds):
            break
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(wl, new_stats, len(passes), traced, tracer, op_ids))
    return passes


def tail_quantile(n):
    """The highest quantile with at least TAIL_BEYOND of n samples above it."""
    return (n - TAIL_BEYOND) / n if n > TAIL_BEYOND else 1.0


def harrell_davis(xs, q):
    """Harrell-Davis estimate of the q-quantile: the sorted samples weighted
    by the Beta((n+1)q, (n+1)(1-q)) mass over each rank interval, with the
    Beta CDF integrated by the midpoint rule."""
    import numpy as np

    xs = np.sort(np.asarray(xs, dtype=float))
    n = len(xs)
    if n == 1 or q >= 1.0:
        return float(xs[-1])
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    edges = np.linspace(0.0, 1.0, 20001)
    mids = (edges[1:] + edges[:-1]) / 2
    log_pdf = (a - 1) * np.log(mids) + (b - 1) * np.log1p(-mids)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    weights = np.diff(np.interp(np.arange(n + 1) / n, edges, cdf / cdf[-1]))
    return float(weights @ xs)


def quality(stats):
    margins = stats["law_margins"]
    ratios = stats["L_ratios"]
    return {
        "decompose.splits_total": stats["splits_total"],
        "decompose.fallback_ops": stats["fallback_ops"],
        "decompose.L_ratio_p50": statistics.median(ratios) if ratios else 0.0,
        "decompose.terms_L_total": stats["terms_L_total"],
        "laws.min_margin": float(min(margins)) if margins else 0.0,
    }


def environment(mods):
    import numpy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "backend": mods.fourier.BACKEND,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": affinity,
        "thread_pins": THREAD_PINS,
        "processes": 1,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "specnorm" / "__init__.py").is_file():
        print(f"error: no specnorm sources under {SRC}", file=sys.stderr)
        return 2
    workloads, mods, import_s = import_specnorm()
    import tracer as tracing

    tracer = tracing.Tracer() if args.trace else None
    sizes = workloads.TINY if args.tiny else workloads.FULL
    state_dir = ROOT / ".specbench"
    workdir = state_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for rep in range(SETUP_REPS):
            traced_setup = tracer is not None and rep == 0
            if traced_setup:
                tracer.install()
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                wl = workloads.Workload(workloads.WORKLOADS[args.workload], mods, args.seed,
                                        sizes, str(workdir))
                for op in wl.warmup:
                    op.run()
            finally:
                if traced_setup:
                    tracer.enabled = False
                    tracer.uninstall()
            setup_times.append(time.perf_counter() - t0)
        passes = measure(wl, workloads.new_pass_stats, sizes["passes"][args.workload],
                         args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [p for p in passes if not p.traced]
    measured = untraced if tracer is None else passes
    attempted = sum(len(p.samples) for p in measured)
    failed = sum(p.failed for p in measured)
    latencies = [x for p in untraced for x in p.latencies]
    op_seconds = sum(p.op_seconds for p in untraced)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "tiny": args.tiny, "env": environment(mods),
        "passes": len(passes), "ops_per_pass": len(wl.ops),
        "measured_s": sum(p.wall for p in passes),
        "fail_ratio": failed / attempted,
        "errors": [e for p in measured for e in p.errors][:10],
        "import_s": import_s, "setup_rep_s": setup_times,
    }
    if tracer is None:
        q_tail = tail_quantile(len(latencies))
        values = {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_per_s": len(latencies) / op_seconds,
            "op_p50_ms": 1e3 * harrell_davis(latencies, 0.5) if latencies else 0.0,
            "op_tail_ms": 1e3 * harrell_davis(latencies, q_tail) if latencies else 0.0,
            "setup_s": import_s + statistics.median(setup_times),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        q = quality(untraced[0].stats)
        latencies_by_label: dict = {}
        for p in untraced:
            for label, dt in p.samples:
                if dt is not None:
                    latencies_by_label.setdefault(label, []).append(round(1e3 * dt, 3))
        report.update({
            "op_tail_percentile": 100.0 * q_tail,
            "op_samples": len(latencies),
            "op_latencies_ms": latencies_by_label,
            "op_samples_beyond_tail": TAIL_BEYOND if len(latencies) > TAIL_BEYOND else 0,
            "deterministic": {
                "terms_L_total": {"value": q["decompose.terms_L_total"], "unit": "count"},
                "law_min_margin": {"value": q["laws.min_margin"], "unit": "1",
                                   "applies": args.workload == "decompose-laws"},
            },
        })
    else:
        traced = [p for p in passes if p.traced]
        layer = tracing.layer_metrics(tracer, [p.phase for p in traced],
                                      {p.phase: p.op_seconds for p in traced})
        layer.update(quality(traced[0].stats))
        rate_untraced = len(latencies) / op_seconds
        rate_traced = sum(len(p.latencies) for p in traced) / sum(p.op_seconds for p in traced)
        layer["trace.overhead_pct"] = 100.0 * (rate_untraced / rate_traced - 1.0)
        metrics = {name: {"value": float(layer.get(name, 0)), "unit": unit}
                   for name, unit, _ in PER_LAYER}
        spans_path = state_dir / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(str(spans_path))
        report.update({
            "ops_per_s_untraced": rate_untraced,
            "ops_per_s_traced": rate_traced,
            "spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "note": KERNEL_NOTE,
        })
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
