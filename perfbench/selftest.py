"""Self-test of the benchmark: a tiny run of every workload, untraced and
traced, must print every metric named in BENCHMARK.json with its unit and
finish with no failed op; without the specnorm sources the benchmark must
exit non-zero and print no result.

    python3 perfbench/selftest.py

Exits 0 when every check holds, 1 otherwise.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT_S = 300


def run(cwd, workload, trace):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_run(spec, workload, trace):
    problems = []
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"failed ops: {report['errors']}")
    if report["fail_ratio"] != 0:
        problems.append(f"fail_ratio {report['fail_ratio']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        problems.append(f"metric names differ: {sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            continue
        value = entry["value"]
        if entry["unit"] != m["unit"] or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: {entry}")
        elif not trace and value <= 0:
            problems.append(f"{m['name']} is {value}, end-to-end metrics are never 0")
    if trace:
        share = got["trace.self_share"]["value"]
        if not 0 < share <= 1 + 1e-9:
            problems.append(f"layer self time is {share:.4f} of op wall time, not inside it")
    else:
        for key in ("op_tail_percentile", "op_samples"):
            if key not in report:
                problems.append(f"report lacks {key}")
    return problems


def check_without_sources():
    """A directory holding only BENCHMARK.json and perfbench/ has no src/."""
    bare = ROOT / ".specbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(bare, "decompose-corpus", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        return [f"exit {proc.returncode} and output {last[0][:80]!r} without sources"]
    return []


def check_spec(spec):
    sys.path.insert(0, str(BENCH_DIR))
    import run as bench

    problems = []
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != bench.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != bench.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(bench.WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOAD_NAMES")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    checks = [("spec", lambda: check_spec(spec))]
    for w in spec["workloads"]:
        for trace in (0, 1):
            checks.append((f"{w['name']} trace={trace}",
                           lambda w=w["name"], t=trace: check_run(spec, w, t)))
    checks.append(("no sources", check_without_sources))
    for label, check in checks:
        problems = check()
        failures += bool(problems)
        print(f"{'ok  ' if not problems else 'FAIL'} {label}")
        for p in problems:
            print(f"     {p}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
