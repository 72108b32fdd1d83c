"""Truth-table file format.

Line 1: ``n=<int>``.  Line 2: either ``bits=<2^n chars of 0/1>`` for a
boolean function or ``real=`` followed by 2^n whitespace-separated
decimals (which may continue on later lines).  Index order is
x = 0 .. 2^n - 1 with bit i of the index as coordinate i.
"""

from __future__ import annotations

import numpy as np

from .fourier import RealFn
from .gf2 import Ambient


class MalformedInput(ValueError):
    pass


def read_truth_table(path: str) -> RealFn:
    with open(path) as fh:
        text = fh.read()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise MalformedInput("first line must be n=<int>")
    try:
        n = int(lines[0][2:])
        ambient = Ambient(n)
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc
    if len(lines) < 2:
        raise MalformedInput("missing value line")
    body = lines[1]
    if body.startswith("bits="):
        bits = body[5:]
        if len(bits) != ambient.size or set(bits) - {"0", "1"}:
            raise MalformedInput(f"bits= needs exactly {ambient.size} chars of 0/1")
        vals = np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0")
        return RealFn(ambient, vals.astype(np.float64))
    if body.startswith("real="):
        tokens = (body[5:] + " " + " ".join(lines[2:])).split()
        if len(tokens) != ambient.size:
            raise MalformedInput(f"real= needs exactly {ambient.size} decimals")
        try:
            vals = np.array([float(t) for t in tokens])
            return RealFn(ambient, vals)
        except ValueError as exc:
            raise MalformedInput(str(exc)) from exc
    raise MalformedInput("second line must start with bits= or real=")


def write_truth_table(path: str, f: RealFn) -> None:
    vals = f.values
    with open(path, "w") as fh:
        fh.write(f"n={f.ambient.n}\n")
        if np.array_equal(vals, vals.astype(bool).astype(float)):
            fh.write("bits=" + (vals.astype(np.uint8) + ord("0")).tobytes().decode() + "\n")
        else:
            fh.write("real=" + " ".join(repr(float(v)) for v in vals) + "\n")
