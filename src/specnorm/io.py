"""Truth-table file format.

Line 1: ``n=<int>``.  Line 2: either ``bits=<2^n chars of 0/1>`` for a
boolean function or ``real=`` followed by 2^n whitespace-separated
decimals (which may continue on later lines).  Only blank lines may
follow a bits= line.  Index order is x = 0 .. 2^n - 1 with bit i of the
index as coordinate i.
"""

from __future__ import annotations

import re

import numpy as np

from .fourier import RealFn
from .gf2 import Ambient


class MalformedInput(ValueError):
    pass


_BLANK = re.compile(r"\s*")


def _line_at(text: str, pos: int) -> tuple[int, int]:
    """Start and end offsets of the first non-blank line at or after pos,
    its leading whitespace skipped."""
    start = _BLANK.match(text, pos).end()
    end = text.find("\n", start)
    return start, len(text) if end < 0 else end


def read_truth_table(path: str) -> RealFn:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedInput(str(exc)) from exc
    # offsets into text, not a list of lines: a real= body of 2^n
    # decimals is copied once, into the one numpy parse
    start, end = _line_at(text, 0)
    header = text[start:end].strip()
    if not header.startswith("n="):
        raise MalformedInput("first line must be n=<int>")
    try:
        n = int(header[2:])
        ambient = Ambient(n)
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc
    start, end = _line_at(text, end)
    if start == len(text):
        raise MalformedInput("missing value line")
    if text.startswith("bits=", start):
        bits = text[start + 5:end].rstrip()
        if len(bits) != ambient.size or set(bits) - {"0", "1"}:
            raise MalformedInput(f"bits= needs exactly {ambient.size} chars of 0/1")
        if _BLANK.match(text, end).end() != len(text):
            raise MalformedInput("unexpected content after the bits= line")
        vals = np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0")
        return RealFn(ambient, vals.astype(np.float64))
    if text.startswith("real=", start):
        try:
            vals = np.fromstring(text[start + 5:], sep=" ")
            if vals.size != ambient.size:  # a blank body parses as [-1.0]
                raise ValueError(f"real= needs exactly {ambient.size} decimals")
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
