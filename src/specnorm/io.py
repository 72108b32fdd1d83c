"""Truth-table file format.

Line 1: ``n=<int>``.  Line 2: either ``bits=<2^n chars of 0/1>`` for a
boolean function or ``real=`` followed by 2^n whitespace-separated
decimals (which may continue on later lines).  Only blank lines may
follow a bits= line.  Index order is x = 0 .. 2^n - 1 with bit i of the
index as coordinate i.

Reading.  The file is read as UTF-8 text.  The header goes through
``int``.  A bits= line is checked with one comparison over its bytes: a
non-ASCII character encodes to bytes outside '0'..'1', and so to a line
of the wrong length or a byte that fails the test.

A real= body is read through keys when it is ASCII, every byte below 32
is one of ``\\t \\n \\v \\f \\r``, every token has at most
SHORT_TOKEN_BYTES bytes, there are 2^n tokens and at most
MAX_DISTINCT_TOKENS distinct ones.  It is split into tokens at
whitespace with array passes over its bytes, CHUNK_BYTES at a time, each
chunk ending where a separator begins.  Each token becomes one
little-endian uint64 key in a 2^n-entry array, the distinct keys come
from a sort, and each distinct token is parsed once with ``float()``,
after a check that it uses only ``0-9 . e E + -``.  The floats are then
written over the keys a chunk at a time, so beyond the text and that
array the temporaries are a chunk's.  On such tokens ``float()`` and
``np.fromstring`` accept the same strings and both round correctly, so
the bits are the same.  Step functions and coset averages, the tables
this package writes, have a handful of distinct short tokens among their
2^n.

Any other body goes whole to ``np.fromstring(body, sep=" ")``, which
then decides what is accepted and what the error says.  Either way a
table is refused when 2^n * max|v| is not finite, since its transform
would overflow: on the keyed path the check reads the distinct values,
on the other the parsed table, and a bits= table needs none.  A first token
longer than SHORT_TOKEN_BYTES sends it there before any array pass: dense
reals written to 17 digits.  A chunk that takes the distinct tokens past
MAX_DISTINCT_TOKENS sends it there after that chunk: dense short tokens.

Writing.  A file is written as bytes.  A table whose every entry is 0 or
1 (-0.0 included) is written as bits=, its digits one uint8 pass over
the table.  Any other table is written as real=, one repr per entry.
Each distinct float64 bit pattern is formatted once, as its repr, NUL
padding to the longest repr and a space, into a fixed-width token table.
The body is then made CHUNK_BYTES // 8 entries at a time: the piece's
tokens are gathered by a binary search over the distinct bit patterns,
one bytes.translate drops the padding, and the piece is written before
the next is made.  Beyond the sort that finds the distinct patterns,
the temporaries are a piece's.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterator

import numpy as np

from .fourier import RealFn
from .gf2 import Ambient


class MalformedInput(ValueError):
    pass


# Longest real= token read through a uint64 key; a body with a longer
# token goes to np.fromstring.
SHORT_TOKEN_BYTES = 8
# Most distinct real= tokens read through keys.  Past it np.fromstring
# is faster: each token's lookup is a binary search over the distinct
# keys, and each distinct token a float() call (2^20 tokens, 1,024 of
# them distinct: 159 ms keyed against 181 ms).
MAX_DISTINCT_TOKENS = 1024
# Body bytes tokenised in one pass, and bytes of lookup index built in
# one; the writer makes a real= body CHUNK_BYTES // 8 entries at a time.
# This bounds the temporaries of both the reader and the writer.
CHUNK_BYTES = 1 << 18

_BLANK = re.compile(r"\s*")
_NUMBER = re.compile(rb"[0-9.eE+-]+")
_SPACE = ord(" ")  # the bytes <= this one separate tokens
_SEPARATOR = re.compile(r"[\x00- ]")
# a first token too long for a key, or a control byte the array pass
# would refuse anyway
_LONG_FIRST = re.compile(r"\s*\S{%d}" % (SHORT_TOKEN_BYTES + 1))
_PAD = " " * SHORT_TOKEN_BYTES
_KEY_MASKS = np.array([(1 << 8 * k) - 1 for k in range(SHORT_TOKEN_BYTES + 1)], dtype=np.uint64)


def _line_at(text: str, pos: int) -> tuple[int, int]:
    """Start and end offsets of the first non-blank line at or after pos,
    its leading whitespace skipped."""
    start = _BLANK.match(text, pos).end()
    end = text.find("\n", start)
    return start, len(text) if end < 0 else end


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of a 1-d array."""
    s = np.sort(keys)
    first = np.empty(s.size, dtype=bool)
    first[:1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    return s[first]


def _check_range(vals: np.ndarray, count: int) -> None:
    """Refuse values that a transform of count entries could overflow."""
    if vals.size and not math.isfinite(count * float(np.abs(vals).max())):
        raise MalformedInput(f"real= values too large: {count} * max|v| overflows")


def _chunk_keys(chunk: str) -> np.ndarray | None:
    """One uint64 key per token of an ASCII chunk, or None when it holds a
    control byte that np.fromstring does not skip or a token longer than
    SHORT_TOKEN_BYTES."""
    # trailing separators end the last token and keep every 8-byte key
    # window inside the buffer
    buf = np.frombuffer((chunk + _PAD).encode(), dtype=np.uint8)
    low = buf[buf < _SPACE]
    if ((low < 9) | (low > 13)).any():
        return None
    sep = np.empty(buf.size + 1, dtype=bool)
    sep[0] = True
    np.less_equal(buf, _SPACE, out=sep[1:])
    # token boundaries alternate: a start where a separator run ends, an
    # end where the next one begins
    bounds = np.flatnonzero(sep[1:] != sep[:-1])
    starts, lengths = bounds[0::2], bounds[1::2] - bounds[0::2]
    if lengths.size and lengths.max() > SHORT_TOKEN_BYTES:
        return None
    windows = np.ndarray((buf.size - 7,), dtype="<u8", buffer=buf, strides=(1,))
    keys = windows[starts]
    keys &= _KEY_MASKS[lengths]
    return keys


def _short_reals(text: str, pos: int, count: int) -> np.ndarray | None:
    """The count decimals of text[pos:], parsed one distinct token at a
    time, or None when the body needs np.fromstring: a non-ASCII
    character, a control byte that np.fromstring does not skip, a token
    longer than SHORT_TOKEN_BYTES, other than count tokens, more than
    MAX_DISTINCT_TOKENS distinct ones, or one outside 0-9 . e E + -,
    refused by float() or parsed to +-inf.  Raises MalformedInput when the
    distinct values fail _check_range."""
    if not text.isascii() or _LONG_FIRST.match(text, pos):
        return None
    keys = np.empty(count, dtype=np.uint64)
    distinct = keys[:0]
    filled = 0
    while pos < len(text):
        # a chunk ends where a separator begins, so no token is cut
        cut = _SEPARATOR.search(text, pos + CHUNK_BYTES)
        end = len(text) if cut is None else cut.start()
        chunk = _chunk_keys(text[pos:end])
        if chunk is None or filled + chunk.size > count:
            return None
        distinct = _distinct(np.concatenate((distinct, chunk)))
        if distinct.size > MAX_DISTINCT_TOKENS:
            return None
        keys[filled:filled + chunk.size] = chunk
        filled += chunk.size
        pos = end
    if filled != count:
        return None
    tokens = [k.to_bytes(8, "little").rstrip(b"\0") for k in distinct.tolist()]
    if not all(map(_NUMBER.fullmatch, tokens)):
        return None
    try:
        table = np.array([float(t) for t in tokens], dtype=np.float64)
    except ValueError:
        return None
    if np.isinf(table).any():
        return None
    _check_range(table, count)
    # each float takes its key's place, CHUNK_BYTES of index at a time
    vals = keys.view(np.float64)
    step = CHUNK_BYTES // 8
    for lo in range(0, count, step):
        vals[lo:lo + step] = table[np.searchsorted(distinct, keys[lo:lo + step])]
    return vals


def read_truth_table(path: str) -> RealFn:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedInput(str(exc)) from exc
    # offsets into text, not a list of lines: a real= body of 2^n
    # decimals is not copied line by line
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
        line = text[start + 5:end].rstrip().encode()
        bits = np.frombuffer(line, dtype=np.uint8) - np.uint8(ord("0"))
        if bits.size != ambient.size or (bits > 1).any():
            raise MalformedInput(f"bits= needs exactly {ambient.size} chars of 0/1")
        if _BLANK.match(text, end).end() != len(text):
            raise MalformedInput("unexpected content after the bits= line")
        # entries 0 and 1: nothing for RealFn's finiteness scan to find
        return RealFn._unchecked(ambient, bits.astype(np.float64))
    if text.startswith("real=", start):
        try:
            vals = _short_reals(text, start + 5, ambient.size)
            if vals is not None:
                return RealFn(ambient, vals)
            vals = np.fromstring(text[start + 5:], sep=" ")
            if vals.size != ambient.size:  # fromstring reads a blank body as [-1.0]
                raise ValueError(f"real= needs exactly {ambient.size} decimals")
            f = RealFn(ambient, vals)  # refuses nan and inf first
            _check_range(vals, ambient.size)
            return f
        except ValueError as exc:
            raise MalformedInput(str(exc)) from exc
    raise MalformedInput("second line must start with bits= or real=")


def _format_reals(vals: np.ndarray) -> Iterator[bytes]:
    """The bytes of " ".join(repr(float(v)) for v in vals), yielded in
    pieces of CHUNK_BYTES // 8 entries.  Each distinct float64 bit pattern
    is formatted once, as its repr, NUL padding and a space, into a
    fixed-width token table: a projection or a step function has few
    distinct values among its 2^n entries.  A piece gathers its tokens,
    and one bytes pass drops the padding; the last piece drops its
    trailing space too.  Keyed on the bits, so -0.0 keeps its own repr
    apart from 0.0."""
    bits = np.ascontiguousarray(vals, dtype=np.float64).view(np.uint64)
    distinct = _distinct(bits)
    words = list(map(repr, distinct.view(np.float64).tolist()))
    w = max(map(len, words), default=1)
    # a token is its repr, NUL padding to the longest repr, and a space
    cells = np.empty((distinct.size, w + 1), dtype=np.uint8)
    cells[:, :w] = np.array(words, dtype=f"S{w}").view(np.uint8).reshape(-1, w)
    cells[:, w] = _SPACE
    tokens = cells.view(f"S{w + 1}").ravel()
    step = CHUNK_BYTES // 8
    for lo in range(0, bits.size, step):
        # np.take gathers fixed-width bytes faster than indexing does
        piece = np.take(tokens, np.searchsorted(distinct, bits[lo:lo + step])).tobytes()
        piece = piece.translate(None, b"\0")
        yield piece if lo + step < bits.size else piece[:-1]


def write_truth_table(path: str, f: RealFn) -> None:
    vals = f.values
    with open(path, "wb") as fh:
        fh.write(b"n=%d\n" % f.ambient.n)
        if ((vals == 0) | (vals == 1)).all():
            digits = vals.astype(np.uint8)
            digits += ord("0")
            fh.write(b"bits=")
            fh.write(digits)
        else:
            fh.write(b"real=")
            fh.writelines(_format_reals(vals))
        fh.write(b"\n")
