import json
import math
import os
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specnorm.io
from specnorm import laws
from specnorm.cli import (
    EXIT_BAD_INPUT,
    EXIT_INCOMPLETE,
    EXIT_LAW_FAILURE,
    EXIT_OK,
    main,
)
from specnorm.fourier import RealFn, wht
from specnorm.decompose import decompose
from specnorm.generate import flat_indicator, gen_coset_ring, gen_random_boolean, rng_for
from specnorm.gf2 import Ambient, rref_span
from specnorm.io import (
    MAX_DISTINCT_TOKENS,
    SHORT_TOKEN_BYTES,
    MalformedInput,
    _format_reals,
    _short_reals,
    read_truth_table,
    write_truth_table,
)
from specnorm.spectral import psi


def reference_real_line(vals):
    """The real= body and psi stdout line as one repr per entry."""
    return " ".join(repr(float(v)) for v in vals)


def formatted(vals):
    """_format_reals's pieces joined and decoded."""
    return b"".join(_format_reals(vals)).decode()


def _format_cases():
    rng = np.random.default_rng(7)
    a = Ambient(10)
    f = RealFn(a, rng.uniform(-1, 1, a.size))
    H = rref_span(a, [0b11, 0b1000, 0b100000])
    tiny = np.array([5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -0.0, 0.0])
    return {
        "psi-real": psi(f, H).values,
        "psi-boolean": psi(flat_indicator(rref_span(a, [0b101]), 3), H).values,
        "uniform": rng.uniform(-1, 1, 1000),
        "signed-zeros": np.array([0.0, -0.0, 0.0, -0.0, 1.0, -0.0]),
        "subnormals": np.concatenate([tiny, tiny[::-1] * 3]),
        "1e16-range": rng.uniform(-1, 1, 300) * 10.0 ** rng.integers(-17, 17, 300),
    }


FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


class TestFormatReals:
    @pytest.mark.parametrize("case", sorted(_format_cases()))
    def test_matches_reference(self, case):
        vals = _format_cases()[case]
        assert formatted(vals) == reference_real_line(vals)

    @given(st.lists(FINITE_FLOATS, min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_drawn_floats(self, xs):
        vals = np.array(xs, dtype=np.float64)
        assert formatted(vals) == reference_real_line(vals)

    def test_one_distinct_value(self):
        vals = np.full(1000, 0.375)
        assert formatted(vals) == reference_real_line(vals)

    def test_long_and_short_tokens(self):
        # tokens of up to 19 bytes padded in the same table as 3-byte ones
        rng = np.random.default_rng(3)
        words = np.array([1.0, -2.0, 0.1, 0.1 + 0.2, -1e-310, 2.0 / 3, -123456.789e200])
        vals = words[rng.integers(0, words.size, 5000)]
        assert formatted(vals) == reference_real_line(vals)
        lengths = [len(repr(w)) for w in words.tolist()]
        assert min(lengths) == 3 and max(lengths) == 19

    @pytest.mark.parametrize("size", [48, 52])
    def test_token_change_at_piece_boundary(self, size):
        # pieces of 8 entries, and the value changes on each piece's first
        # entry; the last piece is full or a stub
        vals = np.repeat([0.5, -0.0, 1e-7, 0.25, 3.0, 0.5, 7.0], 8)[:size]
        with mock.patch.object(specnorm.io, "CHUNK_BYTES", 64):
            pieces = list(_format_reals(vals))
        want = [repr(float(v)) for v in vals]
        assert len(pieces) == -(-size // 8)
        for k, piece in enumerate(pieces):
            body = " ".join(want[8 * k:8 * k + 8])
            assert piece.decode() == (body if k == len(pieces) - 1 else body + " ")

    @given(st.lists(FINITE_FLOATS, min_size=1, max_size=4), st.data(), st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_few_values_across_pieces(self, words, data, step):
        idx = data.draw(st.lists(st.integers(0, len(words) - 1), min_size=1, max_size=40))
        vals = np.array(words)[idx]
        with mock.patch.object(specnorm.io, "CHUNK_BYTES", 8 * step):
            assert formatted(vals) == reference_real_line(vals)

    def test_psi_stdout(self, coset_table, capsys):
        path, f = coset_table
        assert main(["psi", "--input", path, "--subgroup", '["0x3"]']) == EXIT_OK
        want = reference_real_line(psi(f, rref_span(f.ambient, [0b11])).values)
        assert capsys.readouterr().out == want + "\n"


@pytest.fixture
def coset_table(tmp_path):
    a = Ambient(4)
    H = rref_span(a, [0b0011, 0b1000])
    f = flat_indicator(H, 0b0100)
    path = tmp_path / "coset.txt"
    write_truth_table(str(path), f)
    return str(path), f


# files read_truth_table must refuse; each also gives exit 2 on the CLI
MALFORMED = [
    "",
    "bits=1010\n",
    "n=2\nbits=101\n",
    "n=2\nbits=10102\n",
    "n=0\nbits=\n",
    "n=2\nreal=1.0 0.5 nan 0.0\n",
    "n=2\nreal=1.0 0.5\n",
    "n=2\nreal=1.0,0.5,0.0,0.0\n",
    "n=2\nreal=1.0 0.5 0.0 0.0 x\n",
    "n=2\nreal= \n \n",
    "n=2\nbits=1010\n0101\n",  # content after the bits= line
    b"n=2\nreal=1.0 \xff 0.0 0.0\n",  # not UTF-8
    # syntax float() takes and np.fromstring refuses, or a non-finite value
    "n=2\nreal=1_0 0.5 0.0 0.0\n",
    "n=2\nreal=\u0661 0.5 0.0 0.0\n",  # ARABIC-INDIC DIGIT ONE
    "n=2\nreal= infinity 0.5 0.0 0.0\n",
    "n=2\nreal=1.0\x1c0.5 0.0 0.0\n",  # a separator to float(), not to fromstring
    "n=2\nbits=10\u00e91\n",  # four characters, five bytes
    "n=2\nbits=1021\n",
]

WHITESPACE = " \t\n\r\v\f"


def reference_read_real(body, size):
    """What read_truth_table gives for a real= body: np.fromstring(body,
    sep=" ") when that parses to size finite values whose transform cannot
    overflow (size * max|v| finite), None when the file is malformed."""
    try:
        vals = np.fromstring(body, sep=" ")
    except ValueError:
        return None
    if vals.size != size or not np.isfinite(vals).all():
        return None
    if not math.isfinite(size * float(np.abs(vals).max())):
        return None
    return vals


def read_text(text):
    """read_truth_table on a file holding text, or None on MalformedInput."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.txt")
        with open(path, "wb") as fh:
            fh.write(text.encode())
        try:
            return read_truth_table(path).values
        except MalformedInput:
            return None


def assert_reads_like_fromstring(n, body):
    want = reference_read_real(body, 1 << n)
    got = read_text(f"n={n}\nreal={body}")
    if want is None:
        assert got is None
    else:
        assert got is not None and np.array_equal(got.view(np.uint64), want.view(np.uint64))


@st.composite
def real_bodies(draw):
    """(n, body, short): a real= body of a dyadic step table (short tokens)
    or of uniform reals (17-digit tokens), its tokens separated by runs
    of whitespace, with leading and trailing runs."""
    n = draw(st.integers(1, 6))
    short = draw(st.booleans())
    if short:
        ints = draw(st.lists(st.integers(-8, 8), min_size=1 << n, max_size=1 << n))
        vals = np.array(ints, dtype=np.float64) / 2.0 ** draw(st.integers(0, 4))
    else:
        vals = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1, 1, 1 << n)
    runs = st.text(alphabet=WHITESPACE, min_size=1, max_size=4)
    body = draw(st.text(alphabet=WHITESPACE, max_size=4))
    for v in vals.tolist():
        body += repr(v) + draw(runs)
    return n, body, short


# tokens over np.fromstring's number bytes: anything, and decimals
FUZZ_TOKENS = st.one_of(
    st.text(alphabet="0123456789.eE+-", min_size=1, max_size=SHORT_TOKEN_BYTES),
    st.from_regex(r"[+-]?[0-9]{0,3}\.?[0-9]{0,3}([eE][+-]?[0-9]{1,3})?", fullmatch=True).filter(
        lambda s: 0 < len(s) <= SHORT_TOKEN_BYTES),
)


class TestRealReader:
    @given(real_bodies())
    @settings(max_examples=200, deadline=None)
    def test_bodies_read_like_fromstring(self, case):
        n, body, short = case
        assert_reads_like_fromstring(n, body)
        # dyadic tokens take the keyed path, 17-digit ones go to fromstring
        text = f"n={n}\nreal={body}"
        assert (_short_reals(text, len(f"n={n}\nreal="), 1 << n) is not None) == short

    @given(real_bodies(), st.integers(8, 40))
    @settings(max_examples=200, deadline=None)
    def test_small_chunks(self, case, chunk):
        # chunk and lookup boundaries fall inside the body and its tokens'
        # separator runs
        n, body, short = case
        with mock.patch.object(specnorm.io, "CHUNK_BYTES", chunk):
            assert_reads_like_fromstring(n, body)
            text = f"n={n}\nreal={body}"
            assert (_short_reals(text, len(f"n={n}\nreal="), 1 << n) is not None) == short

    @given(st.lists(FUZZ_TOKENS, min_size=4, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_token_fuzz(self, tokens):
        assert_reads_like_fromstring(2, " ".join(tokens) + "\n")

    @pytest.mark.parametrize("token, keyed", [("1.000000", True), ("1.0000000", False)])
    def test_short_token_edge(self, token, keyed):
        assert len(token) == SHORT_TOKEN_BYTES + (not keyed)
        # the token first, and after a short one
        for body in (f"{token} 0.5 {token} 0.25\n", f"0.5 {token} 0.25 {token}\n"):
            text = "n=2\nreal=" + body
            assert (_short_reals(text, len("n=2\nreal="), 4) is not None) == keyed
            assert_reads_like_fromstring(2, body)

    @pytest.mark.parametrize("extra, keyed", [(0, True), (1, False)])
    def test_distinct_token_edge(self, extra, keyed):
        # MAX_DISTINCT_TOKENS distinct tokens are keyed, one more goes to fromstring
        n = 11
        vals = np.arange(1 << n) % (MAX_DISTINCT_TOKENS + extra) / 4.0
        body = " ".join(map(repr, vals.tolist()))
        assert max(map(len, body.split())) <= SHORT_TOKEN_BYTES
        text = f"n={n}\nreal={body}"
        assert (_short_reals(text, len(f"n={n}\nreal="), 1 << n) is not None) == keyed
        assert_reads_like_fromstring(n, body)

    def test_too_many_tokens(self):
        assert _short_reals("n=1\nreal=0.5 0.5 0.5\n", len("n=1\nreal="), 2) is None
        assert read_text("n=1\nreal=0.5 0.5 0.5\n") is None
        assert read_text("n=1\nreal=" + "0.5 " * 40) is None


class TestTruthTableIO:
    def test_bits_roundtrip(self, tmp_path):
        a = Ambient(3)
        f = RealFn(a, np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=float))
        p = tmp_path / "f.txt"
        write_truth_table(str(p), f)
        text = p.read_text()
        assert text.splitlines()[0] == "n=3"
        assert text.splitlines()[1].startswith("bits=")
        g = read_truth_table(str(p))
        assert g.ambient == a and np.array_equal(g.values, f.values)

    def test_real_roundtrip(self, tmp_path):
        a = Ambient(3)
        f = RealFn(a, np.linspace(-1.5, 2.0, 8))
        p = tmp_path / "f.txt"
        write_truth_table(str(p), f)
        assert p.read_text().splitlines()[1].startswith("real=")
        g = read_truth_table(str(p))
        assert np.allclose(g.values, f.values, atol=0)

    def test_real_roundtrip_bit_exact(self, tmp_path):
        # random bit patterns reach subnormals, -0.0 and extreme exponents;
        # the reader refuses values whose 2^12-entry transform could overflow
        bits = np.random.default_rng(0).integers(0, 2**64, 1 << 12, dtype=np.uint64)
        vals = bits.view(np.float64)
        vals[~(np.abs(vals) <= np.finfo(np.float64).max / vals.size)] = 0.5
        assert np.abs(vals).max() > 2.0**1000
        p = tmp_path / "f.txt"
        write_truth_table(str(p), RealFn(Ambient(12), vals))
        g = read_truth_table(str(p))
        assert np.array_equal(g.values.view(np.uint64), vals.view(np.uint64))

    def test_bits_then_blank_lines(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("n=2\nbits=0101\n\n \t\n")
        assert np.array_equal(read_truth_table(str(p)).values, [0.0, 1.0, 0.0, 1.0])

    def test_real_multiline(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("n=2\nreal=1.0 0.5\n-0.5 0.25\n")
        g = read_truth_table(str(p))
        assert np.array_equal(g.values, [1.0, 0.5, -0.5, 0.25])

    @pytest.mark.parametrize("n", [1, 8])
    def test_bits_line_matches_char_join(self, tmp_path, n):
        rng = np.random.default_rng(n)
        a = Ambient(n)
        for t in range(20):
            vals = (rng.random(a.size) < 0.5).astype(float)
            p = tmp_path / f"f{t}.txt"
            write_truth_table(str(p), RealFn(a, vals))
            bits = "".join("1" if v else "0" for v in vals)
            assert p.read_bytes() == f"n={n}\nbits={bits}\n".encode()

    @pytest.mark.parametrize("text", MALFORMED)
    def test_malformed(self, tmp_path, text):
        p = tmp_path / "bad.txt"
        p.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(MalformedInput):
            read_truth_table(str(p))


class TestWriteTruthTable:
    @pytest.mark.parametrize("n", [16, 17, 20])
    def test_real_file_bytes(self, tmp_path, n):
        # a projection (few distinct values) and dense 17-digit reals mixed
        a = Ambient(n)
        rng = rng_for(n)
        ring, _ = gen_coset_ring(a, 3, 2, rng)
        vals = psi(ring, rref_span(a, [0b11, 1 << (n - 1)])).values.copy()
        vals[rng.integers(0, a.size, 1000)] = rng.uniform(-1, 1, 1000)
        p = tmp_path / "f.txt"
        write_truth_table(str(p), RealFn(a, vals))
        want = f"n={n}\nreal=".encode() + reference_real_line(vals).encode() + b"\n"
        assert p.read_bytes() == want

    def test_bits_with_negative_zero(self, tmp_path):
        vals = np.array([0.0, -0.0, 1.0, -0.0, 1.0, 1.0, 0.0, 0.0])
        p = tmp_path / "f.txt"
        write_truth_table(str(p), RealFn(Ambient(3), vals))
        assert p.read_bytes() == b"n=3\nbits=00101100\n"

    def test_real_when_one_entry_is_not_a_bit(self, tmp_path):
        vals = np.array([0.0, 1.0, 1.0, 2.0])
        p = tmp_path / "f.txt"
        write_truth_table(str(p), RealFn(Ambient(2), vals))
        assert p.read_bytes() == b"n=2\nreal=0.0 1.0 1.0 2.0\n"


class TestWhtAnorm:
    def test_wht(self, coset_table, tmp_path, capsys):
        path, f = coset_table
        out = tmp_path / "spec.json"
        assert main(["wht", "--input", path, "--out", str(out)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "a_norm=" in text and "parseval_residual=" in text
        doc = json.loads(out.read_text())
        coeffs = [abs(e["coeff"]) for e in doc]
        assert coeffs == sorted(coeffs, reverse=True)
        assert all(e["r"].startswith("0x") for e in doc)

    def test_parseval_residual_bits_at_most_1(self, tmp_path, capsys):
        # tables with max|v| <= 1 are squared unscaled
        a = Ambient(6)
        f = RealFn(a, np.random.default_rng(3).uniform(-1, 1, a.size))
        path = tmp_path / "f.txt"
        write_truth_table(str(path), f)
        assert main(["wht", "--input", str(path)]) == EXIT_OK
        want = abs(float(np.mean(f.values**2)) - float(np.sum(wht(f).coeffs**2)))
        assert capsys.readouterr().out.splitlines()[-1] == f"parseval_residual={want!r}"

    @pytest.mark.parametrize("body, residual", [
        (" ".join(["1e200"] * 8), "0.0"),
        # scaled residual a few ulps, past float64 once scaled back
        ("2.3643249400513433e+298 9.009273926518707e+299 -7.116807745607326e+299 "
         "8.972988942744877e+299 -3.763370959790291e+299 -1.533471020548487e+299 "
         "6.5540518764088354e+299 -1.8160172726167745e+299", "inf"),
    ], ids=["1e200", "past-float64"])
    def test_parseval_residual_of_huge_reals(self, tmp_path, capsys, body, residual):
        # squared unscaled, these tables overflow; the suite turns the
        # numpy warning into an error
        p = tmp_path / "f.txt"
        p.write_text(f"n=3\nreal={body}\n")
        assert main(["wht", "--input", str(p)]) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines()[-1] == f"parseval_residual={residual}"

    def test_anorm_coset_is_one(self, coset_table, capsys):
        path, _ = coset_table
        assert main(["anorm", "--input", path]) == EXIT_OK
        val = float(capsys.readouterr().out.split("=")[1])
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_missing_file(self, tmp_path, capsys):
        code = main(["anorm", "--input", str(tmp_path / "nope.txt")])
        assert code == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestPsi:
    def test_psi_full_projection(self, coset_table, tmp_path):
        path, f = coset_table
        out = tmp_path / "proj.txt"
        code = main(
            ["psi", "--input", path, "--subgroup", '["0x3", "0x8"]',
             "--out", str(out)]
        )
        assert code == EXIT_OK
        g = read_truth_table(str(out))
        assert np.allclose(g.values, f.values, atol=1e-12)

    def test_bad_subgroup(self, coset_table):
        path, _ = coset_table
        assert (
            main(["psi", "--input", path, "--subgroup", "not json"])
            == EXIT_BAD_INPUT
        )


class TestDecomposeCmd:
    def test_coset_two_terms(self, coset_table, tmp_path):
        path, _ = coset_table
        out = tmp_path / "dec.json"
        code = main(["decompose", "--input", path, "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["exact"] and doc["L"] == 2 and doc["n"] == 4

    def test_file_key_order(self, coset_table, tmp_path):
        # the corpus digest sorts its keys, so only this pins the written order
        path, _ = coset_table
        out = tmp_path / "dec.json"
        assert main(["decompose", "--input", path, "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert list(doc) == ["n", "L", "terms", "report", "exact"]
        assert list(doc["report"]) == ["L", "depth", "splits", "fallback_used", "exact"]
        assert [list(split) for split in doc["report"]["splits"]] == [
            ["a_norm_before", "a_norm_f1", "a_norm_f2", "eta", "eps_level"]]

    def test_non_integer_input(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("n=2\nreal=0.3 0.0 0.0 0.0\n")
        assert main(["decompose", "--input", str(p)]) == EXIT_BAD_INPUT

    @pytest.mark.parametrize("value", ["1e17", "1e300"])
    def test_too_many_terms(self, tmp_path, capsys, value):
        # one point mass of value 1e17 would expand to 2e17 terms
        p = tmp_path / "f.txt"
        p.write_text(f"n=3\nreal=0 0 0 {value} 0 0 0 0\n")
        # the suite turns warnings into errors, so a numpy warning fails here
        assert main(["decompose", "--input", str(p)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "MAX_TERMS" in err


# eight entries whose sum overflows, read through keys and through fromstring
@pytest.mark.parametrize("token", ["1e308", "1.2345678901234567e308"])
@pytest.mark.parametrize("argv", [
    ["anorm"], ["wht"], ["psi", "--subgroup", '["0x1"]'], ["decompose"]],
    ids=lambda a: a[0])
def test_transform_overflow_exit_2(tmp_path, capsys, token, argv):
    p = tmp_path / "f.txt"
    p.write_text("n=3\nreal=" + " ".join([token] * 8) + "\n")
    # no numpy warning either: the suite turns warnings into errors
    assert main(argv[:1] + ["--input", str(p)] + argv[1:]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "too large" in err


class TestVerifyCmd:
    def test_pass(self, capsys):
        code = main(["verify", "approx-hom", "--n", "6", "--trials", "10"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out and "failures=0" in out

    def test_roundtrip_pass(self, capsys):
        code = main(
            ["verify", "roundtrip", "--n", "5", "--trials", "5", "--seed", "3"]
        )
        assert code == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_plain_tiny_norm_runs_n4(self, capsys):
        assert main(["verify", "tiny-norm"]) == EXIT_OK
        assert "trials=65535 failures=0" in capsys.readouterr().out

    @pytest.mark.parametrize("law,args", [
        ("tiny-norm", (4, 100, 0)), ("pd", (8, 100, 0)),
        ("approx-hom", (8, 100, 0)), ("roundtrip", (8, 100, 0))])
    def test_defaults(self, monkeypatch, law, args):
        seen = []

        def passing(*a):
            seen.append(a)
            rep = laws.LawReport(law_id=law)
            rep.record(0.0, None)  # a report with no trial does not pass
            return rep

        monkeypatch.setitem(laws.CHECKS, law, passing)
        assert main(["verify", law]) == EXIT_OK
        assert seen == [args]

    def test_json(self, capsys):
        assert main(["verify", "tiny-norm", "--n", "3", "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["law_id"] == "tiny-norm"
        assert doc["trials"] == 255 and doc["failures"] == 0
        assert doc["notes"]["min_noncoset_anorm"] == 1.5

    def test_json_failure_keeps_exit_code_and_file(self, monkeypatch, tmp_path, capsys):
        def failing(n, trials, seed):
            rep = laws.LawReport(law_id="fake")
            rep.record(-1.0, {"trial": 0})
            return rep

        monkeypatch.setitem(laws.CHECKS, "approx-hom", failing)
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "approx-hom", "--json"]) == EXIT_LAW_FAILURE
        doc = json.loads(capsys.readouterr().out)
        assert doc["failures"] == 1 and doc["counterexample"] == {"trial": 0}
        written = json.loads((tmp_path / "fake-counterexample.json").read_text())
        assert written == {"trial": 0}


class TestGenCmd:
    def test_coset_ring(self, tmp_path):
        out = tmp_path / "g.txt"
        code = main(
            ["gen", "coset-ring", "--n", "6", "--flats", "2", "--depth", "1",
             "--seed", "4", "--out", str(out)]
        )
        assert code == EXIT_OK
        f = read_truth_table(str(out))
        assert set(np.unique(f.values)) <= {0.0, 1.0}
        record = json.loads((tmp_path / "g.txt.json").read_text())
        assert record["n"] == 6

    def test_coset_ring_defaults(self, tmp_path):
        # without --flats and --depth, coset-ring builds 2 flats at depth 1
        outs = [tmp_path / "default.txt", tmp_path / "given.txt"]
        flags = [[], ["--flats", "2", "--depth", "1"]]
        for out, extra in zip(outs, flags):
            argv = ["gen", "coset-ring", "--n", "6", "--seed", "4", "--out", str(out)]
            assert main(argv + extra) == EXIT_OK
        for suffix in ("", ".json"):
            want = (tmp_path / ("given.txt" + suffix)).read_bytes()
            assert (tmp_path / ("default.txt" + suffix)).read_bytes() == want

    @pytest.mark.parametrize("kind, keys", [
        ("coset-ring", ["n", "kind", "seed", "flats", "ops"]),
        ("random-boolean", ["n", "kind", "seed"]),
        ("subgroup", ["n", "kind", "seed", "basis"]),
    ])
    def test_sidecar_records_kind_and_seed(self, tmp_path, kind, keys):
        out = tmp_path / "g.txt"
        assert main(["gen", kind, "--n", "5", "--seed", "6", "--out", str(out)]) == EXIT_OK
        record = json.loads((tmp_path / "g.txt.json").read_text())
        assert list(record) == keys
        assert (record["n"], record["kind"], record["seed"]) == (5, kind, 6)

    def test_deterministic(self, tmp_path):
        a_out = tmp_path / "a.txt"
        b_out = tmp_path / "b.txt"
        for out in (a_out, b_out):
            main(["gen", "random-boolean", "--n", "5", "--seed", "9",
                  "--out", str(out)])
        assert a_out.read_text() == b_out.read_text()

    def test_gen_decompose_pipeline(self, tmp_path):
        out = tmp_path / "g.txt"
        main(["gen", "coset-ring", "--n", "7", "--flats", "3", "--depth", "2",
              "--seed", "5", "--out", str(out)])
        code = main(["decompose", "--input", str(out),
                     "--out", str(tmp_path / "d.json")])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "d.json").read_text())
        assert doc["exact"]


class TestBenchCmd:
    def test_wht_json(self, capsys):
        code = main(["bench", "wht", "--n", "10", "--reps", "3", "--json"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["active_backend"] == "numpy-radix16"
        assert list(doc["results"]) == ["numpy-radix16"]
        for stats in doc["results"].values():
            assert stats["median_s"] > 0

    DECOMPOSE_ROWS = ["decompose", "expand", "evaluate", "random-boolean decompose",
                      "random-boolean expand", "random-boolean evaluate"]

    def test_decompose_text(self, capsys):
        code = main(["bench", "decompose", "--n", "8", "--reps", "2"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("[")[1].split("]")[0] for line in lines] == self.DECOMPOSE_ROWS
        assert all("median=" in line and " L=" in line for line in lines)

    def test_decompose_json(self, capsys):
        # n = 13: above the old cap of 12
        assert main(["bench", "decompose", "--n", "13", "--reps", "1", "--json"]) == EXIT_OK
        results = json.loads(capsys.readouterr().out)["results"]
        assert list(results) == self.DECOMPOSE_ROWS
        # the coset ring, then a random boolean table from the same stream
        rng = rng_for(0)
        f, _ = gen_coset_ring(Ambient(13), 3, 2, rng)
        g = gen_random_boolean(Ambient(13), rng)
        for name, stats in results.items():
            assert stats["median_s"] > 0 and stats["p90_s"] >= stats["median_s"]
            table = g if name.startswith("random-boolean") else f
            assert stats["L"] == decompose(table)[0].L

    def test_psi_json(self, capsys):
        code = main(["bench", "psi", "--n", "9", "--reps", "2", "--json"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert (doc["what"], doc["n"], doc["reps"]) == ("psi", 9, 2)
        assert {name: stats["dim"] for name, stats in doc["results"].items()} == {
            "dim=2": 2, "codim=4": 5, "low": 2}
        for stats in doc["results"].values():
            assert stats["median_s"] > 0 and stats["p90_s"] >= stats["median_s"]

    def test_support_json(self, capsys):
        code = main(["bench", "support", "--n", "8", "--reps", "2", "--json"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert list(doc["results"]) == ["coset-ring", "reals"]
        # dense reals have every |fhat| above 2^-(n+1): n steps to {0}
        assert doc["results"]["reals"]["steps"] == 8
        assert 0 <= doc["results"]["coset-ring"]["steps"] <= 8
        for stats in doc["results"].values():
            assert stats["median_s"] > 0

    def test_support_text(self, capsys):
        assert main(["bench", "support", "--n", "6", "--reps", "1"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[2] for line in lines] == ["[coset-ring]", "[reals]"]
        assert lines[1].endswith(" steps=6")

    def test_io_json(self, capsys):
        assert main(["bench", "io", "--n", "8", "--reps", "2", "--json"]) == EXIT_OK
        results = json.loads(capsys.readouterr().out)["results"]
        names = ("coset-ring", "projection", "reals", "rounded")
        assert list(results) == [f"{op} {name}" for name in names for op in ("write", "read")]
        for stats in results.values():
            assert stats["median_s"] > 0
        sizes = [results[f"write {name}"]["bytes"] for name in names]
        # bits=, then short real= tokens, then 17-digit ones, then at most 8 bytes
        assert sizes[0] == len("n=8\nbits=\n") + 256 and sizes[0] < sizes[1] < sizes[2]
        assert sizes[3] <= len("n=8\nreal=\n") + 9 * 256 < sizes[2]

    def test_too_large(self):
        assert main(["bench", "wht", "--n", "30"]) == EXIT_BAD_INPUT

    def test_reps_zero(self, capsys):
        assert main(["bench", "wht", "--n", "4", "--reps", "0"]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err == "error: --reps must be >= 1, got 0\n"

    @pytest.mark.parametrize("what", ["wht", "decompose", "psi", "support", "io"])
    def test_n_zero(self, what, capsys):
        assert main(["bench", what, "--n", "0"]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("what, n", [
        ("psi", "3"), ("psi", "25"), ("support", "25"), ("io", "1"), ("decompose", "21")])
    def test_bad_n(self, what, n, capsys):
        # psi needs subgroups of dimension 2 and n - 4; n = 25 exceeds
        # gf2.MAX_N; decompose is capped at 20
        assert main(["bench", what, "--n", n]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


# path placeholders, filled in per test: TABLE a valid truth table, OUT a
# writable file, MISSING a file in a directory that does not exist, BINARY
# a table with a 0xff byte, DIR a directory, TRAILING a table with a line of
# text after its bits= line
@pytest.mark.parametrize(
    "argv",
    [
        ["psi", "--input", "TABLE", "--subgroup", "5"],
        ["psi", "--input", "TABLE", "--subgroup", "[5]"],
        ["gen", "coset-ring", "--n", "6", "--flats", "0", "--out", "OUT"],
        ["verify", "tiny-norm", "--n", "6"],
        ["verify", "roundtrip", "--n", "30"],
        ["psi", "--input", "TABLE", "--subgroup", "{}"],
        ["psi", "--input", "TABLE", "--subgroup", '{"0x3": 1}'],
        ["psi", "--input", "TABLE", "--subgroup", '"3"'],
        ["verify", "pd", "--n", "30"],
        ["verify", "tiny-norm", "--n", "0"],
        ["verify", "approx-hom", "--trials", "0"],
        ["verify", "roundtrip", "--trials", "0"],
        ["wht", "--input", "TABLE", "--out", "MISSING"],
        ["psi", "--input", "TABLE", "--subgroup", '["0x3"]', "--out", "MISSING"],
        ["decompose", "--input", "TABLE", "--out", "MISSING"],
        ["gen", "coset-ring", "--n", "6", "--out", "MISSING"],
        ["anorm", "--input", "BINARY"],
        ["anorm", "--input", "DIR"],
        ["anorm", "--input", "TRAILING"],
        ["verify", "pd", "--n", "4"],
        ["verify", "pd", "--trials", "5"],
        ["verify", "pd", "--seed", "1"],
        ["verify", "tiny-norm", "--trials", "5"],
        ["verify", "tiny-norm", "--seed", "1"],
        ["gen", "coset-ring", "--n", "6", "--depth", "-1", "--out", "OUT"],
        ["verify", "connectedness", "--n", "1"],
        ["gen", "random-boolean", "--n", "4", "--flats", "7", "--out", "OUT"],
        ["gen", "random-boolean", "--n", "4", "--depth", "-3", "--out", "OUT"],
        ["gen", "subgroup", "--n", "4", "--flats", "2", "--out", "OUT"],
        ["gen", "subgroup", "--n", "4", "--depth", "1", "--out", "OUT"],
    ],
    ids=["psi-subgroup-int", "psi-subgroup-int-word", "gen-flats-0",
         "verify-tiny-norm-n6", "verify-roundtrip-n30",
         "psi-subgroup-object", "psi-subgroup-object-keys", "psi-subgroup-string",
         "verify-pd-n30", "verify-tiny-norm-n0", "verify-approx-hom-trials-0",
         "verify-roundtrip-trials-0", "wht-out-missing-dir",
         "psi-out-missing-dir", "decompose-out-missing-dir",
         "gen-out-missing-dir", "anorm-input-not-utf8", "anorm-input-dir",
         "anorm-input-after-bits",
         "verify-pd-n", "verify-pd-trials", "verify-pd-seed",
         "verify-tiny-norm-trials", "verify-tiny-norm-seed",
         "gen-depth-negative", "verify-connectedness-n1",
         "gen-random-boolean-flats", "gen-random-boolean-depth",
         "gen-subgroup-flats", "gen-subgroup-depth"],
)
def test_bad_flags_exit_2(argv, coset_table, tmp_path, capsys):
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"n=2\nreal=1.0 \xff 0.0 0.0\n")
    trailing = tmp_path / "trailing.txt"
    trailing.write_text("n=2\nbits=0101\ngarbage here\n")
    paths = {"TABLE": coset_table[0], "OUT": str(tmp_path / "g.txt"),
             "MISSING": str(tmp_path / "no-such-dir" / "out"),
             "BINARY": str(binary), "DIR": str(tmp_path), "TRAILING": str(trailing)}
    argv = [paths.get(a, a) for a in argv]
    assert main(argv) == EXIT_BAD_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not os.path.exists(paths["OUT"])


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_file_exit_2(tmp_path, capsys, text):
    p = tmp_path / "bad.txt"
    p.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["anorm", "--input", str(p)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("body", ["1e999 0", "-1e999 0", "1e999 0.12345678901234567"])
def test_infinite_token_message(tmp_path, capsys, body):
    # a token that parses to +-inf reads the same whether the body is short
    # tokens or goes whole to np.fromstring
    p = tmp_path / "f.txt"
    p.write_text(f"n=1\nreal={body}\n")
    assert main(["anorm", "--input", str(p)]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err == "error: non-finite entries\n"


class TestExitCodes:
    def test_constants(self):
        assert (EXIT_OK, EXIT_LAW_FAILURE, EXIT_BAD_INPUT, EXIT_INCOMPLETE) == (
            0, 1, 2, 3,
        )


def test_one_process_matches_separate_calls(tmp_path, capsys):
    # main reuses one parser: subcommands alternating through one process,
    # usage errors and input errors among them, print and exit as they do
    # one process per call
    src = str(tmp_path / "f.txt")
    argvs = [
        ["gen", "coset-ring", "--n", "6", "--seed", "3", "--out", src],
        ["wht", "--input", src],
        ["psi", "--input", src, "--subgroup", '["0x5", "0x2"]'],
        ["anorm", "--input", str(tmp_path / "missing.txt")],
        ["wht"],
        ["verify", "pd", "--trials", "5"],
        ["anorm", "--input", src],
        ["psi", "--input", src, "--subgroup", '["0x3"]'],
        ["wht", "--input", src],
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(specnorm.io.__file__)), os.environ.get("PYTHONPATH", "")])}
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        out, err = capsys.readouterr()
        sep = subprocess.run([sys.executable, "-m", "specnorm.cli", *argv], env=env,
                             capture_output=True, text=True)
        assert (code, out, err) == (sep.returncode, sep.stdout, sep.stderr), argv
