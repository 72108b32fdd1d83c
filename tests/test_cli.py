import json

import numpy as np
import pytest

from specnorm import laws
from specnorm.cli import (
    EXIT_BAD_INPUT,
    EXIT_INCOMPLETE,
    EXIT_LAW_FAILURE,
    EXIT_OK,
    main,
)
from specnorm.fourier import RealFn
from specnorm.generate import flat_indicator
from specnorm.gf2 import Ambient, rref_span
from specnorm.io import MalformedInput, read_truth_table, write_truth_table


@pytest.fixture
def coset_table(tmp_path):
    a = Ambient(4)
    H = rref_span(a, [0b0011, 0b1000])
    f = flat_indicator(H, 0b0100)
    path = tmp_path / "coset.txt"
    write_truth_table(str(path), f)
    return str(path), f


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
        # random bit patterns reach subnormals, -0.0 and extreme exponents
        bits = np.random.default_rng(0).integers(0, 2**64, 1 << 12, dtype=np.uint64)
        vals = bits.view(np.float64)
        vals[~np.isfinite(vals)] = 0.5
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

    @pytest.mark.parametrize(
        "text",
        [
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
        ],
    )
    def test_malformed(self, tmp_path, text):
        p = tmp_path / "bad.txt"
        p.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(MalformedInput):
            read_truth_table(str(p))


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

    def test_non_integer_input(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("n=2\nreal=0.3 0.0 0.0 0.0\n")
        assert main(["decompose", "--input", str(p)]) == EXIT_BAD_INPUT


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

    def test_decompose_text(self, capsys):
        code = main(["bench", "decompose", "--n", "8", "--reps", "2"])
        assert code == EXIT_OK
        assert "median=" in capsys.readouterr().out

    def test_too_large(self):
        assert main(["bench", "wht", "--n", "30"]) == EXIT_BAD_INPUT

    @pytest.mark.parametrize("what", ["wht", "decompose"])
    def test_n_zero(self, what, capsys):
        assert main(["bench", what, "--n", "0"]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


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
         "verify-tiny-norm-trials", "verify-tiny-norm-seed"],
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
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


class TestExitCodes:
    def test_constants(self):
        assert (EXIT_OK, EXIT_LAW_FAILURE, EXIT_BAD_INPUT, EXIT_INCOMPLETE) == (
            0, 1, 2, 3,
        )
