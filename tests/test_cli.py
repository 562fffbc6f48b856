import contextlib
import hashlib
import json
import math
import sys

import pytest
from conftest import int_digit_limit

from eventorsion import classifier, curve, oracle
from eventorsion.cli import (
    EXIT_INCONSISTENT,
    EXIT_INVALID,
    EXIT_LIMIT,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PIPE,
    main,
)
from eventorsion.corpus import CorpusRecord
from eventorsion.family import sweep_curves


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassifyCommand:
    def test_classify_with_oracle(self, capsys):
        code, out, _ = run(capsys, "classify", "3", "2", "2", "--oracle")
        assert code == EXIT_OK
        assert "class: Z4" in out
        assert "generator: (-1, 2)" in out
        assert "agree: yes" in out

    def test_classify_normalizes_input(self, capsys):
        code, out, _ = run(capsys, "classify", "12", "8", "5")
        assert code == EXIT_OK
        assert "m=3, n=2, D=5" in out

    def test_classify_full_text(self, capsys):
        code, out, _ = run(capsys, "classify", "95", "32", "10", "--oracle")
        assert code == EXIT_OK
        assert out == (
            "curve (m=95, n=32, D=10): y^2 = x^3 + 190*x^2 + -1215*x\n"
            "class: Z10\n"
            "witness: V(4, 4, 9, 3)\n"
            "generator: (-15, 240)  order 10\n"
            "oracle: Z10 (order 10)\n"
            "agree: yes\n"
        )

    def test_invalid_n_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "3", "0", "2")
        assert code == EXIT_INVALID
        assert "n must be nonzero" in err

    def test_square_d_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "3", "1", "4")  # x(x + 1)(x + 5)
        assert code == EXIT_INVALID
        assert "three rational roots -5, -1, 0" in err
        code, _, err = run(capsys, "classify", "3", "1", "9")  # x^2 (x + 6)
        assert code == EXIT_INVALID
        assert "repeated root" in err

    def test_records_format(self, capsys):
        code, out, _ = run(capsys, "classify", "23", "8", "7", "--oracle", "--format", "records")
        assert code == EXIT_OK
        rec = CorpusRecord.from_line(out.strip())
        assert rec.cls == "Z8" and rec.agree is True

    def test_huge_integers_print_in_full(self, tmp_path, capsys):
        # q = m^2 - 8 has about 5000 digits, past Python's default limit of
        # 4300 for converting an integer to a string.
        m = 10**2500 + 7
        code, out, _ = run(capsys, "classify", str(m), "2", "2")
        assert code == EXIT_OK
        with int_digit_limit(0):
            want = f"curve (m={m}, n=2, D=2): y^2 = x^3 + {2 * m}*x^2 + {m * m - 8}*x"
        assert out.splitlines()[0] == want
        path = tmp_path / "huge.jsonl"
        run(capsys, "classify", str(m), "2", "2", "--format", "records", "--out", str(path))
        code, _, err = run(capsys, "verify", str(path))
        assert code == EXIT_OK
        assert err == "verified=1 mismatches=0\n"

    @pytest.mark.parametrize(
        "argv",
        [["classify", "3", "2", "2"], ["classify", "3", "0", "2"], ["oracle", "3", "2"]],
    )
    def test_main_restores_the_digit_limit(self, capsys, argv):
        # main lifts the limit while it runs, whether it answers, rejects
        # the curve or rejects the arguments, and then puts it back.
        with int_digit_limit(4300):
            with contextlib.suppress(SystemExit):
                main(argv)
            assert sys.get_int_max_str_digits() == 4300


class TestOracleCommand:
    def test_oracle_output(self, capsys):
        code, out, _ = run(capsys, "oracle", "95", "32", "10")
        assert code == EXIT_OK
        assert "structure: Z10 (order 10)" in out
        assert "(81, 1296)" in out
        lines = out.splitlines()
        bound_line = lines[lines.index("structure: Z10 (order 10)") + 1]
        assert bound_line.startswith("reduction bound: ")
        bound = int(bound_line.removeprefix("reduction bound: "))
        assert bound > 0 and bound % 10 == 0

    def test_oracle_full_text(self, capsys):
        code, out, _ = run(capsys, "oracle", "95", "32", "10")
        assert code == EXIT_OK
        assert out == (
            "curve (m=95, n=32, D=10): y^2 = x^3 + 190*x^2 + -1215*x\n"
            "structure: Z10 (order 10)\n"
            "reduction bound: 10\n"
            "elements: infinity, (-135, -1080), (-135, 1080), (-15, -240), "
            "(-15, 240), (0, 0), (9, -72), (9, 72), (81, -1296), (81, 1296)\n"
            "generators: (-135, -1080)\n"
        )

    def test_oracle_reduction_bound_settles_z2(self, capsys):
        code, out, _ = run(capsys, "oracle", "5", "2", "3")
        assert code == EXIT_OK
        assert "structure: Z2 (order 2)\nreduction bound: 2\n" in out


class TestSweepCommand:
    def test_sweep_contains_pinned_records(self, capsys):
        code, out, err = run(capsys, "sweep", "5", "5", "5")
        assert code == EXIT_OK
        records = [CorpusRecord.from_line(line) for line in out.splitlines()]
        by_curve = {(r.m, r.n, r.D): r for r in records}
        z4 = by_curve[(3, 2, 2)]
        assert z4.cls == "Z4" and z4.agree is True
        z6 = by_curve[(3, 2, 3)]
        assert z6.cls == "Z6" and z6.agree is True
        assert "disagreements=0" in err

    def test_sweep_parity_and_normalization(self, capsys):
        _, out, _ = run(capsys, "sweep", "5", "5", "5")
        for line in out.splitlines():
            rec = CorpusRecord.from_line(line)
            if rec.n % 2:
                assert rec.cls == "Z2"

    def test_sweep_deterministic(self, capsys):
        _, out1, _ = run(capsys, "sweep", "4", "4", "3")
        _, out2, _ = run(capsys, "sweep", "4", "4", "3")
        assert out1 == out2

    def test_sweep_order_is_lexicographic(self):
        triples = [(c.m, c.n, c.D) for c in sweep_curves(3, 3, 3)]
        assert triples == sorted(triples)
        assert all(
            abs(m) <= 3 and 1 <= n <= 3 and 2 <= abs(d) <= 3 for m, n, d in triples
        )

    def test_sweep_rejects_bad_bounds(self, capsys):
        code, _, _ = run(capsys, "sweep", "0", "5", "5")
        assert code == EXIT_INVALID

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        code, out, _ = run(capsys, "sweep", "3", "3", "3", "--out", str(path))
        assert code == EXIT_OK and out == ""
        lines = path.read_text().splitlines()
        assert lines and all(CorpusRecord.from_line(line) for line in lines)

    def test_text_format(self, capsys):
        # The whole output is pinned in PINS; these are its non-Z2 lines.
        code, out, _ = run(capsys, "sweep", "3", "2", "3", "--format", "text")
        assert code == EXIT_OK
        assert [line for line in out.splitlines() if "class=Z2" not in line] == [
            "m=-2 n=2 D=-3 class=Z4 generator=(4,8) oracle=Z4 agree=yes",
            "m=-1 n=2 D=-2 class=Z4 generator=(3,6) oracle=Z4 agree=yes",
            "m=3 n=2 D=2 class=Z4 generator=(-1,2) oracle=Z4 agree=yes",
            "m=3 n=2 D=3 class=Z6 generator=(-3,6) oracle=Z6 agree=yes",
        ]

    def test_closed_pipe_exits_141_silently(self):
        # The reader takes one record and closes the pipe, as `| head -1`
        # does; the sweep's megabytes of records cannot all fit the pipe.
        import subprocess
        import sys
        from pathlib import Path

        import eventorsion

        proc = subprocess.Popen(
            [sys.executable, "-m", "eventorsion", "sweep", "30", "30", "15"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=Path(eventorsion.__file__).resolve().parents[1],
        )
        assert CorpusRecord.from_line(proc.stdout.readline())
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (EXIT_PIPE, "")


class TestSampleCommand:
    def test_sample_i(self, capsys):
        code, out, err = run(capsys, "sample", "I", "3", "--oracle")
        assert code == EXIT_OK
        records = [CorpusRecord.from_line(line) for line in out.splitlines()]
        assert records
        assert all(r.agree for r in records)
        assert "prediction_mismatches=0" in err

    def test_sample_ii_contains_2387(self, capsys):
        _, out, _ = run(capsys, "sample", "II", "2")
        curves = {(r.m, r.n, r.D) for r in map(CorpusRecord.from_line, out.splitlines())}
        assert (23, 8, 7) in curves

    def test_sample_v_contains_953210(self, capsys):
        _, out, _ = run(capsys, "sample", "V", "9")
        curves = {(r.m, r.n, r.D) for r in map(CorpusRecord.from_line, out.splitlines())}
        assert (95, 32, 10) in curves

    def test_unknown_case_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sample", "X", "3"])

    def test_text_format(self, capsys):
        code, out, err = run(capsys, "sample", "II", "2", "--oracle", "--format", "text")
        assert code == EXIT_OK
        assert out == (
            "m=-7 n=4 D=-2 class=Z8 generator=(3,12) oracle=Z8 agree=yes\n"
            "m=23 n=8 D=7 class=Z8 generator=(-3,12) oracle=Z8 agree=yes\n"
        )
        assert err == "curves=2 Z8=2 disagreements=0 prediction_mismatches=0\n"

    def test_text_format_without_oracle(self, capsys):
        code, out, err = run(capsys, "sample", "II", "2", "--format", "text")
        assert code == EXIT_OK
        assert out == (
            "m=-7 n=4 D=-2 class=Z8 generator=(3,12)\n"
            "m=23 n=8 D=7 class=Z8 generator=(-3,12)\n"
        )
        assert err == "curves=2 Z8=2 disagreements=0 prediction_mismatches=0\n"


class TestVerifyCommand:
    def test_verify_clean_corpus(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        run(capsys, "sweep", "3", "3", "3", "--out", str(path))
        code, _, err = run(capsys, "verify", str(path))
        assert code == EXIT_OK
        assert "mismatches=0" in err

    def test_verify_detects_tampering(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        run(capsys, "sweep", "3", "3", "3", "--out", str(path))
        lines = path.read_text().splitlines()
        payload = json.loads(lines[0])
        payload["class"] = "Z12"
        lines[0] = json.dumps(payload)
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "verify", str(path))
        assert code == EXIT_MISMATCH
        assert "line 1: mismatch" in err

    def test_verify_rejects_corrupted_values(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        run(capsys, "classify", "3", "2", "2", "--oracle", "--format", "records", "--out", str(path))
        payload = json.loads(path.read_text())
        payload.update({"m": 3.9, "oracle_order": 4.2, "agree": 1})
        path.write_text(json.dumps(payload) + "\n")
        code, _, err = run(capsys, "verify", str(path))
        assert code == EXIT_INVALID
        assert "verified=" not in err

    def test_verify_rejects_reordered_keys(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        run(capsys, "classify", "3", "2", "2", "--format", "records", "--out", str(path))
        payload = json.loads(path.read_text())
        payload = {"n": payload.pop("n"), **payload}
        path.write_text(json.dumps(payload) + "\n")
        code, _, err = run(capsys, "verify", str(path))
        assert code == EXIT_INVALID
        assert "unexpected fields" in err and "verified=" not in err

    def test_verify_missing_file(self, capsys):
        code, _, _ = run(capsys, "verify", "/nonexistent/corpus.jsonl")
        assert code == EXIT_INVALID

    def test_verify_skips_blank_lines_and_flags_unnormalized(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        run(capsys, "classify", "3", "2", "5", "--format", "records", "--out", str(path))
        payload = json.loads(path.read_text())
        payload.update({"m": "12", "n": "8"})  # normalizes to (3, 2, 5)
        path.write_text("\n" + json.dumps(payload) + "\n\n")
        code, _, err = run(capsys, "verify", str(path))
        assert code == EXIT_MISMATCH
        assert err == "line 2: curve not normalized\nverified=1 mismatches=1\n"


class TestInconsistencyExit:
    """Exit code 3: a cross-check inside the library failed."""

    def test_z12_criterion_failing_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(classifier, "check_case_iv", lambda c: None)
        code, out, err = run(capsys, "classify", "-366", "30", "-15")
        assert code == EXIT_INCONSISTENT
        assert out == ""
        assert err.startswith("inconsistency:")
        assert "Z12 criterion fails" in err

    def test_generator_order_mismatch_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(curve, "order", lambda c, p: 3)
        code, _, err = run(capsys, "classify", "3", "2", "2")
        assert code == EXIT_INCONSISTENT
        assert err.startswith("inconsistency:")
        assert "has order 3, expected 4" in err

    def test_oracle_error_exits_3(self, capsys, monkeypatch):
        # C(3, 2, 2) has torsion Z4; with 4 struck from the list of
        # possible orders, the oracle's own check must fail loudly.
        monkeypatch.setattr(oracle, "MAZUR_CYCLIC_ORDERS", (2,))
        code, out, err = run(capsys, "oracle", "3", "2", "2")
        assert code == EXIT_INCONSISTENT
        assert out == ""
        assert err.startswith("inconsistency:")
        assert "impossible torsion structure Z4" in err

    def test_sample_wrong_generator_formula_exits_3(self, capsys, monkeypatch):
        # The one tuple offered parametrizes (95, 32, 10) scaled by e^2 = 4.
        # `full_report` builds every sampled curve's generator from the
        # formula, so a wrong one (x = -61) stops `sample` there.
        lattice = classmethod(lambda cls, bound: iter([(classifier.WitnessV(8, 8, 18, 6), 10)]))
        monkeypatch.setattr(classifier.WitnessV, "lattice", lattice)
        monkeypatch.setattr(classifier.WitnessV, "generator_x", lambda self, d: -61)
        code, out, err = run(capsys, "sample", "V", "18")
        assert code == EXIT_INCONSISTENT
        assert out == ""
        assert err.startswith("inconsistency:")
        assert "non-square y^2" in err


class TestMismatchExit:
    """Exit code 1: the run finished, but a cross-check it reports failed.
    Output stays as it was; only the exit code tells."""

    @pytest.fixture
    def z2_oracle(self, monkeypatch):
        group = oracle.TorsionGroup((curve.INFINITY, curve.Point(0, 0)), curve.Point(0, 0))
        monkeypatch.setattr(classifier._oracle, "torsion_group", lambda c, bound=None: group)

    def test_classify_disagreement_exits_1(self, capsys, z2_oracle):
        code, out, err = run(capsys, "classify", "3", "2", "2", "--oracle")
        assert code == EXIT_MISMATCH
        assert out.endswith("oracle: Z2 (order 2)\nagree: NO\n")
        assert err == ""

    def test_sweep_disagreements_exit_1(self, capsys, z2_oracle):
        code, out, err = run(capsys, "sweep", "3", "2", "2")
        assert code == EXIT_MISMATCH
        assert len(out.splitlines()) == 28
        assert err == "curves=28 Z2=26 Z4=2 disagreements=2\n"

    def test_sample_prediction_mismatches_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(classifier, "classify", lambda c, g=None: classifier.Witness())
        code, out, err = run(capsys, "sample", "I", "1")
        assert code == EXIT_MISMATCH
        assert len(out.splitlines()) == 3
        assert err == "curves=3 Z2=3 disagreements=0 prediction_mismatches=3\n"


# Every output pin: argv -> (sha256 of stdout, exact stderr).  A change to an
# output must change its row on purpose.  The "sweep 60 60 30" row is checked
# by test_acceptance.py's sweep fixture, which builds every report of that box
# already; the CLI runs every other row.
PINS = {
    "sweep 20 20 10": (
        "4d73384c9483e9db49aaac2575866d0b0ce48b26e6f8e9e518487844ded4611b",
        "curves=9060 Z2=8979 Z4=67 Z6=13 Z8=1 disagreements=0\n",
    ),
    "sweep 30 30 15": (
        "c8d2dc535b4b2735a53bdb0a7d88c849d781fb159b009c39d32090524eea02c9",
        "curves=34020 Z2=33849 Z4=146 Z6=23 Z8=2 disagreements=0\n",
    ),
    "sweep 60 60 30": (
        "515a61739dcf9b9a1172ad57138927714eae3b9c9f85ada762a6ff6d27265464",
        "curves=241452 Z10=1 Z2=240964 Z4=437 Z6=48 Z8=2 disagreements=0\n",
    ),
    "sweep 3 2 3 --format text": (
        "ffac5262b62512a6872571a0f9b320350556a6ac26b4ea05eb3deaacceed1142",
        "curves=56 Z2=52 Z4=3 Z6=1 disagreements=0\n",
    ),
    "sample I 10 --oracle": (
        "c3905ac4e7b8f6e96c8a5201deebb4966c7647796ff4ddff02c02ad6addde002",
        "curves=1575 Z12=2 Z4=1563 Z8=10 disagreements=0 prediction_mismatches=0\n",
    ),
    # The Z8 family, where the oracle walks doubling and chord slopes.
    "sample II 10 --oracle": (
        "02ae1abc94b0f15762251a4ce3782c76c3ca24eb3be16ae1a4ed7092c709837f",
        "curves=60 Z8=60 disagreements=0 prediction_mismatches=0\n",
    ),
    "sample III 10 --oracle": (
        "261433f85cf9d62fc039c5c96c041fecfd20ecb0b0ee69274e66d0cb1440bfc5",
        "curves=134 Z12=1 Z6=133 disagreements=0 prediction_mismatches=0\n",
    ),
    # Genuine Z6 curves, whose case-III check factors n/2.
    "sample III 11 --oracle": (
        "91c394984023d1060fb0cba1d37a4af2391078df6624fbd596e3529503ac69c2",
        "curves=182 Z12=2 Z6=180 disagreements=0 prediction_mismatches=0\n",
    ),
    # Case IV emits no curve at bound 10; at 25 it emits the two Z12 curves,
    # where 12 divides the reduction bound.
    "sample IV 25 --oracle": (
        "fbd5ac5bf62555576851314540e64d3cb4032d67ac10c38b65e3e5527bca990b",
        "curves=2 Z12=2 disagreements=0 prediction_mismatches=0\n",
    ),
    "sample V 10 --oracle": (
        "e5907e9e2ae962265d9f5c864875290b9f64eecdbdda4a0a7c5a211fdec98ec8",
        "curves=2 Z10=2 disagreements=0 prediction_mismatches=0\n",
    ),
    "sample V 60 --oracle": (
        "b0fa53076f1ccdf1a7bd2d2f484a01da08e83be7566c4c66d73c7dc74339fd34",
        "curves=8 Z10=8 disagreements=0 prediction_mismatches=0\n",
    ),
    # Z2 by even n with reduction bound 2, and by odd n: "witness: none".
    "classify 5 2 3 --oracle": (
        "9ecedd3adfd086c44455209339e0994a2af518a39dc6eb24ba810a1d4306481d",
        "",
    ),
    "classify 5 3 2 --oracle": (
        "272f675c4087fd9050013cf4820eeaec952f6b600147b72dab2dc065d3e6b7ec",
        "",
    ),
    # The first Z12 curve, through case IV.
    "classify -366 30 -15 --oracle": (
        "f2e8e8de407809549a25e988ecef46e6fe50859c4564cc2f3563fe6e80a9338f",
        "",
    ),
    # Z6 through case III's one witness with a = 0, III(0, 1, 1), at D = -1.
    "classify -1 2 -1 --oracle": (
        "42485662e33ab1055a7e260b1c48aab75088f5604ed2b2d9383260a05697e89d",
        "",
    ),
    # D = 2^41*3^7*5*1000003^2: 2 climbs 41 rungs of the gcd ladder and 3
    # seven, the cofactor 1000003^2 is factored, and normalize leaves D = 30,
    # n = 84934910803968, class Z2.
    "classify 7 3 24046463577593333640415150080 --oracle": (
        "7450933c01af3cdca6c142f5c15c1d6dd45d97b1e7dfc3277c77d15333ce533a",
        "",
    ),
    # Z6 through case III, witness III(701749, 1291, 964932): D =
    # -1291^2*263183 has its square part on the second gcd-ladder rung, and
    # normalize absorbs 1291 into n = 4303370342.
    "classify 1408089685514 3333362 -438642105623 --oracle": (
        "b7ec7d25766c5e588e3096511f140a4cea67fdafdf4048d6803260efb968686e",
        "",
    ),
    # A curve whose reduction bound is 2.
    "oracle 5 2 3": (
        "9a1154032549573667f781ce93bb960bf534ee0255bf1c033fe286061a246622",
        "",
    ),
    # n/2 = 3*5*...*47: every tabulated prime is bad, and g = 2 comes from
    # the walk past 47.
    "oracle 5 614889782588491410 3": (
        "1869d38778e0f76eb75c0fa2855c7df077bacd58e5c665ba3fca1e998820c945",
        "",
    ),
}
CLI_PINS = [argv for argv in PINS if argv != "sweep 60 60 30"]


class TestOutputPins:
    @pytest.mark.parametrize("argv", CLI_PINS)
    def test_output(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (EXIT_OK, *PINS[argv])

    @pytest.mark.parametrize("argv", CLI_PINS)
    def test_out_file(self, tmp_path, capsys, argv):
        # --out writes the bytes of stdout, and verify accepts every record
        # stream.
        digest, err = PINS[argv]
        path = tmp_path / "out"
        assert run(capsys, *argv.split(), "--out", str(path)) == (EXIT_OK, "", err)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        if argv.startswith(("sweep", "sample")) and "--format text" not in argv:
            curves = err.split()[0].removeprefix("curves=")
            assert run(capsys, "verify", str(path)) == (EXIT_OK, "", f"verified={curves} mismatches=0\n")


class TestLargeInputs:
    """Inputs that trial division or a factoring oracle rejected or stalled
    on.  Each runs in a child process with a timeout, so a stall fails the
    test instead of hanging the suite."""

    @staticmethod
    def cli(*argv):
        import subprocess
        import sys
        from pathlib import Path

        import eventorsion

        return subprocess.run(
            [sys.executable, "-m", "eventorsion", *argv],
            capture_output=True,
            text=True,
            cwd=Path(eventorsion.__file__).resolve().parents[1],
            timeout=30,
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("3", "2", "1000000000000000003"),  # D prime
            ("3", "2", "2305843009213693951"),  # D = 2^61 - 1, prime
            ("5", "2000000000000000006", "3"),  # n/2 = 10^18 + 3, prime
        ],
    )
    def test_large_prime_exits_0(self, argv):
        proc = self.cli("classify", *argv)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "class: Z2" in proc.stdout

    def test_prime_beyond_proven_range_exits_4(self):
        d = 2**89 - 1  # prime, above the proven Miller-Rabin range
        proc = self.cli("classify", "3", "2", str(d))
        assert proc.returncode == EXIT_LIMIT
        assert str(d) in proc.stderr

    def test_unfactorable_half_n_skipped_when_bound_rules_out_3_and_5(self):
        # n/2 = 2^89 - 1 is prime beyond the proven range.  g = 2 admits no
        # point of order 3 or 5, so cases III and V never factor n/2.
        proc = self.cli("classify", "5", str(2 * (2**89 - 1)), "3")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "class: Z2" in proc.stdout

    def test_unfactorable_half_n_exits_4_when_bound_admits_3(self):
        # The same n with g = 6: case III must scan the divisors of n/2.
        half = 2**89 - 1
        proc = self.cli("classify", "53", str(2 * half), "11")
        assert proc.returncode == EXIT_LIMIT
        assert str(half) in proc.stderr

    # Z4 curves normalize(a^2 + b^2*D, 2ab, D) with a = 3*5*...*29: the
    # discriminant has 13 or 14 distinct primes, which the oracle never
    # factors.
    @pytest.mark.parametrize(
        "curve",
        [
            ("10464232622576958223", "6469693230", "-2"),
            ("10464232622576958249", "12939386460", "6"),
            ("10464232622576958217", "12939386460", "-2"),
        ],
    )
    def test_many_prime_discriminant_oracle_exits_0(self, curve):
        proc = self.cli("oracle", *curve)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "structure: Z4 (order 4)" in proc.stdout
        proc = self.cli("classify", *curve, "--oracle")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "class: Z4" in proc.stdout
        assert "agree: yes" in proc.stdout

    def test_oracle_does_not_factor_q(self):
        # q = m^2 + 4 has a 42-digit probable prime factor, beyond the proven
        # Miller-Rabin range; classify never factors q, nor does the oracle.
        proc = self.cli("classify", "587320478161116480663150048312", "2", "-1", "--oracle")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "agree: yes" in proc.stdout

    def test_every_small_prime_bad_oracle_exits_0(self):
        # n is the product of the primes below 1000: each divides the
        # discriminant, so the bound walks to the primes past 1000.
        n = math.prod(p for p in range(2, 1000) if all(p % d for d in range(2, p)))
        proc = self.cli("oracle", "1", str(n), "-1")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "structure: Z2 (order 2)" in proc.stdout
        assert "reduction bound: 2" in proc.stdout

    def test_many_prime_genuine_z6_scan_exits_0(self):
        # A genuine Z6 curve whose n/2 = b = 3*5*...*59 has 2^16 divisors,
        # with the case-III witness at the last one: a + c = 1, D = 3.
        b = math.prod(p for p in range(3, 60) if all(p % d for d in range(2, p)))
        a = (1 + 3 * b * b) // 2
        m, n = classifier.WitnessIII(a, b, 1 - a).curve_mn(3)
        proc = self.cli("classify", str(m), str(n), "3", "--oracle")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "class: Z6" in proc.stdout
        assert f"witness: III({a}, {b}, {1 - a})" in proc.stdout
        assert "agree: yes" in proc.stdout

    def test_first_24_odd_primes_bad_classify_exits_0(self):
        # n/2 is the product of the first 24 odd primes, all bad; the bound
        # reaches 2 at p = 113, so nothing scans the 2^24 divisors of n/2.
        half = math.prod(p for p in range(3, 98) if all(p % d for d in range(2, p)))
        proc = self.cli("classify", "5", str(2 * half), "3", "--oracle")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "class: Z2" in proc.stdout
        assert "agree: yes" in proc.stdout


class TestEntryPoint:
    def test_module_invocation(self):
        import subprocess
        import sys
        from pathlib import Path

        import eventorsion

        # Run from the directory holding the imported package, so the child
        # finds it whether it came from PYTHONPATH, pytest's pythonpath or
        # an install.
        proc = subprocess.run(
            [sys.executable, "-m", "eventorsion", "classify", "3", "2", "3"],
            capture_output=True,
            text=True,
            cwd=Path(eventorsion.__file__).resolve().parents[1],
        )
        assert proc.returncode == 0
        assert "class: Z6" in proc.stdout
