"""Command line behavior: reports, formats, exit codes, batch processing."""

from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from support import LONG

from seifert_torsion import cli, homology, partition
from seifert_torsion.errors import NumericWindowError, UnsupportedWindow

GOLDEN = Path(__file__).parent / "golden"


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def assert_matches(expected, actual, path="$"):
    """Compare parsed JSON trees, floats at 1e-12, everything else exactly."""
    if isinstance(expected, float):
        assert isinstance(actual, float), path
        assert actual == pytest.approx(expected, rel=1e-12, abs=1e-15), path
    elif isinstance(expected, dict):
        assert isinstance(actual, dict), path
        assert expected.keys() == actual.keys(), path
        for key in expected:
            assert_matches(expected[key], actual[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list), path
        assert len(expected) == len(actual), path
        for i, (e, a) in enumerate(zip(expected, actual)):
            assert_matches(e, a, f"{path}[{i}]")
    else:
        assert expected == actual, path


class TestGolden:
    CASES = (
        ("unit_invariants.json", ("invariants", "--data", "[0,-1;(2,1),(3,1),(5,1)]")),
        ("t24_torsion.json", ("torsion", "--data", "[0,2;(3,1),(3,1)]")),
        ("genus1_homology.json", ("homology", "--data", "[1,1]")),
    )

    @pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
    def test_matches_pinned_output(self, name, argv):
        code, out, err = invoke(*argv, "--format", "json")
        assert code == 0 and err == ""
        expected = json.loads((GOLDEN / name).read_text())
        assert_matches(expected, json.loads(out))


class TestTextOutput:
    """Text blocks, and the partition JSON block, pinned byte for byte."""

    CASES = {
        "invariants-readme": (
            ("invariants", "--data", "[0,-1;(2,1),(3,1),(5,1)]"),
            "input               [0,-1;(2,1),(3,1),(5,1)]\n"
            "gauge rank          1\n"
            "c1                  1/30\n"
            "torsion order       1\n"
            "homology            rank 0, factors []\n"
            "eta0                -91/180\n"
            "m_x                 -1\n"
            "scalar torsion      1.315947253478581 = (2π)^2/30\n"
            "prefactor           1.0\n"
            "volume coefficient  1.0\n"
            "symplectic volume   1.0 = 1^(1/2)\n"
            "moduli              1 component(s) of dimension 0\n"
            "warnings            (none)\n",
        ),
        "homology-t24": (
            ("homology", "--data", "[0,2;(3,1),(3,1)]"),
            "input            [0,2;(3,1),(3,1)]\n"
            "gauge rank       1\n"
            "c1               8/3\n"
            "homology         rank 0, factors [24]\n"
            "torsion classes  24\n"
            "moduli           24 component(s) of dimension 0\n"
            "warnings         (none)\n",
        ),
        "homology-chern-zero": (
            ("homology", "--data", "[1,0]"),
            "input            [1,0]\n"
            "gauge rank       1\n"
            "c1               0\n"
            "homology         rank 3, factors []\n"
            "torsion classes  1\n"
            "moduli           (undefined: c1 = 0)\n"
            "warnings         c1 = 0: torsion-power identity not asserted for this datum\n",
        ),
        "torsion-t24": (
            ("torsion", "--data", "[0,2;(3,1),(3,1)]"),
            "input               [0,2;(3,1),(3,1)]\n"
            "gauge rank          1\n"
            "c1                  8/3\n"
            "scalar torsion      4.386490844928604 = (2π)^2/9\n"
            "K0'(0)              numeric -2.957059112842296, closed -2.9570591109649422\n"
            "prefactor           0.2041241452319315\n"
            "volume coefficient  0.2041241452319315\n"
            "symplectic volume   4.898979485566356 = 24^(1/2)\n"
            "isotropy volume     1.632993161855452\n"
            "warnings            (none)\n",
        ),
        "torsion-negative-chern": (
            ("torsion", "--data", "[0,-1;(2,1),(3,1)]"),
            "input               [0,-1;(2,1),(3,1)]\n"
            "gauge rank          1\n"
            "c1                  -1/6\n"
            "scalar torsion      6.579736267392906 = (2π)^2/6\n"
            "K0'(0)              numeric -3.7679893293084956, closed -3.7679893271812714\n"
            "prefactor           1.0\n"
            "volume coefficient  1.0\n"
            "symplectic volume   1.0 = 1^(1/2)\n"
            "isotropy volume     (undefined: c1 <= 0)\n"
            "warnings            c1 < 0: positivity expected of the fibration orientation"
            " is violated; absolute values used\n",
        ),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_block(self, name):
        argv, expected = self.CASES[name]
        assert invoke(*argv) == (0, expected, "")

    PARTITION = (
        "input                [0,2;(3,1),(3,1)]\n"
        "gauge rank           1\n"
        "level                3\n"
        "m_x                  -1\n"
        "classes              24\n"
        "phase factor         0.9063077870366499 + 0.42261826174069944i\n"
        "component magnitude  0.06804138174397717\n"
        "magnitude            0.20148607261977433\n"
        "coherent bound       1.632993161855452\n"
    )

    @pytest.mark.parametrize(
        "extra,tail",
        [
            ((), ""),
            (
                ("--grav-phase", "0.25"),
                "z                    0.09250385952103628 + 0.1789962944684983i\n",
            ),
        ],
        ids=["zbar-only", "grav-phase"],
    )
    def test_partition_block(self, tmp_path, extra, tail):
        assert invoke(*self.partition_argv(tmp_path), *extra) == (0, self.PARTITION + tail, "")

    @staticmethod
    def partition_argv(tmp_path):
        path = tmp_path / "cs.txt"
        path.write_text(" ".join(str(0.1 * i) for i in range(24)))
        return ("partition", "--data", "[0,2;(3,1),(3,1)]", "--cs-file", str(path), "--level", "3")

    PARTITION_JSON = {
        "input": {"text": "[0,2;(3,1),(3,1)]", "genus": 0, "euler": 2, "pairs": [[3, 1], [3, 1]]},
        "gauge_rank": 1,
        "level": 3,
        "m_x": -1,
        "classes": "24",
        "phase_factor": {"re": 0.9063077870366499, "im": 0.42261826174069944},
        "component_magnitude": 0.06804138174397717,
        "magnitude": 0.20148607261977433,
        "zbar": {"re": 0.14814553247501344, "im": 0.136563313768507, "abs": 0.20148607261977428},
        "coherent_bound": 1.632993161855452,
    }

    @pytest.mark.parametrize(
        "extra,z",
        [
            ((), None),
            (
                ("--grav-phase", "0.25"),
                {"re": 0.09250385952103628, "im": 0.1789962944684983, "abs": 0.2014860726197743},
            ),
        ],
        ids=["zbar-only", "grav-phase"],
    )
    def test_partition_json(self, tmp_path, extra, z):
        # json.dumps writes each float as its repr, so equal text means equal floats
        expected = dict(self.PARTITION_JSON, **({"z": z} if z else {}))
        argv = (*self.partition_argv(tmp_path), *extra, "--format", "json")
        assert invoke(*argv) == (0, json.dumps(expected, indent=2) + "\n", "")

    # 24^2 = 576 classes at gauge rank 2, from a JSON cs-file of seeded repr floats
    PARTITION_576_JSON = {
        "input": {"text": "[0,2;(3,1),(3,1)]", "genus": 0, "euler": 2, "pairs": [[3, 1], [3, 1]]},
        "gauge_rank": 2,
        "level": 5,
        "m_x": -2,
        "classes": "576",
        "phase_factor": {"re": 0.6427876096865394, "im": 0.766044443118978},
        "component_magnitude": 0.0016666666666666666,
        "magnitude": 0.0309063376040786,
        "zbar": {"re": -0.02395005877319811, "im": 0.019534492285637698, "abs": 0.03090633760407859},
        "coherent_bound": 0.96,
    }

    @pytest.mark.parametrize(
        "extra,z",
        [
            ((), None),
            (
                ("--grav-phase", "-0.375"),
                {"re": 0.0221563783844925, "im": -0.02154754280609452, "abs": 0.030906337604078588},
            ),
        ],
        ids=["zbar-only", "grav-phase"],
    )
    def test_partition_json_576_classes(self, tmp_path, extra, z):
        rng = random.Random(576)
        path = tmp_path / "cs.json"
        path.write_text(json.dumps([rng.uniform(0.0, 2 * math.pi) for _ in range(576)]))
        argv = ("partition", "--data", "[0,2;(3,1),(3,1)]", "--gauge-rank", "2")
        argv += ("--cs-file", str(path), "--level", "5", *extra, "--format", "json")
        expected = dict(self.PARTITION_576_JSON, **({"z": z} if z else {}))
        assert invoke(*argv) == (0, json.dumps(expected, indent=2) + "\n", "")


class TestInvariantReport:
    def test_exact_fields_are_strings(self):
        code, out, _ = invoke(
            "invariants", "--data", "[0,-1;(2,1),(3,1),(5,1)]", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["c1"] == "1/30"
        assert report["torsion_order"] == "1"
        assert report["eta0"] == "-91/180"
        assert report["m_x"] == -1
        assert report["scalar_torsion"]["symbolic"] == "(2π)^2/30"
        assert isinstance(report["scalar_torsion"]["value"], float)

    def test_text_format(self):
        code, out, _ = invoke("invariants", "--data", "[0,-1;(2,1),(3,1),(5,1)]")
        assert code == 0
        assert "1/30" in out and "-91/180" in out

    def test_gauge_rank_scales_torsion_classes(self):
        code, out, _ = invoke(
            "homology", "--data", "[0,2;(3,1),(3,1)]",
            "--gauge-rank", "2", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["torsion_classes"] == "576"


class TestExitCodes:
    def test_parse_garbage(self):
        code, out, err = invoke("invariants", "--data", "nonsense")
        assert code == 2 and out == ""
        assert err.startswith("error:")

    def test_coprimality(self):
        code, _, err = invoke("invariants", "--data", "[0,1;(4,2)]")
        assert code == 2 and "gcd(4, 2)" in err

    def test_chern_zero_closed_forms(self):
        code, _, err = invoke("invariants", "--data", "[1,0]")
        assert code == 3 and "c1" in err

    def test_dedekind_bad_arguments(self):
        code, _, err = invoke("dedekind", "--alpha", "5", "--beta", "0")
        assert code == 2

    def test_numeric_window_maps_to_four(self, monkeypatch):
        def raiser(data, gauge_rank=1):
            raise UnsupportedWindow(9.0)

        monkeypatch.setitem(
            cli._DATA_COMMANDS, "torsion", (raiser, None, None)
        )
        code, _, err = invoke("torsion", "--data", "[1,1]")
        assert code == 4 and err.startswith("error:")

    def test_argparse_error_passthrough(self):
        code, _, _ = invoke("partition", "--data", "[1,1]")  # missing --cs-file
        assert code == 2

    def test_unreadable_input_file(self):
        code, _, err = invoke("invariants", "--input", "/no/such/file")
        assert code == 2 and "error:" in err


class TestHugeGaugeRank:
    """A trivial torsion group bounds no N: the JSON ints 2gN and N(g - 1) are bounded.

    An error message quotes a gauge rank past 50 digits as LONG.
    """

    NINES = "9" * 4300  # the largest gauge rank of at most 4300 digits
    MESSAGE = "component dimension has more than 4300 digits"
    PREFACTOR = f"prefactor or symplectic volume at gauge rank {LONG} is outside the double range"
    COUNT = f"class count |Tors H1|^{LONG} has more than 4300 digits"

    def test_trivial_torsion_group_gets_its_result(self):
        rank = 10**20
        argv = ("homology", "--data", "[1,1]", "--gauge-rank", str(rank), "--format", "json")
        code, out, err = invoke(*argv)
        moduli = json.loads(out)["moduli"]
        assert (code, err) == (0, "")
        assert moduli == {"component_count": "1", "component_dimension": 2 * rank, "torsion_factors": []}

    @pytest.mark.parametrize("datum", ["[1,1]", "[6,1]"])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_long_component_dimension_exits_four(self, datum, fmt):
        argv = ("homology", "--data", datum, "--gauge-rank", self.NINES, "--format", fmt)
        assert invoke(*argv) == (4, "", f"error: {self.MESSAGE}\n")

    @pytest.mark.parametrize(
        "command,datum,message",
        [
            ("invariants", "[6,1]", PREFACTOR),
            ("torsion", "[6,1]", PREFACTOR),
            ("homology", "[0,2;(3,1),(3,1)]", COUNT),
        ],
        ids=["invariants", "torsion", "homology"],
    )
    def test_long_rank_stays_out_of_the_message(self, command, datum, message):
        code, out, err = invoke(command, "--data", datum, "--gauge-rank", self.NINES)
        assert (code, out, err) == (4, "", f"error: {message}\n")
        assert len(err) < 200

    def test_long_negative_rank_usage_error_is_short(self, capsys):
        code, out, _ = invoke("homology", "--data", "[1,1]", "--gauge-rank", "-" + self.NINES)
        last = capsys.readouterr().err.splitlines()[-1]
        assert (code, out) == (2, "")
        assert last.endswith(f"argument --gauge-rank: must be >= 1, got -{LONG}")
        assert len(last) < 200

    def test_batch_rows_are_isolated(self, tmp_path):
        path = tmp_path / "batch.txt"
        path.write_text("[6,1]\n[1,1]\n[0,-1;(2,1),(3,1),(5,1)]\n")
        argv = ("homology", "--input", str(path), "--gauge-rank", self.NINES, "--format", "json")
        code, out, err = invoke(*argv)
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and err == "" and len(rows) == 3
        for row in rows[:2]:
            assert row["error"] == {"type": "NumericWindowError", "message": self.MESSAGE}
        assert rows[2]["moduli"]["component_dimension"] == 0


class TestClosedStdout:
    def test_broken_pipe_exits_one_without_traceback(self, tmp_path):
        # far more output than a pipe holds, so the writer meets the closed end
        path = tmp_path / "rows.txt"
        path.write_text("[0,2;(3,1),(3,1)]\n" * 2000)
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        argv = [sys.executable, "-m", "seifert_torsion", "homology", "--input", str(path)]
        pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
        with subprocess.Popen([*argv, "--format", "json"], env=env, **pipes) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert json.loads(first)["torsion_classes"] == "24"
        assert (code, err) == (1, b"")


class TestNonAsciiDigits:
    """Only 0-9 are digits; other Unicode digits are parse errors (exit 2)."""

    @pytest.mark.parametrize("datum", ["[٣,0]", "[²,0]"], ids=["arabic-indic", "superscript"])
    def test_data_is_parse_error(self, datum):
        expected = f"error: offset 1: expected integer (genus), found {datum[1]!r}\n"
        assert invoke("invariants", "--data", datum) == (2, "", expected)

    def test_batch_row_is_isolated(self, tmp_path):
        path = tmp_path / "batch.txt"
        path.write_text("[1,1]\n[²,0]\n[0,2;(3,1),(3,1)]\n")
        code, out, err = invoke("invariants", "--input", str(path), "--format", "json")
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and err == "" and len(rows) == 3
        assert rows[1]["error"]["type"] == "ParseError"
        assert rows[0]["c1"] == "1" and rows[2]["c1"] == "8/3"


@pytest.fixture
def default_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


digit_limit = [
    pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="interpreter has no int/str digit limit"
    ),
    pytest.mark.usefixtures("default_digit_limit"),
]


class TestLongLiteral:
    """An integer past int()'s digit limit is a parse error (exit 2), not a traceback."""

    pytestmark = digit_limit

    ONES = "1" * 5000
    MESSAGE = "offset 6: expected integer (fiber order) of at most 4300 digits, found '5000 digits'"

    def test_data_is_parse_error(self):
        datum = f"[0,1;({self.ONES},1)]"
        assert invoke("homology", "--data", datum) == (2, "", f"error: {self.MESSAGE}\n")

    def test_batch_row_is_isolated(self, tmp_path):
        path = tmp_path / "batch.txt"
        path.write_text(f"[1,1]\n[0,1;({self.ONES},1)]\n[0,2;(3,1),(3,1)]\n")
        code, out, err = invoke("homology", "--input", str(path), "--format", "json")
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and err == "" and len(rows) == 3
        assert rows[1]["error"] == {"type": "ParseError", "message": self.MESSAGE}
        assert rows[0]["c1"] == "1" and rows[2]["c1"] == "8/3"


class TestLongExactValues:
    """An exact report value past 4300 digits exits 4 with a one-line message."""

    pytestmark = digit_limit

    ALPHA = 10**2999 + 1  # two such fibers give c1 a denominator of about 6000 digits
    DATUM = f"[0,1;({ALPHA},1),({ALPHA + 2},1)]"
    MESSAGE = "c1 has more than 4300 digits"

    def test_data_exits_four(self):
        assert invoke("homology", "--data", self.DATUM) == (4, "", f"error: {self.MESSAGE}\n")

    def test_batch_row_is_isolated(self, tmp_path):
        path = tmp_path / "batch.txt"
        path.write_text(f"{self.DATUM}\n[0,2;(3,1),(3,1)]\n")
        code, out, err = invoke("homology", "--input", str(path), "--format", "json")
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and err == "" and len(rows) == 2
        assert rows[0]["error"] == {"type": "NumericWindowError", "message": self.MESSAGE}
        assert rows[1]["c1"] == "8/3" and rows[1]["torsion_classes"] == "24"

    def test_digit_boundary(self):
        for value in (10**4300 - 1, Fraction(-(10**4300 - 1), 10**4300 - 3)):
            assert cli._exact(value, "x") == str(value)
        for value in (10**4300, -(10**4300), Fraction(1, 10**4300)):
            with pytest.raises(NumericWindowError, match="^x has more than 4300 digits$"):
                cli._exact(value, "x")
            with pytest.raises(NumericWindowError, match="^x has more than 4300 digits$"):
                cli._bounded(value, "x")  # the rule for the JSON ints m_x and component_dimension
        assert cli._bounded(10**4300 - 1, "x") == 10**4300 - 1
        code, out, _ = invoke("homology", "--data", f"[0,{10**4299}]", "--format", "json")
        assert code == 0 and json.loads(out)["c1"] == str(10**4299)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_long_rank_exits_four(self, fmt):
        # c1 = 0, so the rank 2g + 1 of a 4300-digit genus is the first value past the rule
        argv = ("homology", "--data", f"[{10**4300 - 1},0]", "--format", fmt)
        assert invoke(*argv) == (4, "", "error: rank has more than 4300 digits\n")

    def test_long_rank_batch_row_is_isolated(self, tmp_path):
        path = tmp_path / "batch.txt"
        path.write_text(f"[{10**4300 - 1},0]\n[1,1]\n")
        code, out, err = invoke("homology", "--input", str(path), "--format", "json")
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and err == "" and len(rows) == 2
        message = "rank has more than 4300 digits"
        assert rows[0]["error"] == {"type": "NumericWindowError", "message": message}
        assert rows[1]["homology"] == {"rank": 2, "invariant_factors": []}


class TestLongValidationValues:
    """A validation message quotes alpha, beta and the genus past 50 digits as LONG."""

    pytestmark = digit_limit

    NINES = "9" * 4300  # divisible by 3, so (NINES, 3) is not a coprime pair

    @pytest.mark.parametrize(
        "datum,message",
        [
            (f"[0,1;({NINES},3)]", f"gcd({LONG}, 3) != 1 (pair 1)"),
            (f"[0,1;(3,{NINES})]", f"gcd(3, {LONG}) != 1 (pair 1)"),
            (f"[0,1;(-{NINES},3)]", f"fiber order must be >= 1, got -{LONG} (pair 1)"),
            (f"[-{NINES},1]", f"genus must be >= 0, got -{LONG}"),
        ],
        ids=["alpha", "beta", "negative-alpha", "negative-genus"],
    )
    def test_message_is_short(self, datum, message):
        code, out, err = invoke("invariants", "--data", datum)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert len(err) < 200

    def test_dedekind_message_is_short(self):
        code, out, err = invoke("dedekind", "--alpha", self.NINES, "--beta", "3")
        assert (code, out, err) == (2, "", f"error: gcd({LONG}, 3) != 1\n")

    def test_fifty_digits_are_quoted_in_full(self):
        fifty = "9" * 50
        for datum, message in [
            (f"[0,1;({fifty},3)]", f"gcd({fifty}, 3) != 1 (pair 1)"),
            (f"[0,1;(-{fifty},3)]", f"fiber order must be >= 1, got -{fifty} (pair 1)"),
            (f"[-{fifty},1]", f"genus must be >= 0, got -{fifty}"),
            (f"[0,1;(9{fifty},3)]", f"gcd({LONG}, 3) != 1 (pair 1)"),
        ]:
            assert invoke("invariants", "--data", datum) == (2, "", f"error: {message}\n")


class TestIntegerOptionValues:
    """An integer option quotes its value only up to 50 characters.

    So one past 4300 digits ends in a short usage error (exit 2), and short
    invalid values keep argparse's own text.
    """

    pytestmark = digit_limit

    LITERAL = "1" + "9" * 4300  # one digit past int()'s limit

    @pytest.mark.parametrize(
        "argv,tail",
        [
            (
                ("dedekind", "--alpha", LITERAL, "--beta", "1"),
                "--alpha: invalid int value: <4301 characters>",
            ),
            (
                ("dedekind", "--alpha", "1", "--beta", LITERAL),
                "--beta: invalid int value: <4301 characters>",
            ),
            (
                ("homology", "--data", "[1,1]", "--gauge-rank", LITERAL),
                "--gauge-rank: invalid _positive_int value: <4301 characters>",
            ),
            (
                ("partition", "--data", "[1,1]", "--cs-file", "cs.txt", "--level", LITERAL),
                "--level: invalid _positive_int value: <4301 characters>",
            ),
        ],
        ids=["alpha", "beta", "gauge-rank", "level"],
    )
    def test_long_literal_usage_error_is_short(self, capsys, argv, tail):
        assert invoke(*argv)[:2] == (2, "")
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.endswith(f"error: argument {tail}") and len(last) < 200

    @pytest.mark.parametrize(
        "argv,last",
        [
            (
                ("dedekind", "--alpha", "x", "--beta", "1"),
                "dedekind: error: argument --alpha: invalid int value: 'x'",
            ),
            (
                ("dedekind", "--alpha", "3", "--beta", "1.5"),
                "dedekind: error: argument --beta: invalid int value: '1.5'",
            ),
            (
                ("dedekind", "--alpha", "x" * 50, "--beta", "1"),
                f"dedekind: error: argument --alpha: invalid int value: '{'x' * 50}'",
            ),
            (
                ("dedekind", "--alpha", "x" * 51, "--beta", "1"),
                "dedekind: error: argument --alpha: invalid int value: <51 characters>",
            ),
            (
                ("homology", "--data", "[1,1]", "--gauge-rank", "x"),
                "homology: error: argument --gauge-rank: invalid _positive_int value: 'x'",
            ),
            (
                ("homology", "--data", "[1,1]", "--gauge-rank", "0"),
                "homology: error: argument --gauge-rank: must be >= 1, got 0",
            ),
            (
                ("partition", "--data", "[1,1]", "--cs-file", "cs.txt", "--level", "0"),
                "partition: error: argument --level: must be >= 1, got 0",
            ),
        ],
    )
    def test_short_invalid_values_keep_argparse_text(self, capsys, argv, last):
        assert invoke(*argv)[:2] == (2, "")
        assert capsys.readouterr().err.splitlines()[-1] == f"seifert-torsion {last}"


class TestInternalErrorRows:
    """A batch row whose builder raises a non-package exception gets an error
    record, the rows after it still run, and the run exits 1."""

    LINES = "[0,2;(3,1),(3,1)]\ngarbage\n[1,1]\n"

    @staticmethod
    def failing(monkeypatch, rows):
        """Make the homology builder raise ZeroDivisionError on its first `rows` calls."""
        build, help_text, keys = cli._DATA_COMMANDS["homology"]
        calls = []

        def builder(d, gauge_rank=1):
            calls.append(d)
            if len(calls) <= rows:
                raise ZeroDivisionError("division by zero")
            return build(d, gauge_rank)

        monkeypatch.setitem(cli._DATA_COMMANDS, "homology", (builder, help_text, keys))

    def test_json_rows_after_it_are_printed(self, monkeypatch, tmp_path):
        self.failing(monkeypatch, 1)
        path = tmp_path / "batch.txt"
        path.write_text(self.LINES)
        code, out, err = invoke("homology", "--input", str(path), "--format", "json")
        rows = [json.loads(line) for line in out.splitlines()]
        assert (code, err, len(rows)) == (1, "internal error in 1 rows\n", 3)
        error = {"type": "ZeroDivisionError", "message": "division by zero"}
        assert rows[0] == {"input": "[0,2;(3,1),(3,1)]", "error": error}
        assert rows[1]["error"]["type"] == "ParseError"
        assert rows[2]["c1"] == "1"

    def test_text_rows_count_every_internal_error(self, monkeypatch, tmp_path):
        self.failing(monkeypatch, 2)
        path = tmp_path / "batch.txt"
        path.write_text(self.LINES)
        code, out, err = invoke("homology", "--input", str(path))
        assert (code, err) == (1, "internal error in 2 rows\n")
        assert out == (
            "[0,2;(3,1),(3,1)] error: division by zero\n"
            "garbage error: offset 0: expected '[', found 'g'\n"
            "[1,1] error: division by zero\n"
        )

    def test_single_datum_is_unchanged(self, monkeypatch):
        self.failing(monkeypatch, 1)
        with pytest.raises(ZeroDivisionError):
            invoke("homology", "--data", "[1,1]")


class TestClassCountDigits:
    """A class count |Tors H1|^N past 4300 digits exits 4 with a one-line message."""

    MESSAGE = "class count |Tors H1|^4000 has more than 4300 digits"

    def test_data_exits_four(self):
        argv = ("homology", "--data", "[0,2;(3,1),(3,1)]", "--gauge-rank", "4000")
        assert invoke(*argv) == (4, "", f"error: {self.MESSAGE}\n")

    def test_huge_rank_answers_at_once(self, tmp_path):
        path = tmp_path / "cs.json"
        path.write_text("[0.0]")
        rank = ("--gauge-rank", "1000000000")
        for argv in (
            ("homology", "--data", "[0,-1;(2,1),(4,1),(4,1)]", *rank),
            ("partition", "--data", "[0,2;(3,1),(3,1)]", "--cs-file", str(path), *rank),
        ):
            code, out, err = invoke(*argv)
            assert (code, out) == (4, "") and err.endswith(" has more than 4300 digits\n")

    def test_batch_row_is_isolated(self, tmp_path):
        path = tmp_path / "batch.txt"
        path.write_text("[0,2;(3,1),(3,1)]\n[1,1]\n")
        argv = ("homology", "--input", str(path), "--gauge-rank", "4000", "--format", "json")
        code, out, err = invoke(*argv)
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and err == "" and len(rows) == 2
        assert rows[0]["error"] == {"type": "NumericWindowError", "message": self.MESSAGE}
        assert rows[1]["torsion_classes"] == "1"


BIG = 10**400 + 1  # larger than the largest double


class TestDoubleRange:
    """A float result outside the double range exits 4 with a one-line message."""

    CASES = {
        "invariants-rank-500": ("invariants", "--data", "[0,2;(3,1),(3,1)]", "--gauge-rank", "500"),
        "torsion-rank-500": ("torsion", "--data", "[0,2;(3,1),(3,1)]", "--gauge-rank", "500"),
        "radicand": ("torsion", "--data", f"[0,1;({BIG},1)]"),
        "alpha-product": ("torsion", "--data", f"[0,0;({10**200},1),({10**200 + 1},-1)]"),
    }

    @staticmethod
    def assert_exit_four(code, out, err):
        assert code == 4 and out == ""
        assert err.startswith("error: ") and err.endswith(" is outside the double range\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name", CASES)
    def test_exit_four(self, name):
        self.assert_exit_four(*invoke(*self.CASES[name]))

    def test_level_power(self, tmp_path):
        path = tmp_path / "cs.json"
        path.write_text("[0.0]")
        argv = ("partition", "--data", "[200,1]", "--level", "1000000", "--cs-file", str(path))
        self.assert_exit_four(*invoke(*argv))

    def test_huge_level_power_answers_at_once(self, tmp_path):
        # m_X = 1999999 at k = 10^6: refused from the bit length, not by taking k^m_X
        path = tmp_path / "cs.json"
        path.write_text("[0.0]")
        argv = ("partition", "--data", "[2000000,1]", "--level", "1000000", "--cs-file", str(path))
        self.assert_exit_four(*invoke(*argv))

    def test_grav_phase(self, tmp_path):
        # pi * 1e308 overflows the angle of exp(i pi N grav_phase)
        path = tmp_path / "cs.json"
        path.write_text("[0.0]")
        argv = ("partition", "--data", "[1,1]", "--cs-file", str(path), "--grav-phase", "1e308")
        self.assert_exit_four(*invoke(*argv))

    def test_batch_row_is_isolated(self, tmp_path):
        path = tmp_path / "batch.txt"
        path.write_text(f"[0,2;(3,1),(3,1)]\n[0,1;({BIG},1)]\n[1,1]\n")
        code, out, err = invoke("torsion", "--input", str(path), "--format", "json")
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and err == "" and len(rows) == 3
        assert rows[1]["error"]["type"] == "NumericWindowError"
        assert rows[0]["c1"] == "8/3" and rows[2]["c1"] == "1"


class TestComputeOnce:
    ROWS = ("[0,-1;(2,1),(3,1),(5,1)]", "[0,2;(3,1),(3,1)]", "[1,1;(6,5),(10,3),(15,-2)]", "x")

    @pytest.mark.parametrize("command", ["invariants", "homology"])
    def test_one_relation_matrix_per_row(self, monkeypatch, tmp_path, command):
        # every row but the malformed last one has c1 != 0, so each valid row
        # builds its relation matrix once and needs no Smith normal form
        calls = {"relations": 0, "snf": 0}
        relations, snf = homology.relation_matrix, homology.smith_normal_form

        def counting_relations(data):
            calls["relations"] += 1
            return relations(data)

        def counting_snf(matrix):
            calls["snf"] += 1
            return snf(matrix)

        monkeypatch.setattr(homology, "relation_matrix", counting_relations)
        monkeypatch.setattr(homology, "smith_normal_form", counting_snf)
        path = tmp_path / "batch.txt"
        path.write_text("\n".join(self.ROWS) + "\n")
        code, out, _ = invoke(command, "--input", str(path), "--format", "json")
        assert code == 0 and len(out.splitlines()) == len(self.ROWS)
        assert calls == {"relations": len(self.ROWS) - 1, "snf": 0}

    def test_chern_zero_homology_row_one_relation_matrix_no_snf(self, monkeypatch):
        # the torsion classes and the warning come from the report's one H1,
        # which is in closed form at c1 = 0 too
        calls = {"relations": 0, "snf": 0}
        relations, snf = homology.relation_matrix, homology.smith_normal_form

        def counting_relations(data):
            calls["relations"] += 1
            return relations(data)

        def counting_snf(matrix):
            calls["snf"] += 1
            return snf(matrix)

        monkeypatch.setattr(homology, "relation_matrix", counting_relations)
        monkeypatch.setattr(homology, "smith_normal_form", counting_snf)
        code, out, _ = invoke("homology", "--data", "[0,-1;(2,1),(4,1),(4,1)]", "--format", "json")
        report = json.loads(out)
        assert code == 0 and calls == {"relations": 1, "snf": 0}
        assert report["torsion_classes"] == "2" and report["moduli"] is None
        assert report["warnings"] == ["c1 = 0: torsion-power identity not asserted for this datum"]

    def test_partition_evaluates_once(self, monkeypatch, tmp_path):
        # c1 != 0 here, so the class count needs no Smith normal form; one
        # phase-sum pass is one fsum for the real part and one for the imaginary
        calls = {"snf": 0, "eta": 0, "fsum": 0}
        snf, eta, fsum = homology.smith_normal_form, partition.adiabatic_eta, math.fsum

        def counting_snf(matrix):
            calls["snf"] += 1
            return snf(matrix)

        def counting_eta(data, gauge_rank=1):
            calls["eta"] += 1
            return eta(data, gauge_rank)

        def counting_fsum(values):
            calls["fsum"] += 1
            return fsum(values)

        monkeypatch.setattr(homology, "smith_normal_form", counting_snf)
        monkeypatch.setattr(partition, "adiabatic_eta", counting_eta)
        monkeypatch.setattr(math, "fsum", counting_fsum)
        path = tmp_path / "cs.json"
        path.write_text(json.dumps([0.0] * 24))
        argv = ("partition", "--data", "[0,2;(3,1),(3,1)]", "--cs-file", str(path))
        assert invoke(*argv, "--grav-phase", "0.5")[0] == 0
        assert calls == {"snf": 0, "eta": 1, "fsum": 2}


class TestDedekind:
    def test_text_output_is_exact_value(self):
        code, out, _ = invoke("dedekind", "--alpha", "3", "--beta", "1")
        assert code == 0
        assert out.strip() == "1/18"

    def test_json_report(self):
        code, out, _ = invoke(
            "dedekind", "--alpha", "5", "--beta", "3", "--format", "json"
        )
        report = json.loads(out)
        assert code == 0
        assert report["exact"] == "0"
        assert report["difference"] == pytest.approx(0.0, abs=1e-12)


class TestChernZeroHomology:
    def test_reports_without_moduli(self):
        code, out, err = invoke("homology", "--data", "[1,0]", "--format", "json")
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["moduli"] is None
        assert report["homology"]["rank"] == 3
        assert report["warnings"]  # the degenerate case is announced


class TestPartitionCommand:
    def test_json_array_cs_file(self, tmp_path):
        path = tmp_path / "cs.json"
        path.write_text(json.dumps([0.0] * 24))
        code, out, _ = invoke(
            "partition", "--data", "[0,2;(3,1),(3,1)]",
            "--cs-file", str(path), "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["classes"] == "24"
        assert report["magnitude"] == pytest.approx(math.sqrt(24.0), rel=1e-12)
        assert report["magnitude"] == pytest.approx(
            report["coherent_bound"], rel=1e-12
        )
        assert "z" not in report

    def test_whitespace_cs_file(self, tmp_path):
        path = tmp_path / "cs.txt"
        path.write_text("0.0\n" * 24)
        code, out, _ = invoke(
            "partition", "--data", "[0,2;(3,1),(3,1)]",
            "--cs-file", str(path), "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["magnitude"] == pytest.approx(
            math.sqrt(24.0), rel=1e-12
        )

    def test_grav_phase_adds_z_block(self, tmp_path):
        path = tmp_path / "cs.json"
        path.write_text("[0.0]")
        code, out, _ = invoke(
            "partition", "--data", "[1,1]", "--cs-file", str(path),
            "--grav-phase", "0.25", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        z = complex(report["z"]["re"], report["z"]["im"])
        zbar = complex(report["zbar"]["re"], report["zbar"]["im"])
        assert abs(z) == pytest.approx(abs(zbar), rel=1e-12)

    def test_length_mismatch_exit(self, tmp_path):
        path = tmp_path / "cs.json"
        path.write_text("[0.0, 0.0]")
        code, _, err = invoke(
            "partition", "--data", "[0,2;(3,1),(3,1)]", "--cs-file", str(path)
        )
        assert code == 3 and "24" in err

    def test_malformed_cs_file(self, tmp_path):
        path = tmp_path / "cs.json"
        path.write_text("[0.0, oops]")
        code, _, err = invoke(
            "partition", "--data", "[1,1]", "--cs-file", str(path)
        )
        assert code == 2

    @pytest.mark.parametrize("text", ["[NaN]", "[1e999]", "nan\n", "0.5 -inf"])
    def test_non_finite_cs_entry(self, tmp_path, text):
        path = tmp_path / "cs.txt"
        path.write_text(text)
        code, out, err = invoke("partition", "--data", "[1,1]", "--cs-file", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: cs file holds a non-finite entry: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, entry",
        [
            ("[true]", "true"),
            ('["1.5"]', '"1.5"'),
            ("[0.5, null]", "null"),
            ('[0.5, "a", true]', '"a"'),  # the first bad entry is named
            ("[0.5, 1e400, null]", "null"),  # the type check runs before the finiteness check
        ],
    )
    def test_non_number_json_entry(self, tmp_path, text, entry):
        path = tmp_path / "cs.json"
        path.write_text(text)
        code, out, err = invoke("partition", "--data", "[1,1]", "--cs-file", str(path))
        assert (code, out, err) == (2, "", f"error: cs file holds a non-numeric entry: {entry}\n")

    def test_first_non_finite_decimal_is_named(self, tmp_path):
        path = tmp_path / "cs.txt"
        path.write_text("0.5 nan inf")
        code, out, err = invoke("partition", "--data", "[1,1]", "--cs-file", str(path))
        assert (code, out, err) == (2, "", "error: cs file holds a non-finite entry: nan\n")

    def test_json_integer_past_double_range(self, tmp_path):
        path = tmp_path / "cs.json"
        path.write_text(f"[{10**400}]")
        code, out, err = invoke("partition", "--data", "[1,1]", "--cs-file", str(path))
        assert (code, out, err) == (2, "", "error: cs file holds a non-finite entry: inf\n")

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf", "1e999"])
    def test_non_finite_grav_phase(self, tmp_path, capsys, value):
        path = tmp_path / "cs.json"
        path.write_text("[0.0]")
        argv = ("partition", "--data", "[1,1]", "--cs-file", str(path), f"--grav-phase={value}")
        assert invoke(*argv) == (2, "", "")
        assert f"argument --grav-phase: must be finite, got {value}\n" in capsys.readouterr().err


class TestLongUserText:
    """A --grav-phase value or a cs-file entry is quoted only up to 50 characters."""

    @pytest.mark.parametrize(
        "value,tail",
        [
            ("9" * 400, "must be finite, got <400 characters>"),
            ("9" * 5000, "must be finite, got <5000 characters>"),
            ("x" * 400, "invalid float value: <400 characters>"),
            ("x" * 50, f"invalid float value: '{'x' * 50}'"),
        ],
        ids=["400-nines", "5000-nines", "400-letters", "50-letters"],
    )
    def test_grav_phase_message_is_short(self, tmp_path, capsys, value, tail):
        path = tmp_path / "cs.json"
        path.write_text("[0.0]")
        argv = ("partition", "--data", "[1,1]", "--cs-file", str(path), f"--grav-phase={value}")
        assert invoke(*argv) == (2, "", "")
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.endswith(f"argument --grav-phase: {tail}") and len(last) < 200

    @pytest.mark.parametrize(
        "text,shown",
        [
            (json.dumps(["a" * 5000]), "<5002 characters>"),
            (json.dumps([0.5, [0.5] * 2000]), f"<{len(json.dumps([0.5] * 2000))} characters>"),
            (json.dumps([0.5, "a" * 48]), json.dumps("a" * 48)),
        ],
        ids=["json-string", "json-array", "50-characters"],
    )
    def test_cs_file_message_is_short(self, tmp_path, text, shown):
        path = tmp_path / "cs.txt"
        path.write_text(text)
        code, out, err = invoke("partition", "--data", "[1,1]", "--cs-file", str(path))
        assert (code, out, err) == (2, "", f"error: cs file holds a non-numeric entry: {shown}\n")
        assert len(err) < 200


class TestUtf8:
    """Files are read as UTF-8, and main() writes UTF-8 whatever the locale."""

    MESSAGE = "'utf-8' codec can't decode byte 0xff in position 3: invalid start byte"

    def test_batch_row_that_is_not_utf8_gets_an_error_record(self, tmp_path):
        path = tmp_path / "batch.txt"
        path.write_bytes(b"[1,1]\n[0,\xff1]\n[0,2;(3,1),(3,1)]\n")
        code, out, err = invoke("homology", "--input", str(path), "--format", "json")
        out.encode("utf-8")  # the record holds no lone surrogate, so it can be written
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and err == "" and len(rows) == 3
        message = f"row is not valid UTF-8: {self.MESSAGE}"
        error = {"type": "ValidationError", "message": message}
        assert rows[1] == {"input": "[0,\\xff1]", "error": error}
        assert rows[0]["c1"] == "1" and rows[2]["c1"] == "8/3"
        code, out, _ = invoke("homology", "--input", str(path))
        assert code == 0 and out.splitlines()[1] == f"[0,\\xff1] error: {message}"

    def test_cs_file_that_is_not_utf8_exits_two(self, tmp_path):
        path = tmp_path / "cs.txt"
        path.write_bytes(b"0.5\n\xff\n")
        code, out, err = invoke("partition", "--data", "[1,1]", "--cs-file", str(path))
        message = "'utf-8' codec can't decode byte 0xff in position 4: invalid start byte"
        assert (code, out, err) == (2, "", f"error: cs file is not valid UTF-8: {message}\n")

    def test_main_writes_utf8_to_an_ascii_stream(self):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        env["PYTHONIOENCODING"] = "ascii"
        argv = ["-m", "seifert_torsion", "invariants", "--data", "[0,2;(3,1),(3,1)]"]
        proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert "scalar torsion      4.386490844928604 = (2π)^2/9\n" in proc.stdout.decode("utf-8")


class TestBatch:
    LINES = (
        "[0,-1;(2,1),(3,1),(5,1)]",
        "garbage",
        "[0,2;(3,1),(3,1)]",
        "[0,1;(4,2)]",
        "[1,1]",
    )

    def test_line_parity_and_error_isolation(self, tmp_path):
        path = tmp_path / "batch.txt"
        path.write_text("\n".join(self.LINES) + "\n")
        code, out, err = invoke(
            "invariants", "--input", str(path), "--format", "json"
        )
        assert code == 0 and err == ""
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == len(self.LINES)
        assert rows[0]["c1"] == "1/30"
        assert rows[1]["error"]["type"] == "ParseError"
        assert rows[2]["c1"] == "8/3"
        assert rows[3]["error"]["type"] == "CoprimalityViolation"
        assert rows[4]["c1"] == "1"

    def test_text_lines(self, tmp_path):
        path = tmp_path / "batch.txt"
        path.write_text("\n".join(self.LINES) + "\n")
        code, out, _ = invoke("invariants", "--input", str(path))
        lines = out.splitlines()
        assert code == 0 and len(lines) == len(self.LINES)
        assert "error:" in lines[1] and "error:" in lines[3]

    TEXT_LINES = {
        "invariants": (
            "[0,-1;(2,1),(3,1),(5,1)] c1=1/30 torsion_order=1 rank=0 factors=[] eta0=-91/180 m_x=-1\n"
            "[0,1;(4,2)] error: gcd(4, 2) != 1 (pair 1)\n"
            "[0,2;(3,1),(3,1)] c1=8/3 torsion_order=24 rank=0 factors=[24] eta0=2/9 m_x=-1\n"
            "(empty) error: offset 0: expected '[', found end of input\n"
            "[1,0] error: orbifold chern number c1 = 0: the closed-form moduli and torsion"
            " identities require c1 != 0\n"
        ),
        "homology": (
            "[0,-1;(2,1),(3,1),(5,1)] c1=1/30 rank=0 factors=[] torsion_classes=1\n"
            "[0,1;(4,2)] error: gcd(4, 2) != 1 (pair 1)\n"
            "[0,2;(3,1),(3,1)] c1=8/3 rank=0 factors=[24] torsion_classes=24\n"
            "(empty) error: offset 0: expected '[', found end of input\n"
            "[1,0] c1=0 rank=3 factors=[] torsion_classes=1\n"
        ),
        "torsion": (
            "[0,-1;(2,1),(3,1),(5,1)] c1=1/30 scalar_torsion=1.315947253478581"
            " prefactor=1.0 volume=1.0\n"
            "[0,1;(4,2)] error: gcd(4, 2) != 1 (pair 1)\n"
            "[0,2;(3,1),(3,1)] c1=8/3 scalar_torsion=4.386490844928604"
            " prefactor=0.2041241452319315 volume=4.898979485566356\n"
            "(empty) error: offset 0: expected '[', found end of input\n"
            "[1,0] error: orbifold chern number c1 = 0: the closed-form moduli and torsion"
            " identities require c1 != 0\n"
        ),
    }

    @pytest.mark.parametrize("command", TEXT_LINES)
    def test_text_lines_exact(self, tmp_path, command):
        path = tmp_path / "batch.txt"
        rows = ("[0,-1;(2,1),(3,1),(5,1)]", "[0,1;(4,2)]", "[0,2;(3,1),(3,1)]", "", "[1,0]")
        path.write_text("\n".join(rows) + "\n")
        assert invoke(command, "--input", str(path)) == (0, self.TEXT_LINES[command], "")

    def test_homology_batch_chern_zero_line(self, tmp_path):
        # c1 = 0 is an error for invariants but a valid homology row
        path = tmp_path / "batch.txt"
        path.write_text("[1,0]\n[1,1]\n")
        code, out, _ = invoke("homology", "--input", str(path), "--format", "json")
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and len(rows) == 2
        assert rows[0]["homology"]["rank"] == 3 and rows[0]["moduli"] is None
        assert rows[1]["homology"]["rank"] == 2


class TestSelftest:
    def test_all_checks_pass(self):
        code, out, _ = invoke("zeta-selftest", "--format", "json")
        report = json.loads(out)
        assert code == 0 and report["ok"]
        assert all(c["ok"] for c in report["checks"])
        assert len(report["checks"]) >= 10

    def test_text_rendering(self):
        code, out, _ = invoke("zeta-selftest")
        assert code == 0
        assert "ok" in out and "FAIL" not in out
