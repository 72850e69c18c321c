"""Command line tests: exit codes, JSON output, determinism."""

import json
import subprocess
import sys

import pytest

from liejets.algebras import basis_element, heisenberg3, zero_element
from liejets.cli import main
from liejets.jets import jet_make
from liejets.sampling import PLAIN_RING

H3 = heisenberg3()


def h3_jet_doc(order, *names):
    coords = [
        zero_element(H3, PLAIN_RING) if n == "0" else basis_element(H3, PLAIN_RING, n)
        for n in names
    ]
    return jet_make(H3, PLAIN_RING, order, coords).to_json()


def _set(path, value):
    """Corruption that replaces one entry of a jet document."""
    def corrupt(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return doc

    return corrupt


@pytest.fixture
def jet_files(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


class TestValidate:
    def test_builtin_name_passes(self, capsys):
        assert main(["validate", "h3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"algebra": "h3", "status": "pass"}

    def test_spec_file_passes(self, jet_files, capsys):
        path = jet_files("h3.json", H3.to_json())
        assert main(["validate", path]) == 0

    def test_corrupted_spec_fails_with_triple(self, jet_files, capsys):
        doc = {
            "name": "h3-corrupted",
            "basis": ["p", "q", "z"],
            "brackets": [
                {"left": "p", "right": "q", "value": [["z", "1"]]},
                {"left": "p", "right": "z", "value": [["p", "1"]]},
            ],
        }
        path = jet_files("bad.json", doc)
        assert main(["validate", path]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "fail"
        assert out["failing_triple"] == ["p", "q", "z"]
        assert out["defect"] == {"z": "1"}

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json_is_usage_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2


class TestMul:
    def test_order2_product(self, jet_files, capsys):
        a = jet_files("a.json", h3_jet_doc(2, "p", "0"))
        b = jet_files("b.json", h3_jet_doc(2, "q", "0"))
        assert main(["mul", a, b]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["order"] == 2
        assert doc["coordinates"] == "exp"
        assert set(doc["coords"][0]["coords"]) == {"p", "q"}
        assert set(doc["coords"][1]["coords"]) == {"z"}

    @pytest.mark.parametrize("engine", ["bch", "matrix"])
    def test_engines_agree_byte_for_byte(self, jet_files, capsys, engine):
        a = jet_files("a.json", h3_jet_doc(2, "p", "0"))
        b = jet_files("b.json", h3_jet_doc(2, "q", "0"))
        assert main(["mul", a, b]) == 0
        default_out = capsys.readouterr().out
        assert main(["mul", a, b, "--via", engine]) == 0
        assert capsys.readouterr().out == default_out

    def test_order_mismatch_fails(self, jet_files):
        a = jet_files("a.json", h3_jet_doc(1, "p"))
        b = jet_files("b.json", h3_jet_doc(2, "q", "0"))
        assert main(["mul", a, b]) == 1

    def test_explicit_order_flag_enforced(self, jet_files):
        a = jet_files("a.json", h3_jet_doc(2, "p", "0"))
        assert main(["mul", a, a, "--order", "3"]) == 1

    def test_unknown_algebra_is_usage_error(self, jet_files):
        doc = h3_jet_doc(1, "p")
        doc["algebra"] = "g2"
        a = jet_files("a.json", doc)
        assert main(["mul", a, a]) == 2

    @pytest.mark.parametrize(
        "corrupt",
        [
            _set(("coords", 0, "coords", "p", "terms", 0, 1), "1/0"),
            _set(("coords", 0, "coords", "p", "ring"), [["t", "x"]]),
            _set(("coords", 0, "coords"), [["p", "1"]]),
            lambda doc: [doc],
        ],
        ids=["zero-denominator", "non-integer-order", "coords-as-list", "top-level-array"],
    )
    def test_malformed_jet_is_one_line_usage_error(self, jet_files, capsys, corrupt):
        doc = h3_jet_doc(1, "p")
        a = jet_files("a.json", corrupt(doc))
        assert main(["mul", a, a]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestBracket:
    def test_pointwise_bracket(self, jet_files, capsys):
        a = jet_files("a.json", h3_jet_doc(2, "p", "0"))
        b = jet_files("b.json", h3_jet_doc(2, "q", "0"))
        assert main(["bracket", a, b]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["coordinates"] == "monomial"
        assert doc["coords"][0]["coords"] == {}
        assert set(doc["coords"][1]["coords"]) == {"z"}


class TestVerify:
    def test_s6_passes(self, capsys):
        code = main(
            ["verify", "--suite", "s6", "--algebra", "h3", "--trials", "5"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert [c["check"] for c in doc["checks"]] == [
            "lemma-6.3.1", "thm-6.1", "thm-6.2", "thm-6.3",
        ]
        assert doc["seed"] == 0
        assert "liejets" in doc["versions"]
        assert all("seconds" in c for c in doc["checks"])

    def test_s7_order3(self, capsys):
        code = main(
            ["verify", "--suite", "s7", "--order", "3", "--algebra", "h3",
             "--trials", "5"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert [c["check"] for c in doc["checks"]] == ["thm-7.0", "thm-7.3"]

    def test_free_nilpotent_flags(self, capsys):
        code = main(
            ["verify", "--suite", "s6", "--algebra", "free-nilpotent",
             "--generators", "3", "--class", "3", "--trials", "3"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        random_detail = next(
            c for c in doc["checks"] if c["check"] == "thm-6.1"
        )["detail"]["random"]
        assert set(random_detail) == {"free-nilpotent(3,3)"}

    def test_no_timing_reports_are_byte_identical(self, capsys):
        argv = ["verify", "--suite", "s7", "--order", "2", "--algebra", "h3",
                "--trials", "5", "--seed", "7", "--no-timing"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert "seconds" not in first

    def test_unknown_algebra_is_usage_error(self):
        assert main(["verify", "--algebra", "e8"]) == 2

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_no_trials_is_usage_error(self, capsys, trials):
        assert main(["verify", "--suite", "s6", "--algebra", "h3", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: trials must be at least 1")

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "s5"])
        assert exc.value.code == 2

    def test_s4_needs_a_representation(self):
        assert (
            main(["verify", "--suite", "s4", "--algebra", "free-nilpotent(2,3)",
                  "--trials", "2"])
            == 2
        )


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "liejets", "verify", "--suite", "s6",
         "--algebra", "h3", "--trials", "2", "--no-timing"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert all(c["status"] == "pass" for c in doc["checks"])
