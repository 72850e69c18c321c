"""Command line tests: exit codes, JSON output, determinism."""

import json
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from random import Random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from liejets.algebras import MAX_DIMENSION, abelian, basis_element, heisenberg3, zero_element
from liejets.catalog import resolve_algebra
from liejets.cli import build_parser, main
from liejets.jets import jet_make, jet_scale
from liejets.sampling import PLAIN_RING, random_jet
from liejets.scalars import ring_make

H3 = heisenberg3()

#: Files that are no JSON document at all: bytes that are not UTF-8 text, and
#: arrays nested deeper than the parser's recursion limit.
NOT_UTF8 = b"\xff\xfe{}"
NESTED_TOO_DEEP = b"[" * 100_000 + b"]" * 100_000

#: An error line, prefix and newline included, stays shorter than this however
#: long the input it echoes.
ERROR_LINE_LIMIT = 300
#: A family parameter longer than ``int()`` reads (``sys.get_int_max_str_digits()``).
NINES = "9" * 5000


def _spec_doc(*brackets, basis=("a", "b", "c"), name="x"):
    """Spec document with brackets given as (left, right, value) triples."""
    return {
        "name": name,
        "basis": basis,
        "brackets": [{"left": a, "right": b, "value": v} for a, b, v in brackets],
    }


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


def _over_t(order, exponent, name="t"):
    """Corruption that moves the first coordinate onto the ring [[name, order]]
    with the single term t^exponent."""
    def corrupt(doc):
        element = doc["coords"][0]
        element["ring"] = [[name, order]]
        element["coords"]["p"] = {"ring": [[name, order]], "terms": [[[exponent], "1"]]}
        return doc

    return corrupt


def _repeated_p(doc):
    """Corruption that gives the coordinate p twice, first 1 and then 5, as
    text: ``json.load`` alone keeps the last, so the jet read is 5p."""
    once = '"p": {"ring": [], "terms": [[[], "1"]]}'
    text = json.dumps(doc)
    assert once in text
    return text.replace(once, f"{once}, {once.replace('1', '5')}").encode()


def _drop_ring(doc):
    """Corruption that deletes the ring of the first coordinate."""
    del doc["coords"][0]["ring"]
    return doc


#: A valid "p" rational of 2500 digits, which reads and converts to text
#: within the interpreter's 4300-digit limit, though its square does not.
LONG = "7" * 2500


def _long_pair(jet_files) -> tuple[str, str]:
    """Files of the order-2 jets (LONG p, 0) and (LONG q, 0)."""
    paths = []
    for name in ("p", "q"):
        doc = h3_jet_doc(2, name, "0")
        doc["coords"][0]["coords"][name]["terms"][0][1] = LONG
        paths.append(jet_files(f"{name}.json", doc))
    return tuple(paths)


def _assert_too_long(captured) -> None:
    assert captured.out == ""
    assert captured.err == (
        f"error: the result has a number of more than {sys.get_int_max_str_digits()} "
        "digits, too long to print\n"
    )


@pytest.fixture
def jet_files(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        return str(path)

    return write


class TestValidate:
    def test_builtin_name_passes(self, capsys):
        assert main(["validate", "h3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"algebra": "h3", "status": "pass"}

    def test_builtin_name_beside_a_directory_of_that_name_passes(
        self, tmp_path, monkeypatch, capsys
    ):
        (tmp_path / "h3").mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(["validate", "h3"]) == 0
        assert json.loads(capsys.readouterr().out) == {"algebra": "h3", "status": "pass"}

    def test_spec_read_from_a_pipe_passes(self):
        spec = json.dumps(_spec_doc(("p", "q", [["z", "1"]]), basis=("p", "q", "z")))
        proc = subprocess.run(
            [sys.executable, "-m", "liejets", "validate", "/dev/stdin"],
            input=spec, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"algebra": "x", "status": "pass"}

    def test_spec_file_passes(self, jet_files, capsys):
        path = jet_files("h3.json", _spec_doc(("p", "q", [["z", "1"]]), basis=("p", "q", "z")))
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

    def test_stdout_is_pinned_byte_for_byte(self, jet_files, capsys):
        assert main(["validate", "h3"]) == 0
        assert capsys.readouterr().out == '{\n  "algebra": "h3",\n  "status": "pass"\n}\n'
        doc = _spec_doc(("p", "q", [["z", "1"]]), ("p", "z", [["p", "1/2"]]),
                        name="h3-corrupted", basis=("p", "q", "z"))
        assert main(["validate", jet_files("bad.json", doc)]) == 1
        assert capsys.readouterr().out == (
            '{\n  "algebra": "h3-corrupted",\n  "status": "fail",\n'
            '  "failing_triple": [\n    "p",\n    "q",\n    "z"\n  ],\n'
            '  "defect": {\n    "z": "1/2"\n  }\n}\n'
        )

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_oversized_spec_is_one_line_usage_error(self, jet_files, capsys):
        doc = {"name": "big", "basis": [f"b{i}" for i in range(MAX_DIMENSION + 1)]}
        assert main(["validate", jet_files("big.json", doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_malformed_json_is_usage_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2

    @pytest.mark.parametrize("content", [NOT_UTF8, NESTED_TOO_DEEP],
                             ids=["not-utf8", "nested-too-deep"])
    def test_unreadable_json_is_one_line_usage_error(self, jet_files, capsys, content):
        assert main(["validate", jet_files("spec.json", content)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("name, bound", [
        (f"abelian({MAX_DIMENSION + 1})", f"1..{MAX_DIMENSION}"),
        ("free-nilpotent(4,3)", "generator count must be between 1 and 3"),
        # parameters longer than int() reads raised a bare ValueError, and
        # \d read an Arabic-Indic three as 3
        pytest.param(f"abelian({NINES})", "at most 4 digits", id="abelian-5000-digits"),
        pytest.param(f"free-nilpotent({NINES},2)", "at most 4 digits",
                     id="free-nilpotent-5000-digits"),
        pytest.param("abelian(\u0663)", "neither a readable file nor a built-in algebra",
                     id="abelian-non-ascii-digit"),
    ])
    def test_out_of_bounds_builtin_names_its_bound(self, capsys, name, bound):
        assert main(["validate", name]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert bound in err

    @pytest.mark.parametrize("doc", [
        _spec_doc(basis=["a", 1.5, True, None, {"k": 1}]),
        _spec_doc(name=7),
        _spec_doc(basis="abc"),
        _spec_doc(("a", "b", [[1, "1"]]), basis=("a", "b", "1")),
        _spec_doc(("a", "b", [["c", "1"]]), ("a", "b", [["a", "1"]])),
        _spec_doc(("a", "b", [["c", "1"]]), ("b", "a", [["a", "1"]])),
        _spec_doc(("a", "b", [["b" * 50_000, "1"]])),
        _spec_doc(("a\nb", "c", [])),
        _spec_doc(("a", "b", ["c1"])),
        b'{"name": "x", "basis": ["a"], "basis": ["a", "b", "c"], "brackets": []}',
    ], ids=["non-string-basis", "non-string-name", "basis-as-string",
            "non-string-value-name", "pair-twice", "pair-twice-reversed",
            "long-name", "name-with-line-break", "value-pair-as-string", "basis-twice"])
    def test_bad_spec_is_one_short_usage_error_line(self, jet_files, capsys, doc):
        # The first six loaded and passed, coerced or with a bracket dropped;
        # the next two were refused, echoing 50 KB or breaking the line; the
        # next loaded the string "c1" as the pair ["c", "1"], and the last
        # checked the second of its two bases.
        assert main(["validate", jet_files("spec.json", doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert len(captured.err) < ERROR_LINE_LIMIT

    def test_defect_too_long_to_print_is_one_line_usage_error(self, jet_files, capsys):
        # the Jacobi defect at (p, q, z) is LONG^2 z
        doc = _spec_doc(("p", "q", [["z", LONG]]), ("p", "z", [["p", LONG]]),
                        basis=("p", "q", "z"))
        assert main(["validate", jet_files("spec.json", doc)]) == 2
        _assert_too_long(capsys.readouterr())

    def test_unknown_name_is_neither_file_nor_builtin(self, capsys):
        assert main(["validate", "g2"]) == 2
        assert capsys.readouterr().err == (
            "error: 'g2' is neither a readable file nor a built-in algebra\n"
        )


def _seeded_pair(algebra, over_e):
    """Documents of two seeded order-3 jets on ``algebra``, over Q or,
    scaled by 1 + e, over Q[e]/(e^2), so that each engine lifts a curve over
    a base ring with a generator and lays d's field above e's."""
    spec, rng = resolve_algebra(algebra), Random(0)
    ring = ring_make([("e", 1)]) if over_e else PLAIN_RING
    jets = [random_jet(spec, ring, 3, rng) for _ in range(2)]
    if over_e:
        jets = [jet_scale(jet, ring.one + ring.gen("e")) for jet in jets]
    return tuple(jet.to_json() for jet in jets)


ENGINE_PAIRS = [
    pytest.param((h3_jet_doc(2, "p", "0"), h3_jet_doc(2, "q", "0")), id="h3-basis"),
] + [
    pytest.param(_seeded_pair(algebra, over_e), id=f"{algebra}-order3-{'e' if over_e else 'q'}")
    for algebra in ("h3", "sl2", "so3") for over_e in (False, True)
]


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
    @pytest.mark.parametrize("pair", ENGINE_PAIRS)
    def test_engines_agree_byte_for_byte(self, jet_files, capsys, pair, engine):
        a, b = (jet_files(f"{name}.json", doc) for name, doc in zip("ab", pair))
        assert main(["mul", a, b]) == 0
        default_out = capsys.readouterr().out
        assert main(["mul", a, b, "--via", engine]) == 0
        assert capsys.readouterr().out == default_out

    def test_order_mismatch_fails(self, jet_files):
        a = jet_files("a.json", h3_jet_doc(1, "p"))
        b = jet_files("b.json", h3_jet_doc(2, "q", "0"))
        assert main(["mul", a, b]) == 1

    def test_unknown_algebra_is_usage_error(self, jet_files):
        doc = h3_jet_doc(1, "p")
        doc["algebra"] = "g2"
        a = jet_files("a.json", doc)
        assert main(["mul", a, a]) == 2

    def test_matrix_engine_refuses_an_algebra_without_a_rep(self, jet_files, capsys):
        a3 = abelian(3)
        doc = jet_make(a3, PLAIN_RING, 1, [basis_element(a3, PLAIN_RING, "a1")]).to_json()
        a = jet_files("a.json", doc)
        assert main(["mul", a, a]) == 0
        capsys.readouterr()
        assert main(["mul", a, a, "--via", "matrix"]) == 2
        assert capsys.readouterr().err == "error: no built-in representation for 'abelian(3)'\n"

    @pytest.mark.parametrize(
        "corrupt",
        [
            _set(("coords", 0, "coords", "p", "terms", 0, 1), "1/0"),
            _set(("coords", 0, "coords", "p", "ring"), [["t", "x"]]),
            _set(("coords", 0, "coords"), [["p", "1"]]),
            lambda doc: [doc],
            _set(("coords", 0, "coords", "p", "terms", 0, 1), 0.1),
            _over_t(1.7, 1),
            _over_t(1, 1.9),
            _over_t(1, 1, name=1),
            _set(("order",), 1.0),
            _set(("coords", 0, "coords", "p", "terms", 0, 1), True),
            _set(("order",), True),
            lambda doc: NOT_UTF8,
            lambda doc: NESTED_TOO_DEEP,
            _set(("coords", 0, "coords", "p", "terms", 0, 1), "1" * 100_000),
            _drop_ring,
            _set(("coords", 0, "coords", "p", "terms", 0, 1), "1e5000"),
            _set(("coords", 0, "coords", "p", "terms", 0, 1), "0.5"),
            _set(("coords", 0, "coords", "p", "terms", 0, 1), " 1/2 "),
            _set(("coords", 0, "coords", "p", "terms", 0, 1), "1_000"),
            _set(("coords", 0, "ring"), ""),
            _set(("coords", 0, "ring"), {}),
            _set(("coords", 0, "coords", "p", "ring"), ""),
            _set(("coords", 0, "coords", "p", "terms", 0, 0), ""),
            _repeated_p,
            _set(("algebra",), f"abelian({NINES})"),
        ],
        ids=[
            "zero-denominator", "non-integer-order", "coords-as-list", "top-level-array",
            "float-coefficient", "float-ring-order", "float-exponent", "non-string-ring-name",
            "float-jet-order",
            "boolean-coefficient", "boolean-jet-order", "not-utf8", "nested-too-deep",
            "long-coefficient", "element-without-ring", "exponent-coefficient",
            "decimal-coefficient", "padded-coefficient", "underscore-coefficient",
            "element-ring-as-string", "element-ring-as-object", "scalar-ring-as-string",
            "exponent-vector-as-string", "coordinate-twice", "algebra-5000-digits",
        ],
    )
    def test_malformed_jet_is_one_line_usage_error(self, jet_files, capsys, corrupt):
        # An order-1 jet whose only coordinate is p: every corruption above
        # turns a valid document into one that must be refused.
        doc = h3_jet_doc(1, "p")
        a = jet_files("a.json", corrupt(doc))
        assert main(["mul", a, a]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < ERROR_LINE_LIMIT

    @pytest.mark.parametrize("engine", ["def61", "bch", "matrix"])
    def test_product_too_long_to_print_is_one_line_usage_error(
        self, jet_files, capsys, engine
    ):
        # valid 2500-digit coefficients of p and q: [p, q] = z gets a
        # 5000-digit one, past the interpreter's limit on printing integers
        a, b = _long_pair(jet_files)
        assert main(["mul", a, b, "--via", engine]) == 2
        _assert_too_long(capsys.readouterr())

    @pytest.mark.parametrize("spelling", ["free_nilpotent(2,3)", "Free-Nilpotent(2,3)"])
    def test_elements_may_spell_their_algebra_as_the_jet_does(
        self, jet_files, capsys, spelling
    ):
        rng = Random(3)
        docs = [random_jet(resolve_algebra(spelling), PLAIN_RING, 3, rng).to_json()
                for _ in "ab"]
        assert main(["mul", *(jet_files(f"{n}.json", d) for n, d in zip("ab", docs))]) == 0
        canonical = capsys.readouterr().out
        respelled = [json.loads(json.dumps(d).replace("free-nilpotent(2,3)", spelling))
                     for d in docs]
        assert all(e["algebra"] == spelling for d in respelled for e in d["coords"])
        paths = [jet_files(f"{n}-respelled.json", d) for n, d in zip("ab", respelled)]
        assert main(["mul", *paths]) == 0
        assert capsys.readouterr().out == canonical
        # an element of another algebra is still refused
        doc = h3_jet_doc(1, "p")
        doc["coords"][0]["algebra"] = "sl2"
        a = jet_files("a.json", doc)
        assert main(["mul", a, a]) == 2
        assert "element belongs to 'sl2', expected 'h3'" in capsys.readouterr().err

    def test_element_without_ring_names_the_key(self, jet_files, capsys):
        a = jet_files("a.json", _drop_ring(h3_jet_doc(1, "p")))
        assert main(["mul", a, a]) == 2
        assert "needs its 'ring'" in capsys.readouterr().err


class TestBracket:
    def test_bracket_too_long_to_print_is_one_line_usage_error(self, jet_files, capsys):
        a, b = _long_pair(jet_files)
        assert main(["bracket", a, b]) == 2
        _assert_too_long(capsys.readouterr())

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
            ["verify", "--suite", "s6", "--algebra", "free-nilpotent(3,3)", "--trials", "3"]
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

    @pytest.mark.parametrize("name", ["abelian", "free-nilpotent"])
    def test_family_name_without_parameters_is_one_line_usage_error(self, capsys, name):
        assert main(["verify", "--suite", "s6", "--trials", "1", "--algebra", name]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown algebra")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["--algebra", f"abelian({MAX_DIMENSION + 1})"],
        ["--algebra", "free-nilpotent(4,3)"],
        pytest.param(["--algebra", f"abelian({NINES})"], id="abelian-5000-digits"),
        pytest.param(["--algebra", f"free-nilpotent({NINES},2)"],
                     id="free-nilpotent-5000-digits"),
        pytest.param(["--algebra", "abelian(\u0663)"], id="abelian-non-ascii-digit"),
    ])
    def test_oversized_algebra_is_one_line_usage_error(self, capsys, argv):
        assert main(["verify", "--suite", "s6", "--trials", "1", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_no_trials_is_usage_error(self, capsys, trials):
        assert main(["verify", "--suite", "s6", "--algebra", "h3", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: trials must be at least 1")

    def test_negative_seed_is_usage_error(self, capsys):
        # Random(-5) seeds as Random(5) does, so the report would claim a
        # run at seed -5 that never happened
        assert main(["verify", "--seed", "-5", "--suite", "s6", "--trials", "3",
                     "--no-timing"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be at least 0, got -5\n"

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


def test_readme_commands_parse():
    # every `liejets ...` line of the README's command block, so the docs
    # cannot drift from the flags; an unknown flag exits 2
    readme = Path(__file__).resolve().parent.parent / "README.md"
    commands = [line.split("#")[0] for line in readme.read_text(encoding="utf-8").splitlines()
                if line.startswith("liejets ")]
    assert len(commands) >= 8
    parser = build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])


# -- fuzzing the JSON loaders through the command line --------------------------

_BASES = {
    "h3": ("p", "q", "z"),
    "sl2": ("e", "f", "h"),
    "so3": ("L1", "L2", "L3"),
    "abelian(2)": ("a1", "a2"),
    "free-nilpotent(2,2)": ("x", "y", "[x,y]"),
}
_RINGS = ([], [["t", 1]], [["t", 2], ["u", 1]])
_RATIONALS = st.sampled_from(["1", "-1", "1/2", "-3/4", "2"])

#: Any JSON value.
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)


def _jet(draw, algebra, order, ring):
    """A valid jet document: ``order`` elements of ``algebra`` over ``ring``."""
    def scalar():
        exponents = st.lists(st.integers(0, 2), min_size=len(ring), max_size=len(ring))
        terms = draw(st.dictionaries(exponents.map(tuple), _RATIONALS, max_size=2))
        return {"ring": ring, "terms": [[list(e), c] for e, c in terms.items()]}

    def element():
        names = draw(st.sets(st.sampled_from(_BASES[algebra]), max_size=2))
        return {"algebra": algebra, "ring": ring, "coords": {n: scalar() for n in sorted(names)}}

    system = draw(st.sampled_from(["exp", "monomial"]))
    return {"algebra": algebra, "order": order, "coordinates": system,
            "coords": [element() for _ in range(order)]}


def _spec(draw, algebra):
    """A spec document over the basis of ``algebra`` with a few brackets."""
    basis = list(_BASES[algebra])
    names = st.sampled_from(basis)
    brackets = draw(st.lists(
        st.fixed_dictionaries({
            "left": names,
            "right": names,
            "value": st.lists(st.tuples(names, _RATIONALS).map(list), max_size=2),
        }),
        max_size=3,
    ))
    return {"name": algebra, "basis": basis, "brackets": brackets}


def _paths(doc, path=()):
    """The path of every node of a JSON document, the root included."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        items = ()
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def _document_pairs(draw):
    """Two documents, each a jet of one shared shape, a spec or any JSON value;
    in a shaped document one node is now and then replaced by any JSON value."""
    algebra = draw(st.sampled_from(sorted(_BASES)))
    order = draw(st.integers(1, 3))
    ring = draw(st.sampled_from(_RINGS))
    docs = []
    for _ in range(2):
        kind = draw(st.sampled_from(["jet", "jet", "spec", "any"]))
        if kind == "any":
            docs.append(draw(_json))
            continue
        doc = _jet(draw, algebra, order, ring) if kind == "jet" else _spec(draw, algebra)
        if draw(st.booleans()):
            doc = json.loads(json.dumps(doc))  # no node shared with another or with _RINGS
            *parents, last = draw(st.sampled_from(list(_paths(doc))[1:]))
            target = doc
            for key in parents:
                target = target[key]
            target[last] = draw(_json)
        docs.append(doc)
    return tuple(docs)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(docs=_document_pairs())
@example(docs=(NOT_UTF8, h3_jet_doc(1, "p")))
@example(docs=(h3_jet_doc(1, "p"), NESTED_TOO_DEEP))
def test_any_document_gets_an_exit_code_and_no_traceback(jet_files, docs):
    """Whatever the files hold, ``mul``, ``bracket`` and ``validate`` return
    0, 1 or 2 and raise nothing."""
    paths = [jet_files("a.json", docs[0]), jet_files("b.json", docs[1])]
    runs = [["mul", *paths, "--via", via] for via in ("def61", "bch", "matrix")]
    runs += [["bracket", *paths], ["validate", paths[0]]]
    for argv in runs:
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), argv
