"""Batch command line front end.

Subcommands:

* ``validate`` -- Jacobi-check an algebra spec (file path or built-in name)
* ``mul``      -- multiply two jet files, engine selectable with --via
* ``bracket``  -- pointwise bracket of two jet files (monomial output)
* ``verify``   -- run a verification suite and print the JSON report

Exit codes: 0 all checks pass, 1 a mathematical check failed or the inputs
are incompatible, 2 usage or input error, a result with a number too long
to print included.  All input/output is JSON on the
standard streams.  Same seed and flags give identical reports;
``--no-timing`` drops the per-check timing fields so reports are
byte-identical across runs.

A subcommand imports only the modules it runs: ``mul`` loads the series
oracle for ``--via bch`` and the matrix oracle for ``--via matrix``, and the
check catalog is loaded by ``verify`` alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

from .algebras import AlgebraError, LieAlgebraSpec, validate_algebra
from .catalog import SUITE_NAMES, UnknownAlgebraError, resolve_algebra
from .jets import Jet, JetError, jet_bracket, jet_convert, jet_mul
from .scalars import SignatureError, SignatureMismatch

USAGE_ERROR = 2
CHECK_FAILED = 1

#: Longest error message printed.  Messages echo the offending input, so a
#: longer one is cut here and ends in "...".
MAX_ERROR_CHARS = 200


def _fail(message: str, code: int) -> int:
    message = " ".join(message.splitlines())  # an echoed name or path may break lines
    if len(message) > MAX_ERROR_CHARS:
        message = message[:MAX_ERROR_CHARS] + "..."
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise _CliUsageError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:
        # Malformed JSON, text that is not UTF-8, an integer literal too long
        # to convert, or arrays and objects nested too deeply to parse.
        raise _CliUsageError(f"{path} is not valid JSON: {exc}") from exc


class _CliUsageError(Exception):
    pass


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2))


@contextmanager
def _printable():
    """Turn the ``ValueError`` that converting an integer of more than
    ``sys.get_int_max_str_digits()`` digits to text raises into an input
    error: only numbers read from the input grow that long.  Wraps the code
    that builds a command's output, which raises no other ``ValueError``."""
    try:
        yield
    except ValueError as exc:
        raise _CliUsageError(
            f"the result has a number of more than {sys.get_int_max_str_digits()} "
            "digits, too long to print"
        ) from exc


def cmd_validate(args) -> int:
    try:
        # any path but a directory: a directory named after a built-in must
        # not shadow it, and a pipe such as /dev/stdin is no regular file
        if os.path.exists(args.spec) and not os.path.isdir(args.spec):
            spec = LieAlgebraSpec.from_json(_load_json(args.spec))
        else:
            try:
                spec = resolve_algebra(args.spec)
            except UnknownAlgebraError:
                raise _CliUsageError(
                    f"{args.spec!r} is neither a readable file nor a built-in algebra"
                ) from None
    except (AlgebraError, SignatureError) as exc:
        return _fail(str(exc), USAGE_ERROR)
    with _printable():  # the evidence prints the Jacobi defect
        evidence = validate_algebra(spec)
        status = "pass" if evidence is None else "fail"
        _emit({"algebra": spec.name, "status": status, **(evidence or {})})
    return 0 if evidence is None else CHECK_FAILED


def _load_jet(path: str) -> Jet:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise _CliUsageError(f"{path}: a jet document must be a JSON object")
    name = doc.get("algebra", "")
    if not isinstance(name, str):
        raise _CliUsageError(f"{path}: 'algebra' must be the name of a built-in algebra")
    try:
        algebra = resolve_algebra(name)
    except AlgebraError as exc:
        raise _CliUsageError(str(exc)) from exc
    try:
        return Jet.from_json(doc, algebra)
    except (JetError, AlgebraError, SignatureError, SignatureMismatch) as exc:
        raise _CliUsageError(f"{path}: {exc}") from exc


def cmd_mul(args) -> int:
    a, b = _load_jet(args.a), _load_jet(args.b)
    try:
        if args.via == "def61":
            product = jet_mul(a, b)
        elif args.via == "bch":
            from .bch import bch_mul

            product = bch_mul(a, b)
        else:
            from .matrices import BUILTIN_REP_NAMES, MatrixError, builtin_rep, matrix_mul

            if a.algebra.name not in BUILTIN_REP_NAMES:
                return _fail(f"no built-in representation for {a.algebra.name!r}", USAGE_ERROR)
            try:
                product = matrix_mul(a, b, builtin_rep(a.algebra.name))
            except MatrixError as exc:  # a defect of the oracle or its rep
                return _fail(str(exc), CHECK_FAILED)
    except (JetError, AlgebraError, SignatureMismatch) as exc:
        return _fail(str(exc), CHECK_FAILED)
    with _printable():
        _emit(product.to_json())
    return 0


def cmd_bracket(args) -> int:
    a, b = _load_jet(args.a), _load_jet(args.b)
    try:
        result = jet_bracket(jet_convert(a, "monomial"), jet_convert(b, "monomial"))
    except (JetError, AlgebraError, SignatureMismatch) as exc:
        return _fail(str(exc), CHECK_FAILED)
    with _printable():
        _emit(result.to_json())
    return 0


def cmd_verify(args) -> int:
    from .checks import build_checks, run_checks

    algebras = None
    if args.algebra is not None:
        try:
            algebras = [resolve_algebra(args.algebra)]
        except AlgebraError as exc:
            return _fail(str(exc), USAGE_ERROR)
    try:
        checks = build_checks(args.suite, algebras, args.order, args.trials, args.seed)
    except ValueError as exc:  # unknown suite, trials < 1, or an override without a rep
        return _fail(str(exc), USAGE_ERROR)
    report = run_checks(checks, args.seed)
    _emit(report.to_json(include_timing=not args.no_timing))
    return 0 if report.all_passed else CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liejets",
        description="Exact jet group laws with machine-checked verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="Jacobi-check an algebra spec")
    p_validate.add_argument("spec", help="path to a spec JSON, or a built-in name")
    p_validate.set_defaults(func=cmd_validate)

    p_mul = sub.add_parser("mul", help="multiply two jets from files")
    p_mul.add_argument("a")
    p_mul.add_argument("b")
    p_mul.add_argument("--via", choices=("def61", "bch", "matrix"), default="def61",
                       help="engine: closed form (default), series, or matrix exp/log")
    p_mul.set_defaults(func=cmd_mul)

    p_bracket = sub.add_parser("bracket", help="pointwise bracket of two jets")
    p_bracket.add_argument("a")
    p_bracket.add_argument("b")
    p_bracket.set_defaults(func=cmd_bracket)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=SUITE_NAMES, default="all")
    p_verify.add_argument("--algebra", default=None,
                          help="restrict random trials to one built-in algebra, "
                               "e.g. h3 or 'free-nilpotent(3,3)'")
    p_verify.add_argument("--order", type=int, choices=(1, 2, 3), default=None)
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--no-timing", action="store_true",
                          help="omit timing fields for byte-identical reports")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliUsageError as exc:
        return _fail(str(exc), USAGE_ERROR)


if __name__ == "__main__":
    sys.exit(main())
