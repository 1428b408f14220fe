"""Command-line front end.

Each ``cmd_*`` returns ``(doc, verdict)``; ``main`` alone prints ``doc`` and
turns the verdict, or the exception that stopped the command, into the exit
code.  stdout carries data (JSON), stderr carries diagnostics.  Exit codes:
0 success / true / realizable; 1 false / rejected / undecided;
2 parse or validation error (a malformed SFB_STEP_BUDGET too), or input
nested too deeply; 3 internal consistency failure (the localized-image
cross-check or the rewrite step budget) or any other unexpected
exception.  A reader that closes stdout early does not change the code."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .coeff import (
    ONE,
    CoeffParseError,
    _Scanner,
    aug_symbol_name,
    parse_coeff,
    parse_coeff_atom,
)
from .engine import (
    DEFAULT_STEP_BUDGET,
    GammaEngine,
    InternalError,
    VARIANTS,
    bm_degree,
    bm_json,
    certify_basis,
    enumerate_basis,
    is_geometric,
    lambda_term,
    verify_relations,
)
from .manifold import (
    check_cobordant,
    fixed_data_from_json,
    fixed_data_to_json,
    parse_manifold,
    realize,
    realize_iterative,
    verify_manifold_relations,
)
from .terms import parse_term


_quote = json.encoder.encode_basestring_ascii


def _dumps(doc, indent: str = "\n") -> str:
    """The text of ``json.dumps(doc, indent=2, sort_keys=True)``.

    Any ``indent`` sends ``json.dumps`` to its pure-Python encoder; this
    recursion over the types a report holds quotes strings with the C
    quoter.  Any other type (a float too), or a key that is not a
    string, raises TypeError."""
    kind = type(doc)
    if kind is str:
        return _quote(doc)
    if kind is int:
        return int.__repr__(doc)
    if doc is None:
        return "null"
    if doc is True:
        return "true"
    if doc is False:
        return "false"
    inner = indent + "  "
    if kind is dict:
        if not doc:
            return "{}"
        # the C quoter raises TypeError on a key that is not a string
        parts = [_quote(key) + ": " + _dumps(value, inner) for key, value in sorted(doc.items())]
        return "{" + inner + ("," + inner).join(parts) + indent + "}"
    if kind is list or kind is tuple:
        if not doc:
            return "[]"
        parts = [_dumps(item, inner) for item in doc]
        return "[" + inner + ("," + inner).join(parts) + indent + "]"
    raise TypeError("Object of type %s is not JSON serializable" % kind.__name__)


def _emit(doc) -> None:
    # flushed here, so a closed reader shows up in main, not at exit
    print(_dumps(doc), flush=True)


def _load_json_arg(arg: str):
    if arg.lstrip().startswith("{") or not os.path.exists(arg):
        source, text = "%r is neither an existing file nor JSON" % arg, arg
    else:
        with open(arg) as fh:
            source, text = "file %r is not JSON" % arg, fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError("%s: %s" % (source, exc)) from None


def _parse_aug_key(name: str):
    el = _Scanner(name).parse(parse_coeff_atom, CoeffParseError)
    keys = el.aug_symbols()
    if len(keys) != 1 or el != el.__class__.gen(keys[0]):
        raise ValueError("assignment keys must be single A-symbols, got %r" % (name,))
    return keys[0]


def _parse_assignments(doc: dict) -> dict:
    if not isinstance(doc, dict):
        raise ValueError("assignments must be a JSON object")
    out = {}
    for name, value in doc.items():
        key = _parse_aug_key(name)
        if key in out:
            raise ValueError("symbol %s is assigned twice" % aug_symbol_name(key))
        out[key] = parse_coeff(str(value))
    return out


def cmd_lambda(args) -> tuple:
    term = parse_term(args.expr)
    lam = lambda_term(term, args.z_convention)
    return lam.to_json() if args.json else str(lam), True


def _engine() -> GammaEngine:
    """The rewriter, under the step budget that ``SFB_STEP_BUDGET`` sets."""
    text = os.environ.get("SFB_STEP_BUDGET", str(DEFAULT_STEP_BUDGET))
    try:
        return GammaEngine(count(text))
    except (ValueError, argparse.ArgumentTypeError):
        raise ValueError("SFB_STEP_BUDGET must be an integer >= 0, got %r" % text) from None


def cmd_normalize(args) -> tuple:
    engine = _engine()
    term = parse_term(args.expr)
    nf = engine.normalize(term, check_lambda=not args.no_check_lambda)
    return nf.to_json() if args.json else nf.text(), True


def cmd_geometric(args) -> tuple:
    term = parse_term(args.expr)
    verdict, detail = is_geometric(term, args.z_convention)
    doc = {"geometric": verdict}
    if verdict is False:
        doc["certificate"] = detail
    elif verdict == "unknown":
        doc["detail"] = detail
    return doc, verdict is True


def cmd_realize(args) -> tuple:
    data = fixed_data_from_json(_load_json_arg(args.data))
    result = realize(data)
    cross = realize_iterative(data)
    if result["realizable"] != cross["realizable"] or (
        result["realizable"]
        and result["decomposition"] != cross["decomposition"]
    ):
        raise InternalError("closed-form and iterative defect disagree")
    result["input"] = fixed_data_to_json(data)
    return result, result["realizable"]


def cmd_cobordant(args) -> tuple:
    m1 = parse_manifold(args.expr1)
    m2 = parse_manifold(args.expr2)
    verdict, detail = check_cobordant(m1, m2, args.z_convention)
    doc = {"cobordant": verdict}
    if detail is not None:
        doc["detail"] = detail
    return doc, verdict is True


def cmd_basis(args) -> tuple:
    items = enumerate_basis(args.degree, args.variant, args.truncation)
    return [
        {k: v for k, v in bm_json(bm, ONE).items() if k != "coeff"}
        | {"degree": bm_degree(bm)}
        for bm in items
    ], True


def cmd_certify(args) -> tuple:
    report = certify_basis(
        args.degree,
        args.variant,
        args.truncation,
        order=args.order,
        inject_duplicate=args.inject_duplicate,
        convention=args.z_convention,
    )
    return report, report["ok"]


def cmd_verify(args) -> tuple:
    terms_report = verify_relations(args.samples, args.seed)
    manifold_report = verify_manifold_relations(args.samples, args.seed)
    ok = terms_report["ok"] and manifold_report["ok"]
    return {"terms": terms_report, "manifolds": manifold_report, "ok": ok}, ok


def cmd_subst(args) -> tuple:
    assignments = _parse_assignments(_load_json_arg(args.assignments))
    term = parse_term(args.expr)
    if args.on == "lambda":
        lam = lambda_term(term, args.z_convention).substitute(assignments)
        return str(lam), True
    nf = _engine().normalize(term)
    return nf.substitute(assignments).text(), True


def count(text: str) -> int:
    """argparse type for counts: a negative count would pass vacuously."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % value)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfb",
        description="Calculator for semi-free circle-equivariant bordism classes.",
    )
    parser.add_argument(
        "--z-convention",
        choices=("same", "mixed"),
        default="same",
        help="pole flavor used for the localized projective-space classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lambda", help="localized image of an expression")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true", help="structured output")

    p = sub.add_parser("normalize", help="rewrite to the additive basis")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true", help="structured output")
    p.add_argument(
        "--no-check-lambda",
        action="store_true",
        help="skip the localized-image cross-check",
    )

    p = sub.add_parser("geometric", help="test for a geometric representative")
    p.add_argument("expr")

    p = sub.add_parser("realize", help="decide isolated fixed-point data")
    p.add_argument("data", help="inline JSON or a file path")

    p = sub.add_parser("cobordant", help="compare two manifold expressions")
    p.add_argument("expr1")
    p.add_argument("expr2")

    for name, what in (
        ("basis", "enumerate the additive basis"),
        ("certify", "certify the additive basis"),
    ):
        p = sub.add_parser(name, help=what)
        p.add_argument("--degree", type=int, default=12)
        p.add_argument("--variant", choices=VARIANTS, default="musf")
        p.add_argument("--truncation", type=count, default=6)
        if name == "certify":
            p.add_argument("--order", choices=("z_maxnorm", "neg_lex"), default="z_maxnorm")
            p.add_argument("--inject-duplicate", action="store_true")

    p = sub.add_parser("verify", help="re-check the defining identities")
    p.add_argument("--samples", type=count, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("subst", help="substitute A-symbol assignments")
    p.add_argument("assignments", help="inline JSON or a file path")
    p.add_argument("expr")
    p.add_argument("--on", choices=("lambda", "normalize"), default="lambda")

    return parser


# built once per process: parse_args keeps no state between calls
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        # looked up per call, so a command patched after import runs
        doc, yes = globals()["cmd_" + args.command](args)
        try:
            _emit(doc)
        except BrokenPipeError:
            # the reader left early; the verdict stands.  The unwritten
            # rest goes to devnull, so the flush at exit cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0 if yes else 1
    except (ValueError, OSError) as exc:
        # every parse error, and invalid JSON, is a ValueError
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    except InternalError as exc:
        print("internal: %s" % exc, file=sys.stderr)
        return 3
    except Exception as exc:
        # exit 1 means a definite "no"; an unforeseen fault must not read so
        print("internal: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
