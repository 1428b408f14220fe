"""Command-line front end.

stdout carries data (JSON), stderr carries diagnostics.  Exit codes:
0 success / true / realizable; 1 false / rejected / undecided;
2 parse or validation error, or input nested too deeply; 3 internal
consistency failure (the localized-image cross-check or the rewrite
step budget) or any other unexpected exception."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .coeff import (
    ONE,
    CoeffParseError,
    _Scanner,
    parse_coeff,
    parse_coeff_atom,
)
from .engine import (
    GammaEngine,
    LambdaMismatch,
    StepBudgetExceeded,
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


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _load_json_arg(arg: str):
    text = arg
    if not arg.lstrip().startswith("{") and os.path.exists(arg):
        with open(arg) as fh:
            text = fh.read()
    return json.loads(text)


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
        out[_parse_aug_key(name)] = parse_coeff(str(value))
    return out


def cmd_lambda(args) -> int:
    term = parse_term(args.expr)
    lam = lambda_term(term, args.z_convention)
    if args.json:
        _emit(lam.to_json())
    else:
        _emit(str(lam))
    return 0


def cmd_normalize(args) -> int:
    engine = GammaEngine(z_convention=args.z_convention)
    term = parse_term(args.expr)
    nf = engine.normalize(term, check_lambda=not args.no_check_lambda)
    if args.json:
        _emit(nf.to_json())
    else:
        _emit(nf.text())
    return 0


def cmd_geometric(args) -> int:
    term = parse_term(args.expr)
    verdict, detail = is_geometric(term, args.z_convention)
    doc = {"geometric": verdict}
    if verdict is False:
        doc["certificate"] = detail
    elif verdict == "unknown":
        doc["detail"] = detail
    _emit(doc)
    return 0 if verdict is True else 1


def cmd_realize(args) -> int:
    data = fixed_data_from_json(_load_json_arg(args.data))
    result = realize(data)
    cross = realize_iterative(data)
    if result["realizable"] != cross["realizable"] or (
        result["realizable"]
        and result["decomposition"] != cross["decomposition"]
    ):
        print("internal: closed-form and iterative defect disagree", file=sys.stderr)
        return 3
    result["input"] = fixed_data_to_json(data)
    _emit(result)
    return 0 if result["realizable"] else 1


def cmd_cobordant(args) -> int:
    m1 = parse_manifold(args.expr1)
    m2 = parse_manifold(args.expr2)
    verdict, detail = check_cobordant(m1, m2, args.z_convention)
    doc = {"cobordant": verdict}
    if detail is not None:
        doc["detail"] = detail
    _emit(doc)
    return 0 if verdict is True else 1


def cmd_basis(args) -> int:
    items = enumerate_basis(args.degree, args.variant, args.truncation)
    _emit(
        [
            {k: v for k, v in bm_json(bm, ONE).items() if k != "coeff"}
            | {"degree": bm_degree(bm)}
            for bm in items
        ]
    )
    return 0


def cmd_certify(args) -> int:
    report = certify_basis(
        args.degree,
        args.variant,
        args.truncation,
        order=args.order,
        inject_duplicate=args.inject_duplicate,
        convention=args.z_convention,
    )
    _emit(report)
    return 0 if report["ok"] else 1


def cmd_verify(args) -> int:
    terms_report = verify_relations(args.samples, args.seed, args.z_convention)
    manifold_report = verify_manifold_relations(args.samples, args.seed, args.z_convention)
    ok = terms_report["ok"] and manifold_report["ok"]
    _emit({"terms": terms_report, "manifolds": manifold_report, "ok": ok})
    return 0 if ok else 1


def cmd_subst(args) -> int:
    assignments = _parse_assignments(_load_json_arg(args.assignments))
    term = parse_term(args.expr)
    if args.on == "lambda":
        lam = lambda_term(term, args.z_convention).substitute(assignments)
        _emit(str(lam))
        return 0
    engine = GammaEngine(z_convention=args.z_convention)
    nf = engine.normalize(term)
    _emit(nf.substitute(assignments).text())
    return 0


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
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("normalize", help="rewrite to the additive basis")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true", help="structured output")
    p.add_argument(
        "--no-check-lambda",
        action="store_true",
        help="skip the localized-image cross-check",
    )
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("geometric", help="test for a geometric representative")
    p.add_argument("expr")
    p.set_defaults(func=cmd_geometric)

    p = sub.add_parser("realize", help="decide isolated fixed-point data")
    p.add_argument("data", help="inline JSON or a file path")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("cobordant", help="compare two manifold expressions")
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.set_defaults(func=cmd_cobordant)

    for name, func, what in (
        ("basis", cmd_basis, "enumerate the additive basis"),
        ("certify", cmd_certify, "certify the additive basis"),
    ):
        p = sub.add_parser(name, help=what)
        p.add_argument("--degree", type=int, default=12)
        p.add_argument("--variant", choices=VARIANTS, default="musf")
        p.add_argument("--truncation", type=count, default=6)
        if name == "certify":
            p.add_argument("--order", choices=("z_maxnorm", "neg_lex"), default="z_maxnorm")
            p.add_argument("--inject-duplicate", action="store_true")
        p.set_defaults(func=func)

    p = sub.add_parser("verify", help="re-check the defining identities")
    p.add_argument("--samples", type=count, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("subst", help="substitute A-symbol assignments")
    p.add_argument("assignments", help="inline JSON or a file path")
    p.add_argument("expr")
    p.add_argument("--on", choices=("lambda", "normalize"), default="lambda")
    p.set_defaults(func=cmd_subst)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # every parse error, and invalid JSON, is a ValueError
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    except (LambdaMismatch, StepBudgetExceeded) as exc:
        print("internal: %s" % exc, file=sys.stderr)
        return 3
    except Exception as exc:
        # exit 1 means a definite "no"; an unforeseen fault must not read so
        print("internal: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
