import hashlib
import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sfb
import sfb.cli
from sfb.cli import main
from sfb.engine import VARIANTS, NormalForm
from sfb.phi import PhiElement
from test_parse import grammar_text

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# The body of the bin/sfb wrapper pip generates for a console_scripts entry.
CONSOLE_WRAPPER = """\
import sys
from {module} import {attr}
sys.exit({attr}())
"""

REALIZE_SCHEMA = {
    "type": "object",
    "required": ["realizable", "input"],
    "properties": {
        "realizable": {"type": "boolean"},
        "decomposition": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["multiplicity", "power"],
                "properties": {
                    "multiplicity": {"type": "integer"},
                    "power": {"type": "integer", "minimum": 0},
                },
            },
        },
        "witness": {"type": "object", "required": ["degree"]},
        "input": {
            "type": "object",
            "required": ["points"],
            "properties": {
                "points": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["weight", "rho", "rho_star"],
                    },
                }
            },
        },
    },
}

BASIS_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "required": ["i", "j", "x", "m", "degree"],
        "properties": {
            "i": {"type": "integer", "minimum": 0},
            "j": {"type": "integer", "minimum": 0},
            "x": {"type": ["string", "null"]},
            "m": {"type": "array", "items": {"type": "string"}},
            "degree": {"type": "integer"},
        },
    },
}

CERTIFY_SCHEMA = {
    "type": "object",
    "required": ["variant", "order", "truncation", "degree_bound", "degrees", "ok"],
    "properties": {
        "ok": {"type": "boolean"},
        "degrees": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["degree", "count", "leads_distinct", "unit_leads"],
            },
        },
    },
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_lambda_text(capsys):
    code, doc = run_cli(capsys, "lambda", "G_r(G_s(e_r))")
    assert code == 0
    assert doc == "e_r^-1 + e_s^-1"


def test_lambda_json(capsys):
    code, doc = run_cli(capsys, "lambda", "Z(2,r)", "--json")
    assert code == 0
    assert {"a": -2, "b": 0, "xs": [], "coeff": "1"} in doc
    assert {"a": 0, "b": 0, "xs": [[1, "r"]], "coeff": "1"} in doc


def test_lambda_convention_flag(capsys):
    code, doc = run_cli(capsys, "--z-convention", "mixed", "lambda", "Z(2,r)")
    assert code == 0
    assert doc == "e_s^-2 + X(1,r)"


def test_normalize(capsys):
    code, doc = run_cli(capsys, "normalize", "G_r(1)")
    assert code == 0 and doc == "0"
    code, doc = run_cli(
        capsys, "normalize", "G_r(G_s(e_r))^2 + sigma(3*g1)*Z(2,s)"
    )
    assert code == 0
    assert doc == "3*g1*Z(2,s) + G_r(G_s(G_s(e_r))) + G_r(G_r(G_s(e_r)))"


def test_normalize_json(capsys):
    code, doc = run_cli(capsys, "normalize", "Z(1,s)", "--json")
    assert code == 0
    assert doc == [{"i": 1, "j": 1, "x": "e_r", "m": [], "coeff": "1"}]


def test_geometric_exit_codes(capsys):
    code, doc = run_cli(capsys, "geometric", "Z(3,s)")
    assert code == 0 and doc == {"geometric": True}
    code, doc = run_cli(capsys, "geometric", "e_r")
    assert code == 1
    assert doc["geometric"] is False
    assert doc["certificate"]["a"] == 1
    code, doc = run_cli(
        capsys, "geometric", "G_s(G_s(Z(2,r)))*e_s^2"
    )
    assert code == 1
    assert doc["geometric"] == "unknown"
    assert doc["detail"]["pending"] == ["A(1;Z(2,r))"]


def test_realize_accept(capsys):
    data = json.dumps(
        {"points": [
            {"weight": 1, "rho": 1, "rho_star": 0},
            {"weight": 1, "rho": 0, "rho_star": 1},
        ]}
    )
    code, doc = run_cli(capsys, "realize", data)
    assert code == 0
    jsonschema.validate(doc, REALIZE_SCHEMA)
    assert doc["realizable"] is True
    assert doc["decomposition"] == [{"multiplicity": 1, "power": 1}]


def test_realize_reject(capsys):
    data = json.dumps({"points": [{"weight": 1, "rho": 1, "rho_star": 1}]})
    code, doc = run_cli(capsys, "realize", data)
    assert code == 1
    jsonschema.validate(doc, REALIZE_SCHEMA)
    assert doc["realizable"] is False
    assert doc["witness"]["degree"] == 2


def test_realize_from_file(capsys, tmp_path):
    path = tmp_path / "data.json"
    path.write_text(json.dumps({"points": [{"weight": 2, "rho": 0, "rho_star": 0}]}))
    code, doc = run_cli(capsys, "realize", str(path))
    assert code == 0
    assert doc["decomposition"] == [{"multiplicity": 2, "power": 0}]


def test_realize_cross_check_disagreement_exits_3(capsys, monkeypatch):
    real = sfb.cli.realize_iterative

    def skewed(data):
        cross = real(data)
        cross["decomposition"] = cross["decomposition"] + [{"multiplicity": 1, "power": 0}]
        return cross

    monkeypatch.setattr(sfb.cli, "realize_iterative", skewed)
    data = json.dumps({"points": [{"weight": 2, "rho": 0, "rho_star": 0}]})
    code = main(["realize", data])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "internal: closed-form and iterative defect disagree" in captured.err


def test_cobordant(capsys):
    code, doc = run_cli(capsys, "cobordant", "P(1,r)", "P(1,s)")
    assert code == 0 and doc == {"cobordant": True}
    code, doc = run_cli(capsys, "cobordant", "P(1,r)", "pt")
    assert code == 1 and doc["cobordant"] is False
    code, doc = run_cli(
        capsys, "cobordant", "gamma(gammas(P(2,r)))", "gammas(gamma(P(2,r)))"
    )
    assert code == 1 and doc["cobordant"] == "unknown"


def test_basis_output(capsys):
    code, doc = run_cli(
        capsys, "basis", "--degree", "4", "--variant", "omega", "--truncation", "6"
    )
    assert code == 0
    jsonschema.validate(doc, BASIS_SCHEMA)
    counts = {}
    for entry in doc:
        counts[entry["degree"]] = counts.get(entry["degree"], 0) + 1
    assert counts == {0: 1, 2: 1, 4: 4}


def test_certify_output(capsys):
    code, doc = run_cli(
        capsys, "certify", "--degree", "8", "--variant", "omega", "--truncation", "6"
    )
    assert code == 0
    jsonschema.validate(doc, CERTIFY_SCHEMA)
    assert doc["ok"] is True
    code, doc = run_cli(
        capsys, "certify", "--degree", "6", "--variant", "omega",
        "--truncation", "6", "--inject-duplicate"
    )
    assert code == 1
    assert doc["ok"] is False


def test_negative_degree_bound_has_no_candidates(capsys):
    # not even the unit word, whose degree 0 is above the bound
    assert run_cli(capsys, "basis", "--variant", "omega", "--degree", "-2") == (0, [])
    code, doc = run_cli(capsys, "certify", "--variant", "omega", "--degree", "-2")
    assert code == 0
    assert doc["degrees"] == [] and doc["ok"] is True


def test_inject_duplicate_fails_at_every_bound(capsys):
    # the negative control duplicates the last word, even when it is the
    # only one; with no word at all there is nothing to duplicate
    code, doc = run_cli(capsys, "certify", "--variant", "omega", "--degree", "0",
                        "--inject-duplicate")
    assert code == 1 and doc["ok"] is False
    [entry] = doc["degrees"]
    assert entry["degree"] == 0 and entry["count"] == 2
    assert [f["kind"] for f in entry["failures"]] == ["lead-collision"]
    code = main(["certify", "--variant", "omega", "--degree", "-2", "--inject-duplicate"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "nothing to duplicate" in captured.err


def test_verify_small_sample(capsys):
    code, doc = run_cli(capsys, "verify", "--samples", "10", "--seed", "3")
    assert code == 0
    assert doc["ok"] is True
    assert doc["terms"]["reorder_literal"]["witness_x_es_nonzero"] is True
    assert doc["manifolds"]["checks"]["exchange"] == 20


# sha256 of the whole `verify` stdout, recorded before verify_relations
# shared one tally and one reordering residue among its identities; the
# report does not depend on the pole convention
VERIFY_200_0 = "79f1b8fb994aafc74272e5d22860320d64b1b3fe2c7d0e98758c917b77471b80"
VERIFY_60_7 = "13173c1d4fe51d41ab6c1f01b66924863b3cba875c5f6eda1c98ddd648d3930f"


@pytest.mark.parametrize("convention", ["same", "mixed"])
@pytest.mark.parametrize(
    "samples, seed, digest", [("200", "0", VERIFY_200_0), ("60", "7", VERIFY_60_7)]
)
def test_pinned_verify_reports(capsys, convention, samples, seed, digest):
    argv = ["--z-convention", convention, "verify", "--samples", samples, "--seed", seed]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_geometric_ignores_step_budget(capsys, monkeypatch):
    # geometric never rewrites, so the rewrite budget is not read
    expected = run_cli(capsys, "geometric", "e_r")
    monkeypatch.setenv("SFB_STEP_BUDGET", "abc")
    assert run_cli(capsys, "geometric", "e_r") == expected
    assert expected[0] == 1


@pytest.mark.parametrize("budget", ["abc", "1.5", "-5"])
@pytest.mark.parametrize(
    "argv",
    [
        ["normalize", "e_r"],
        ["subst", '{"A(1;P)": "g2"}', "e_r", "--on", "normalize"],
    ],
    ids=["normalize", "subst-on-normalize"],
)
def test_malformed_step_budget_is_named(capsys, monkeypatch, argv, budget):
    monkeypatch.setenv("SFB_STEP_BUDGET", budget)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "SFB_STEP_BUDGET" in captured.err


def test_zero_step_budget_admits_no_rewrite(capsys, monkeypatch):
    monkeypatch.setenv("SFB_STEP_BUDGET", "0")
    assert run_cli(capsys, "normalize", "3") == (0, "3")
    assert main(["normalize", "G_r(e_s)"]) == 3
    assert "budget" in capsys.readouterr().err


def test_no_check_lambda_skips_the_cross_check(capsys, monkeypatch):
    expected = run_cli(capsys, "normalize", "G_r(G_s(Z(2,r)))")
    assert expected == (0, "G_r(G_s(Z(2,r)))")
    monkeypatch.setattr(NormalForm, "lambda_image", lambda self: PhiElement.one())
    # the cross-check runs, and can fail, under either pole convention
    for prefix in ([], ["--z-convention", "mixed"]):
        code = main(prefix + ["normalize", "G_r(G_s(Z(2,r)))"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("internal: normalize changed the localized image")
        argv = prefix + ["normalize", "G_r(G_s(Z(2,r)))", "--no-check-lambda"]
        assert run_cli(capsys, *argv) == expected


def test_double_dash_passes_a_leading_minus(capsys):
    # argparse reads "-e_r" as an option; after "--" it is the expression
    with pytest.raises(SystemExit) as exc:
        main(["lambda", "-e_r"])
    assert exc.value.code == 2
    assert "the following arguments are required: expr" in capsys.readouterr().err
    assert run_cli(capsys, "lambda", "--", "-e_r") == (0, "-e_r")
    assert run_cli(capsys, "cobordant", "--", "-pt", "-pt") == (0, {"cobordant": True})


@st.composite
def argvs(draw):
    """A command line for any subcommand, over small bounded inputs."""
    rng = draw(st.randoms(use_true_random=False))

    def text(lang):
        return grammar_text(rng, lang, draw(st.integers(0, 2)))

    def flags(*names):
        return [name for name in names if draw(st.booleans())]

    def choice(name, values):
        return [name, draw(st.sampled_from(values))]

    command = draw(st.sampled_from(
        ["lambda", "normalize", "geometric", "realize", "cobordant",
         "basis", "certify", "verify", "subst"]
    ))
    sized = ["--degree", str(draw(st.integers(-4, 10))),
             "--truncation", str(draw(st.integers(0, 4))),
             "--variant", draw(st.sampled_from(VARIANTS))]
    args = {
        "lambda": lambda: [text("term")] + flags("--json"),
        "normalize": lambda: [text("term")] + flags("--json", "--no-check-lambda"),
        "geometric": lambda: [text("term")],
        "realize": lambda: [json.dumps({"points": draw(st.lists(
            st.fixed_dictionaries({
                "weight": st.integers(-6, 6),
                "rho": st.integers(0, 6),
                "rho_star": st.integers(0, 6),
            }),
            max_size=6,
        ))})],
        "cobordant": lambda: [text("manifold"), text("manifold")],
        "basis": lambda: sized,
        "certify": lambda: sized + choice("--order", ["z_maxnorm", "neg_lex"])
        + flags("--inject-duplicate"),
        "verify": lambda: ["--samples", str(draw(st.integers(0, 5))),
                           "--seed", str(draw(st.integers(0, 9)))],
        "subst": lambda: [json.dumps({
            key: text("coeff")
            for key in draw(st.sets(st.sampled_from(["A(1;P)", "A(2;Z(1,r))", "g1"])))
        }), text("term")] + choice("--on", ["lambda", "normalize"]),
    }[command]()
    return choice("--z-convention", ["same", "mixed"]) + [command] + args


def test_every_command_line_exits_0_1_or_2(capsys):
    # exit 1 means a definite no and 3 an internal fault, so no bounded
    # input may end in a traceback or a 3, and only 0 and 1 print a report
    @given(argvs())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def check(argv):
        capsys.readouterr()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code in (0, 1, 2), (argv, captured.err)
        assert "Traceback" not in captured.err, argv
        if code == 2:
            assert captured.out == "", argv
        else:
            json.loads(captured.out)
        assert not ("certify" in argv and "--inject-duplicate" in argv and code == 0), argv

    check()


def test_subst_on_lambda(capsys):
    code, doc = run_cli(
        capsys, "subst", '{"A(1;P)": "2*g1^2"}',
        "G_s(G_s(G_s(G_s(e_r))))"
    )
    assert code == 0
    assert doc == "e_s^-3 + g1*e_s^-2 + 3*g1^2*e_s^-1 + e_r*e_s^-4"


def test_subst_on_normalize(capsys):
    code, doc = run_cli(
        capsys, "subst", '{"A(1;P)": "2*g1^2"}',
        "G_s(G_s(e_r))^2", "--on", "normalize"
    )
    assert code == 0
    assert "A(1;P)" not in doc
    assert "-3*g1^2*G_s(e_r)" in doc


@pytest.mark.parametrize("keys", [("A(1;P)", " A(1;P)"), (" A(1;P)", "A(1;P)")])
def test_subst_refuses_a_symbol_named_twice(capsys, keys):
    # the two keys parse to one symbol; neither value may silently win
    assignments = json.dumps(dict(zip(keys, ("3*g1^2", "g1^2"))))
    code = main(["subst", assignments, "G_s(G_s(G_s(G_s(e_r))))"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "A(1;P)" in captured.err


def test_parse_errors_exit_2(capsys):
    for argv in (
        ["lambda", "Z(0,r)"],
        ["normalize", "G_r("],
        ["cobordant", "P(1,q)", "pt"],
        ["realize", "{not json"],
        ["realize", '{"points": [{"weight": 1, "rho": -1, "rho_star": 0}]}'],
        ["subst", '{"g1": "g2"}', "e_r"],
        ["subst", '{"A(1;P)": "g1"}', "e_r"],
        ["lambda", "e_r e_s"],
        ["lambda", "Z(2,q)"],
        ["lambda", "sigma(A(1;Z(2,q)))"],
        ["normalize", "G_r(" * 3000 + "e_r" + ")" * 3000],
        ["lambda", "(" * 3000 + "e_r" + ")" * 3000],
        ["realize", '{"points": ' + "[" * 3000 + "]" * 3000 + "}"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert "Traceback" not in captured.err, argv


@pytest.mark.parametrize(
    "argv",
    [["realize", "/nonexistent"], ["subst", "/nonexistent", "e_r"]],
    ids=["realize", "subst"],
)
def test_missing_json_file_is_named(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "'/nonexistent' is neither an existing file nor JSON" in captured.err


def test_flat_powers_are_not_deep(capsys):
    # a power of 1200 factors nests two deep, not 1200
    code, doc = run_cli(capsys, "lambda", "bar(Z(2,r)^1200)")
    assert code == 0 and doc == "g2^1200"
    code, doc = run_cli(capsys, "cobordant", "gamma(P(1,r)^1200)", "pt")
    assert code == 1 and doc["cobordant"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["lambda", "e_r^99999999999999999999"],
        ["lambda", "G_s(e_r^99999999999999999999)"],
        ["cobordant", "pt^99999999999999999999", "pt"],
        ["lambda", "sigma(g1^99999999999999999999)"],
        ["lambda", "sigma(g1^9223372036854775807*g1)"],
    ],
    ids=lambda argv: argv[1],
)
def test_exponent_past_index_range_exits_2(capsys, argv):
    # every language bounds ^n by sys.maxsize, and a coefficient product
    # bounds each exponent it makes alike; a larger exponent is bad input
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "too large" in captured.err
    assert "Traceback" not in captured.err


def test_largest_coefficient_exponent_prints(capsys):
    # squaring stops at the top bit of n, so ^sys.maxsize itself is in range
    code, doc = run_cli(capsys, "lambda", "sigma(g1^9223372036854775807)")
    assert code == 0 and doc == "g1^9223372036854775807"


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--truncation", "-1"],
        ["basis", "--truncation", "-1"],
        ["verify", "--samples", "-1"],
    ],
    ids=["certify-truncation", "basis-truncation", "verify-samples"],
)
def test_negative_counts_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "must be >= 0" in captured.err


def test_unexpected_exception_exits_3(capsys, monkeypatch):
    def broken(args):
        raise KeyError("oops")

    monkeypatch.setattr(sfb.cli, "cmd_lambda", broken)
    code = main(["lambda", "e_r"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "internal: KeyError" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "data",
    [
        '{"points": [{"weight": 1}]}',
        '{"points": [{"weight": 1, "rho": 0}]}',
        '{"points": [{"weight": 1, "rho_star": 0}]}',
        '{"points": 5}',
        '{"points": [5]}',
        '{"points": [{"weight": 1.7, "rho": 0, "rho_star": 0}]}',
        '{"points": [{"weight": true, "rho": 0, "rho_star": 0}]}',
        '{"points": [{"weight": 1, "rho": 1.0, "rho_star": 0}]}',
        '{"points": [{"weight": 1, "rho": 0, "rho_star": false}]}',
        '{"points": [{"weight": "1", "rho": 0, "rho_star": 0}]}',
    ],
    ids=[
        "missing-rho-and-rho_star",
        "missing-rho_star",
        "missing-rho",
        "points-not-a-list",
        "point-not-an-object",
        "float-weight",
        "bool-weight",
        "float-rho",
        "bool-rho_star",
        "string-weight",
    ],
)
def test_realize_rejects_malformed_points(capsys, data):
    code = main(["realize", data])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err


json_text = st.text(st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from('"\\/\x00\x1f\x7f\u2028\xe9\U0001f600\ud800\udfff'),
))
json_trees = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(-(2 ** 80), 2 ** 80) | json_text,
    lambda kids: st.lists(kids) | st.lists(kids).map(tuple)
    | st.dictionaries(json_text, kids),
    max_leaves=15,
)


@given(json_trees)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_dumps_is_json_dumps(doc):
    assert sfb.cli._dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "doc",
    [1.5, {"a": [0.0]}, {1, 2}, [object()], {1: "a"}, {"a": {2: None}}],
    ids=["float", "nested-float", "set", "object", "int-key", "nested-int-key"],
)
def test_dumps_rejects_what_reports_never_hold(doc):
    with pytest.raises(TypeError):
        sfb.cli._dumps(doc)


def test_main_never_builds_a_parser(capsys, monkeypatch):
    def refuse():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(sfb.cli, "build_parser", refuse)
    assert run_cli(capsys, "lambda", "e_r") == (0, "e_r")


def child_env(**extra):
    """Environment whose Python imports the same sfb as this test does."""
    paths = [str(Path(sfb.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths), **extra)


def test_console_script_and_budget_abort():
    out = subprocess.run(
        [sys.executable, "-m", "sfb.cli", "normalize", "G_r(G_s(e_r))^4"],
        capture_output=True, text=True, env=child_env(SFB_STEP_BUDGET="1"),
    )
    assert out.returncode == 3
    assert "budget" in out.stderr.lower()

    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    ep = EntryPoint(name="sfb", value=scripts["sfb"], group="console_scripts")
    assert ep.load() is main
    wrapper = CONSOLE_WRAPPER.format(module=ep.module, attr=ep.attr)
    out = subprocess.run(
        [sys.executable, "-c", wrapper, "lambda", "e_r"],
        capture_output=True, text=True, env=child_env(),
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == "e_r"


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, verdict",
    [
        (["lambda", "e_r"], 0),
        (["geometric", "e_r"], 1),
        (["certify", "--variant", "musf", "--degree", "12", "--truncation", "6"], 1),
    ],
    ids=["lambda", "geometric", "certify"],
)
def test_closed_stdout_keeps_the_verdict(argv, verdict, unbuffered):
    # the reader is gone before the report is written: the exit code is
    # still the verdict, and nothing about the pipe reaches stderr
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "sfb.cli"] + argv, stdout=write_end,
            stderr=subprocess.PIPE, text=True, env=child_env(PYTHONUNBUFFERED=unbuffered),
        )
    finally:
        os.close(write_end)
    assert out.returncode == verdict, out.stderr
    for noise in ("Broken pipe", "Traceback", "Exception ignored"):
        assert noise not in out.stderr


def test_shared_parser_keeps_no_state(capsys):
    # each pair differs in one flag; in-process runs alternate between the
    # two sides, and each must print what a fresh process prints
    pairs = [
        (["--z-convention", "mixed", "lambda", "Z(2,r)"], ["lambda", "Z(2,r)"]),
        (["certify", "--variant", "omega", "--degree", "6", "--inject-duplicate"],
         ["certify", "--variant", "omega", "--degree", "6"]),
        (["normalize", "--json", "G_r(G_s(e_r))^2"], ["normalize", "G_r(G_s(e_r))^2"]),
    ]
    for pair in pairs:
        fresh = []
        for argv in pair:
            out = subprocess.run(
                [sys.executable, "-m", "sfb.cli"] + argv,
                capture_output=True, text=True, env=child_env(),
            )
            fresh.append((out.returncode, out.stdout))
        assert fresh[0] != fresh[1]
        capsys.readouterr()
        for i in (0, 1, 0, 1):
            code = main(pair[i])
            assert (code, capsys.readouterr().out) == fresh[i], pair[i]


def test_power_of_a_sum_answers_promptly():
    # the last squaring of a square-and-multiply ^16 is wasted, and for a
    # five-term sum it is most of the work: about 100 s with it; the
    # digest is of the stdout computed with it
    out = subprocess.run(
        [sys.executable, "-m", "sfb.cli", "lambda",
         "sigma((g1+g2+g3+A(1;P)+A(2;P))^16)"],
        capture_output=True, timeout=20, env=child_env(),
    )
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(out.stdout).hexdigest() == (
        "04d7930cbb9ff0e666539b243e052a4a2a782fecd1d2612d38559e46ac7b5e1e"
    )


@pytest.mark.skipif(
    shutil.which("sfb") is None, reason="sfb console script not installed"
)
def test_installed_console_script():
    out = subprocess.run(
        [shutil.which("sfb"), "lambda", "e_r"],
        capture_output=True, text=True, env=child_env(),
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == "e_r"


def test_bench_tracer_binds_every_entry():
    # bench/layers.py wraps its SPANS, LEAVES and COUNTERS by name, each
    # leaf in its class's own namespace; install() raises on any entry it
    # cannot resolve or rebind
    code = "import sfb.cli, layers; layers.install(); print('installed')"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        cwd=PYPROJECT.parent / "bench", env=child_env(),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "installed\n"
