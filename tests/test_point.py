"""The normalize cross-check at a point: ``coeff.Point`` evaluates the
coefficient ring at a point seeded from text, ``phi.IntImage`` is the
Laurent ring over the values, and ``NormalForm.lambda_image(point)``
builds a normal form's image in that ring."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sfb
from sfb.aug import AUG, AugEnv
from sfb.cli import main
from sfb.coeff import Point, aug_symbol, cp, parse_coeff
from sfb.engine import (
    UNIT,
    GammaEngine,
    InternalError,
    LambdaMismatch,
    NormalForm,
    lambda_term,
    random_term,
)
from sfb.phi import IntImage
from sfb.terms import parse_term, term_text


def test_point_is_a_ring_map():
    point = Point("seed")
    a = parse_coeff("3*g1^2*A(1;P) - g2 + 5")
    b = parse_coeff("A(2;Z(3,r))*g1 - 7*A(1;P)^3")
    assert point(a * b) == point(a) * point(b)
    assert point(a + b) == point(a) + point(b)
    assert point(parse_coeff("12")) == 12
    for gen in (cp(1), cp(4), aug_symbol(1, "P"), aug_symbol(2, "Z(3,s)")):
        assert 1 <= point(gen) < 2 ** 64
    assert Point("seed")(a) == point(a) and Point("other")(a) != point(a)


def test_point_refuses_a_monomial_too_large_to_evaluate():
    point = Point("seed")
    assert point(cp(1) ** Point.MAX_EXPONENT) == point(cp(1)) ** Point.MAX_EXPONENT
    with pytest.raises(OverflowError):
        point(cp(1) ** (Point.MAX_EXPONENT + 1))
    with pytest.raises(OverflowError):
        point(cp(1) ** 10 ** 12)


def test_aug_at_a_point_is_the_exact_aug_evaluated():
    rng = random.Random(41)
    point = Point("aug")
    env = AugEnv(point)
    for _ in range(200):
        t = random_term(rng, depth=4, max_z=4)
        assert env.aug(t) == point(AUG.aug(t))
        assert env.aug_power(2, t) == point(AUG.aug_power(2, t))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_point_comparison_agrees_with_exact_equality(engine, rnd):
    t = random_term(rnd, depth=3, max_z=4)
    nf = engine.normalize(t, check_lambda=False)
    point = Point(term_text(t))
    exact = nf.lambda_image()
    at_point = nf.lambda_image(point)
    # the point route builds exactly the evaluation of the exact image
    assert at_point == IntImage.at(point, exact)
    for other in (t, random_term(rnd, depth=3, max_z=4)):
        direct = lambda_term(other)
        assert (IntImage.at(point, direct) == at_point) == (direct == exact)


# --- mutated normal forms --------------------------------------------------

MULTI_TERM = [
    "G_r(G_r(G_s(G_s(Z(2,r)*Z(3,s)))))",
    "G_r(G_s(Z(2,r)))^2 + sigma(3*g1)*Z(2,s)",
    "G_s(G_r(G_r(Z(3,s))))*G_r(e_s)",
    "Z(1,r)^3",
]


def drop_first(nf):
    first = min(nf.terms)
    return NormalForm({bm: c for bm, c in nf.terms.items() if bm != first})


def bump_last(nf):
    last = max(nf.terms)
    return NormalForm(nf.terms | {last: nf.terms[last] + 1})


def add_symbols(nf):
    extra = aug_symbol(1, "P") * aug_symbol(2, "Z(2,r)")
    return NormalForm(nf.terms | {UNIT: nf.terms.get(UNIT, 0) + extra})


MUTATIONS = {
    "drop-term": drop_first, "coefficient-plus-1": bump_last, "add-A-symbols": add_symbols,
}


def mutate_normalize(monkeypatch, text, mutate):
    """Make normalize return mutate(its normal form) for `text`."""
    real = GammaEngine._eval
    target = parse_term(text)

    def _eval(self, t):
        nf = real(self, t)
        return mutate(nf) if t == target else nf

    monkeypatch.setattr(GammaEngine, "_eval", _eval)


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("text", MULTI_TERM)
def test_mutated_normal_form_is_a_lambda_mismatch(monkeypatch, text, mutation):
    assert len(GammaEngine().normalize(parse_term(text)).terms) > 1
    mutate_normalize(monkeypatch, text, MUTATIONS[mutation])
    with pytest.raises(LambdaMismatch):
        GammaEngine().normalize(parse_term(text))


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_mutated_normal_form_exits_3(capsys, monkeypatch, mutation):
    text = MULTI_TERM[0]
    mutate_normalize(monkeypatch, text, MUTATIONS[mutation])
    assert main(["normalize", text]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("internal: normalize changed the localized image of %r: " % text)
    # one monomial and its two exact coefficients, not the whole images
    assert "the coefficient of " in err and err.count("\n") == 1
    assert "(point seed %s)" % Point(text).seed in err


def test_mismatch_is_found_where_the_point_overflows(monkeypatch):
    text = "G_r(sigma(g1^100000000000)*Z(2,r))"
    nf = GammaEngine().normalize(parse_term(text))
    with pytest.raises(OverflowError):
        nf.lambda_image(Point(text))
    mutate_normalize(monkeypatch, text, bump_last)
    with pytest.raises(LambdaMismatch, match="coefficient of"):
        GammaEngine().normalize(parse_term(text))


def test_point_route_fault_is_an_internal_error(capsys, monkeypatch):
    real = NormalForm.lambda_image

    def off_at_the_point(self, point=None):
        image = real(self, point)
        return image if point is None else image - IntImage({(0, 0, ()): 1})

    monkeypatch.setattr(NormalForm, "lambda_image", off_at_the_point)
    text = "G_r(G_s(Z(2,r)))"
    with pytest.raises(InternalError) as exc:
        GammaEngine().normalize(parse_term(text))
    assert not isinstance(exc.value, LambdaMismatch)
    assert main(["normalize", text]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal: the cross-check of %r at point seed %s found a mismatch that "
        "the exact images do not have\n" % (text, Point(text).seed)
    )
    # exact callers never see the point route
    assert real(GammaEngine().normalize(parse_term(text), check_lambda=False)) == (
        lambda_term(parse_term(text))
    )


# --- the point does not depend on the process ------------------------------

POINT_VALUES = """
import sys
from sfb.coeff import Point, _SLOTS, _gen_name, parse_coeff
texts = sys.argv[1:]
for text in texts:
    parse_coeff(text)
point = Point("G_r(Z(2,r))")
print(" ".join(_gen_name(s) for s in _SLOTS))
print(" ".join(str(point(parse_coeff(text))) for text in sorted(texts)))
"""

GENERATORS = ["g1", "g3", "A(1;P)", "A(2;Z(3,r))", "g1*A(1;P)^2 - 4*g3"]


def test_point_values_ignore_hash_seed_and_slot_order():
    env = dict(os.environ, PYTHONPATH=str(Path(sfb.__file__).resolve().parents[1]))
    runs = {}
    for hash_seed in ("0", "1"):
        for order in (GENERATORS, GENERATORS[::-1]):
            out = subprocess.run(
                [sys.executable, "-c", POINT_VALUES, *order],
                capture_output=True, text=True, timeout=60,
                env=dict(env, PYTHONHASHSEED=hash_seed),
            )
            assert out.returncode == 0, out.stderr
            slots, values = out.stdout.splitlines()
            runs[hash_seed, slots] = values
    assert len({slots for _, slots in runs}) == 2
    assert len(set(runs.values())) == 1
