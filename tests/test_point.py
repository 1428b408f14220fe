"""The normalize cross-check at a point: ``coeff.Point`` evaluates the
coefficient ring and the Laurent variables e_r, e_s and X(n,V) mod M, a
product of three primes seeded from text, and
``NormalForm.lambda_image(point)`` builds a normal form's image as one
residue there."""

import os
import random
import subprocess
import sys
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sfb
from sfb.aug import AUG, AugEnv
from sfb.cli import main
from sfb.coeff import Point, aug_symbol, cp, is_prime, parse_coeff
from sfb.engine import (
    UNIT,
    GammaEngine,
    InternalError,
    LambdaMismatch,
    NormalForm,
    bm_degree,
    enumerate_basis,
    lambda_term,
    random_term,
)
from sfb.phi import PhiElement, z_gen
from sfb.terms import parse_term, term_text


def test_is_prime_matches_trial_division():
    # every odd n below 2^17, the bases 7 and 61 among them, and 2
    for n in range(1, 1 << 17, 2):
        assert is_prime(n) == (n > 1 and all(n % d for d in range(3, isqrt(n) + 1, 2))), n
    assert is_prime(2) and is_prime(7) and is_prime(61)
    assert not is_prime(0) and not is_prime(4) and not is_prime(1 << 30)


def test_modulus_is_three_seeded_primes():
    moduli = set()
    for k in range(300):
        point = Point("seed %d" % k)
        p1, p2, p3 = point.primes
        assert 2 ** 29 <= p1 < p2 < p3 < 2 ** 30 and all(map(is_prime, point.primes))
        assert point.modulus == p1 * p2 * p3
        moduli.add(point.modulus)
        for e, e_inv in point.euler.values():
            assert e * e_inv % point.modulus == 1
    assert len(moduli) == 300
    assert Point("seed 0").primes == Point("seed 0").primes


def test_point_is_a_ring_map():
    point = Point("seed")
    modulus = point.modulus
    a = parse_coeff("3*g1^2*A(1;P) - g2 + 5")
    b = parse_coeff("A(2;Z(3,r))*g1 - 7*A(1;P)^3")
    assert point(a * b) == point(a) * point(b) % modulus
    assert point(a + b) == (point(a) + point(b)) % modulus
    assert point(parse_coeff("12")) == 12 and point(parse_coeff("-1")) == modulus - 1
    for gen in (cp(1), cp(4), aug_symbol(1, "P"), aug_symbol(2, "Z(3,s)")):
        assert 0 <= point(gen) < modulus
    assert Point("seed")(a) == point(a) and Point("other")(a) != point(a)
    x = PhiElement.const(a) * z_gen(3, "s") + PhiElement.euler("r", -2)
    y = PhiElement.x_gen(2, "r").scale(b) - PhiElement.euler("s", 3)
    assert point.laurent(x * y) == point.laurent(x) * point.laurent(y) % modulus
    assert point.laurent(x + y) == (point.laurent(x) + point.laurent(y)) % modulus
    for flavor in "rs":
        e = point.laurent(PhiElement.euler(flavor))
        assert e * point.laurent(PhiElement.euler(flavor, -1)) % modulus == 1
    # e_r, e_s and the X's get values of their own, none of them 1
    gens = [PhiElement.euler("r"), PhiElement.euler("s"), PhiElement.x_gen(1, "r"),
            PhiElement.x_gen(1, "s"), PhiElement.x_gen(2, "r")]
    assert len({point.laurent(gen) for gen in gens} | {1}) == 6


def test_point_evaluates_any_exponent():
    point = Point("seed")
    g1 = point(cp(1))
    for exp in (4096, 4097, 10 ** 12):
        assert point(cp(1) ** exp) == pow(g1, exp, point.modulus)


def test_aug_at_a_point_is_the_exact_aug_evaluated():
    rng = random.Random(41)
    point = Point("aug")
    env = AugEnv(point)
    for _ in range(200):
        t = random_term(rng, depth=4, max_z=4)
        assert env.aug(t) == point(AUG.aug(t))
        assert env.aug_power(2, t) == point(AUG.aug_power(2, t))


def test_aug_at_a_point_maps_the_exact_memo(monkeypatch):
    t = parse_term("G_r(G_s(Z(2,r)*Z(3,s)))*G_s(e_r)")
    exact = AUG.aug_power(3, t)
    point = Point("memo")

    def follow_rules(self, j, term):
        raise AssertionError("the rules ran on a term that AUG has memoized")

    monkeypatch.setattr(AugEnv, "_aug_power", follow_rules)
    assert AugEnv(point).aug_power(3, t) == point(exact)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_point_comparison_agrees_with_exact_equality(engine, rnd):
    t = random_term(rnd, depth=3, max_z=4)
    nf = engine.normalize(t, check_lambda=False)
    point = Point(term_text(t))
    exact = nf.lambda_image()
    at_point = nf.lambda_image(point)
    # the point route builds exactly the residue of the exact image
    assert at_point == point.laurent(exact)
    for other in (t, random_term(rnd, depth=3, max_z=4)):
        direct = lambda_term(other)
        assert (point.laurent(direct) == at_point) == (direct == exact)


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


def move_term(nf):
    """The last term, coefficient and all, on the first basis word of its
    degree that nf lacks: every coefficient is still there, so only the
    Laurent variables tell the images apart."""
    last = max(nf.terms)
    d = bm_degree(last)
    word = next(bm for e, bm in enumerate_basis(d, "musf-work", 4)
                if e == d and bm not in nf.terms)
    terms = dict(nf.terms)
    terms[word] = terms.pop(last)
    return NormalForm(terms)


MUTATIONS = {
    "drop-term": drop_first, "coefficient-plus-1": bump_last, "add-A-symbols": add_symbols,
    "move-term": move_term,
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
    point = Point(text)
    assert err.endswith("(point seed %s, modulus %d)\n" % (point.seed, point.modulus))


def test_huge_coefficient_exponent_is_checked_at_the_point(monkeypatch):
    text = "G_r(sigma(g1^100000000000)*Z(2,r))"
    real = NormalForm.lambda_image

    def point_only(self, point=None):
        if point is None:
            raise AssertionError("the exact images were built")
        return real(self, point)

    monkeypatch.setattr(NormalForm, "lambda_image", point_only)
    nf = GammaEngine().normalize(parse_term(text))
    assert len(nf.terms) > 1
    monkeypatch.setattr(NormalForm, "lambda_image", real)
    mutate_normalize(monkeypatch, text, bump_last)
    with pytest.raises(LambdaMismatch, match="coefficient of"):
        GammaEngine().normalize(parse_term(text))


def test_point_route_fault_is_an_internal_error(capsys, monkeypatch):
    real = NormalForm.lambda_image

    def off_at_the_point(self, point=None):
        image = real(self, point)
        return image if point is None else (image + 1) % point.modulus

    monkeypatch.setattr(NormalForm, "lambda_image", off_at_the_point)
    text = "G_r(G_s(Z(2,r)))"
    with pytest.raises(InternalError) as exc:
        GammaEngine().normalize(parse_term(text))
    assert not isinstance(exc.value, LambdaMismatch)
    assert main(["normalize", text]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    point = Point(text)
    assert captured.err == (
        "internal: the cross-check of %r at point seed %s, modulus %d, found a "
        "mismatch that the exact images do not have\n" % (text, point.seed, point.modulus)
    )
    # exact callers never see the point route
    assert real(GammaEngine().normalize(parse_term(text), check_lambda=False)) == (
        lambda_term(parse_term(text))
    )


# --- the point does not depend on the process ------------------------------

POINT_VALUES = """
import sys
from sfb.coeff import Point, _SLOTS, _gen_name, parse_coeff
from sfb.phi import PhiElement
texts = sys.argv[1:]
for text in texts:
    parse_coeff(text)
point = Point("G_r(Z(2,r))")
print(" ".join(_gen_name(s) for s in _SLOTS))
laurent = [PhiElement.euler("r"), PhiElement.euler("s"), PhiElement.x_gen(1, "r"),
           PhiElement.x_gen(3, "s")]
print(point.modulus, *(point.laurent(p) for p in laurent),
      *(point(parse_coeff(text)) for text in sorted(texts)))
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
