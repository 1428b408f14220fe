import hashlib
import random

import pytest

from sfb.cli import main
from sfb.coeff import cp
from sfb.engine import (
    E_R,
    E_S,
    P_BM,
    UNIT,
    GammaEngine,
    NormalForm,
    StepBudgetExceeded,
    Z1,
    bm_degree,
    bm_images,
    bm_is_legal,
    bm_term,
    is_geometric,
    lambda_term,
    random_term,
)
from sfb.coeff import ONE
from sfb.manifold import lambda_manifold, random_manifold
from sfb.phi import PhiElement
from sfb.terms import (
    parse_term,
    t_euler,
    t_gamma,
    t_int,
    t_prod,
    t_zgen,
    term_text,
)

P_TERM = t_gamma("r", t_gamma("s", t_euler("r")))


def test_operator_kills_scalars(engine):
    assert engine.normalize(t_gamma("r", t_int(1))).is_zero()
    assert engine.normalize(t_gamma("s", t_int(0))).is_zero()
    assert engine.normalize(t_gamma("s", t_int(7))).is_zero()


def test_unit_and_scalars(engine):
    nf = engine.normalize(t_int(5))
    assert nf == NormalForm.unit(cp(0) * 5)
    assert engine.normalize(t_int(0)).is_zero()


def test_atom_order_is_graded():
    atoms = [E_R, E_S, Z1, t_zgen(2, "r"), t_zgen(2, "s"), t_zgen(3, "r")]
    assert sorted(atoms) == atoms


def test_frozen_normal_forms(engine):
    assert engine.normalize(t_prod(P_TERM, P_TERM)).text() == (
        "G_r(G_s(G_s(e_r))) + G_r(G_r(G_s(e_r)))"
    )
    assert engine.normalize(t_prod(t_euler("r"), P_TERM)).text() == "1 + G_s(e_r)"
    nf = engine.normalize(t_prod(P_TERM, P_TERM))
    assert str(nf) == nf.text()
    assert repr(nf) == "NormalForm(G_r(G_s(G_s(e_r))) + G_r(G_r(G_s(e_r))))"
    assert engine.normalize(t_gamma("s", t_gamma("r", t_euler("s")))) == NormalForm.of(
        P_BM
    )


def test_sphere_class_elaborates_to_the_word(engine):
    # both degree-2 linear classes and the operator word are one class
    for fl in "rs":
        assert engine.normalize(t_zgen(1, fl)) == NormalForm.of(P_BM)
    assert engine.normalize(P_TERM) == NormalForm.of(P_BM)


def test_inverse_pair_collapses(engine):
    prod = t_prod(t_gamma("r", t_euler("s")), t_gamma("s", t_euler("r")))
    assert engine.normalize(prod) == NormalForm.unit()


def test_outputs_are_legal_storage_monomials(engine):
    rng = random.Random(21)
    for _ in range(150):
        t = random_term(rng, depth=3, max_z=5)
        nf = engine.normalize(t)
        for bm, c in nf.terms.items():
            assert bm_is_legal(bm), nf.text()
            assert not c.is_zero()


def test_product_is_commutative(engine):
    rng = random.Random(22)
    for _ in range(60):
        a = random_term(rng, depth=2, max_z=4)
        b = random_term(rng, depth=2, max_z=4)
        assert engine.normalize(t_prod(a, b)) == engine.normalize(t_prod(b, a))


def test_to_term_round_trip(engine):
    rng = random.Random(23)
    for _ in range(60):
        t = random_term(rng, depth=3, max_z=4)
        nf = engine.normalize(t)
        assert engine.normalize(nf.to_term()) == nf


def test_lambda_image_matches_direct_map(engine):
    t = t_prod(t_gamma("s", t_zgen(2, "r")), t_gamma("r", t_euler("s")))
    nf = engine.normalize(t)
    assert nf.lambda_image() == lambda_term(t)


def image_in(convention, nf):
    """The localized image of a normal form under either pole convention."""
    image = bm_images(convention)
    return PhiElement.total((image(bm), c) for bm, c in nf.terms.items())


def test_mixed_pole_convention_engine(engine):
    # the rewriter has no convention; its normal form keeps the mixed image
    rng = random.Random(24)
    for _ in range(60):
        t = random_term(rng, depth=3, max_z=4)
        nf = engine.normalize(t)  # built-in image cross-check must hold
        assert image_in("mixed", nf) == lambda_term(t, "mixed")


def test_lambda_image_equals_unmemoized_definition(engine):
    # lambda_image reuses word and multiset images within a call; the
    # definition it must agree with is sum of c * lambda(bm), term by term
    rng = random.Random(25)
    for _ in range(40):
        t = random_term(rng, depth=4, max_z=4)
        nf = engine.normalize(t, check_lambda=False)
        for convention in ("same", "mixed"):
            direct = PhiElement.zero()
            for bm, c in nf.terms.items():
                direct = direct + lambda_term(bm_term(bm), convention).scale(c)
            assert image_in(convention, nf) == direct
        assert nf.lambda_image() == image_in("same", nf)


def pole_swap(image):
    """The ring automorphism X(n,V) -> X(n,V) + e_V'^-(n+1) - e_V^-(n+1),
    V' the other flavor, applied monomial by monomial."""
    out = PhiElement.zero()
    for (a, b, xs), c in image.terms.items():
        term = PhiElement({(a, b, ()): c})
        for n, fl in xs:
            other = "s" if fl == "r" else "r"
            x = PhiElement({(0, 0, ((n, fl),)): ONE})
            term = term * (x + PhiElement.euler(other, -n - 1) - PhiElement.euler(fl, -n - 1))
        out = out + term
    return out


def test_mixed_images_are_the_pole_swap_of_same_images():
    # why the rewriter and verify need no convention: an equality of
    # images holds under both or neither, since pole_swap is invertible
    rng = random.Random(31)
    moved = 0
    for _ in range(300):
        t = random_term(rng, depth=3, max_z=5)
        same = lambda_term(t)
        assert lambda_term(t, "mixed") == pole_swap(same)
        moved += lambda_term(t, "mixed") != same
    for _ in range(100):
        m = random_manifold(rng, depth=2)
        assert lambda_manifold(m, "mixed") == pole_swap(lambda_manifold(m))
    assert moved > 100  # the conventions do differ on most samples


def test_step_budget():
    eng = GammaEngine(step_budget=3)
    deep = t_prod(P_TERM, P_TERM, P_TERM, P_TERM)
    with pytest.raises(StepBudgetExceeded):
        eng.normalize(deep)


def test_engine_ignores_step_budget_variable(monkeypatch):
    # only the sfb executable reads SFB_STEP_BUDGET; the library takes an argument
    monkeypatch.setenv("SFB_STEP_BUDGET", "1")
    eng = GammaEngine()
    eng.normalize(parse_term("G_r(G_s(e_r))^4"))
    assert eng._steps == 44


# rewrite steps, the unit of SFB_STEP_BUDGET: memo misses of nf_gamma and
# nf_mul, each input on a fresh engine.  A refactor that moves a memo
# boundary moves these counts, and with them what a budget admits.
def test_pinned_rewrite_steps(monkeypatch):
    def steps(term):
        eng = GammaEngine()
        eng.normalize(term)
        return eng._steps

    assert steps(parse_term("G_r(G_s(e_r))^4")) == 44
    assert steps(parse_term("G_r(G_r(G_s(G_s(Z(2,r)*Z(3,s)))))^3")) == 1483
    rng = random.Random(29)  # test_pinned_normalize_outputs' terms, as built
    assert sum(steps(random_term(rng, depth=5, max_z=4)) for _ in range(40)) == 1148
    for budget, code in (("43", 3), ("44", 0)):
        monkeypatch.setenv("SFB_STEP_BUDGET", budget)
        assert main(["normalize", "G_r(G_s(e_r))^4"]) == code


def test_geometric_verdicts():
    ok, cert = is_geometric(t_euler("r"))
    assert ok is False and cert["coeff"] == "1"
    ok, cert = is_geometric(t_zgen(2, "r"))
    assert ok is True and cert is None
    ok, cert = is_geometric(t_gamma("s", t_euler("r")))
    assert ok is False
    # obstruction that lives entirely in undetermined symbols
    pending = t_prod(
        t_gamma("s", t_gamma("s", t_zgen(2, "r"))), t_euler("s"), t_euler("s")
    )
    ok, cert = is_geometric(pending)
    assert ok == "unknown"
    assert cert["pending"] == ["A(1;Z(2,r))"]


def test_degree_bookkeeping(engine):
    nf = engine.normalize(t_prod(t_zgen(2, "r"), t_zgen(3, "s")))
    assert nf.degrees() == {10}
    for bm in nf.terms:
        assert bm_degree(bm) == 10
    assert UNIT == (0, 0, (), ())
    assert bm_degree(UNIT) == 0
    assert bm_degree(P_BM) == 2


def test_parsed_and_built_terms_agree(engine):
    text = "G_r(G_s(e_r))^2 + sigma(3*g1)*Z(2,s)"
    t = parse_term(text)
    nf = engine.normalize(t)
    assert nf.text() == "3*g1*Z(2,s) + G_r(G_s(G_s(e_r))) + G_r(G_r(G_s(e_r)))"
    assert term_text(parse_term(nf.text())) == nf.text()


def test_normal_form_vector_ops(engine):
    a = engine.normalize(t_zgen(2, "r"))
    b = engine.normalize(t_euler("s"))
    assert (a + b) - b == a
    assert a.scale(0).is_zero()
    assert (a - a).is_zero()
    assert a.scale(cp(1)).lambda_image() == a.lambda_image().scale(cp(1))
    # each result is a fresh NormalForm whose image is that of its terms
    a = engine.normalize(parse_term("G_r(G_s(e_r))^2 + Z(2,s)"))
    b = engine.normalize(parse_term("sigma(g1)*G_s(Z(3,r)) - e_s"))
    la, lb = a.lambda_image(), b.lambda_image()
    for nf, image in (
        (a + b, la + lb),
        (a - b, la - lb),
        (-a, -la),
        (a.scale(cp(2)), la.scale(cp(2))),
        (a.scale(-3), la.scale(-3)),
    ):
        assert type(nf) is NormalForm
        assert nf.lambda_image() == image
    assert (a + b).aug() == a.aug() + b.aug()


def test_bar_inside_engine(engine):
    t = parse_term("bar(G_s(e_r))")
    nf = engine.normalize(t)
    assert nf == NormalForm.unit(-cp(0))
    assert nf.lambda_image() == PhiElement.const(-1)


# sha256 of the concatenated `normalize --json` outputs of 40 seeded
# random terms, recorded from the rewriter before each of its identities
# (peel, product rule, outer-operator split) was coded once; neither
# the normal form nor the image cross-check depends on the pole
# convention, so both conventions pin the same digest
NORMALIZE_JSON_40 = "60c76305169fb11ec0a171477994e6322744945b004dc4375f457708882704ad"


@pytest.mark.parametrize("convention", ["same", "mixed"])
def test_pinned_normalize_outputs(capsys, convention):
    rng = random.Random(29)
    digest = hashlib.sha256()
    for _ in range(40):
        text = term_text(random_term(rng, depth=5, max_z=4))
        assert main(["--z-convention", convention, "normalize", "--json", text]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == NORMALIZE_JSON_40
