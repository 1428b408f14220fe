"""End-to-end checks, one test per shipped guarantee.  Everything here
is exact integer/polynomial arithmetic; there are no tolerances."""

import random
from math import comb

from sfb.aug import AugEnv
from sfb.coeff import cp
from sfb.engine import (
    GammaEngine,
    bm_degree,
    certify_basis,
    enumerate_basis,
    is_geometric,
    lambda_term,
    random_term,
    two_colored_partitions,
    verify_relations,
)
from sfb.manifold import (
    fixed_data,
    m_pc,
    m_prod,
    m_union,
    realize,
    realize_iterative,
    verify_manifold_relations,
)
from sfb.phi import PhiElement, from_z_basis, mono, to_z_basis
from sfb.terms import (
    t_euler,
    t_gamma,
    t_int,
    t_prod,
    t_sum,
    t_zgen,
    term_degrees,
)

ENGINE = GammaEngine()
P_TERM = t_gamma("r", t_gamma("s", t_euler("r")))


def partitions(total):
    """All descending tuples of positive parts summing to total."""

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - part, part):
                yield (part,) + rest

    return rec(total, total)


def binomial_row(n):
    # independent expansion of (e_r^-1 + e_s^-1)^n
    return {(n - i, i): comb(n, i) for i in range(n + 1)}


# 1. every finite disjoint union of rotation-sphere powers round-trips
#    through its fixed-point data, recovering the exact multiplicities
def test_sphere_union_realizability_round_trip():
    cases = 0
    for total in range(0, 9):
        for parts in partitions(total):
            manifold = m_union(
                *[(1, m_prod(*([m_pc(1, "r")] * n))) for n in parts]
            )
            data = fixed_data(manifold)
            oracle = {}
            for n in parts:
                for key, w in binomial_row(n).items():
                    oracle[key] = oracle.get(key, 0) + w
            assert data == oracle
            expected = sorted(
                {n: parts.count(n) for n in set(parts)}.items()
            )
            out = realize(data)
            assert out["realizable"] is True
            assert [
                (e["power"], e["multiplicity"]) for e in out["decomposition"]
            ] == expected
            cases += 1
    assert cases == 67  # partitions of 0..8


# 2. the closed-form binomial test and the verbatim inductive
#    subtraction agree on every homogeneous vector with n <= 6 and
#    |a_i| <= 3, rejecting exactly the non-binomial rows
def test_exhaustive_rejection_agreement():
    checked = accepted = 0
    for n in range(0, 7):
        slots = [(n - i, i) for i in range(n + 1)]
        vector = [-3] * (n + 1)
        while True:
            data = {
                slot: w for slot, w in zip(slots, vector) if w
            }
            closed = realize(data)
            iterative = realize_iterative(data)
            assert closed["realizable"] == iterative["realizable"], data
            a0 = data.get((n, 0), 0)
            is_binomial = data == {
                k: a0 * v for k, v in binomial_row(n).items() if a0 * v
            }
            assert closed["realizable"] == is_binomial, data
            if is_binomial:
                accepted += 1
                assert closed["decomposition"] == iterative["decomposition"]
            checked += 1
            for idx in range(n + 1):
                if vector[idx] < 3:
                    vector[idx] += 1
                    break
                vector[idx] = -3
            else:
                break
    assert checked == sum(7 ** (n + 1) for n in range(7))
    # per degree the grid holds a0*row for |a0*C(n,i)| <= 3:
    # 7 + 7 + 3 + 3 + 1 + 1 + 1 accepted vectors
    assert accepted == 23
    # the single point with both line types in its normal data is not
    # a union of sphere powers
    assert realize({(1, 1): 1})["realizable"] is False
    assert realize_iterative({(1, 1): 1})["realizable"] is False


# 3. the defining identities hold under the localization map on 200
#    seeded random instances (division, exchange, section, vanishing
#    augmentation, the product rule, the flavor-swap rewrite, and the
#    quotient-side exchange identity)
def test_localized_identity_suite():
    rep = verify_relations(samples=200, seed=0)
    assert rep["failures"] == []
    assert rep["checks"]["divide_multiply"] == 400
    assert rep["checks"]["exchange"] == 400
    assert rep["checks"]["multiply_divide"] == 400
    assert rep["checks"]["euler_vanishes"] == 400
    assert rep["checks"]["product_formula"] == 400
    assert rep["checks"]["flavor_swap"] == 200
    mrep = verify_manifold_relations(samples=200, seed=0)
    assert mrep["failures"] == []
    assert mrep["checks"]["exchange"] == 400
    assert mrep["ok"] is True
    assert rep["ok"] is True


# 4. the reordering identity needs the flavor-corrected scalar: the
#    corrected form vanishes on the whole sample, the uncorrected flavor
#    leaves a nonzero residue already on x = e_s
def test_reordering_sign_resolution():
    rep = verify_relations(samples=200, seed=0)
    assert rep["checks"]["reorder_corrected"] == 200
    lit = rep["reorder_literal"]
    assert lit["corrected_witness_vanishes"] is True
    assert lit["witness_x_es_nonzero"] is True
    env = AugEnv()
    e_s = t_euler("s")
    sr = lambda_term(t_gamma("s", t_gamma("r", e_s)))
    rs = lambda_term(t_gamma("r", t_gamma("s", e_s)))
    lam_p = lambda_term(P_TERM)
    corrected = sr - rs - lam_p.scale(env.aug(t_gamma("s", e_s)))
    literal = sr - rs - lam_p.scale(env.aug(t_gamma("r", e_s)))
    assert corrected.is_zero()
    assert literal == lam_p.scale(2)


# 5. closed-form anchor values
def test_closed_form_anchors():
    env = AugEnv()
    assert lambda_term(P_TERM) == (
        PhiElement.euler("r", -1) + PhiElement.euler("s", -1)
    )
    inverse_pair = t_prod(t_gamma("r", t_euler("s")), t_gamma("s", t_euler("r")))
    assert ENGINE.normalize(inverse_pair).text() == "1"
    swapped = t_gamma("s", t_gamma("r", t_euler("s")))
    assert ENGINE.normalize(swapped) == ENGINE.normalize(P_TERM)
    assert env.aug(t_gamma("r", t_euler("s"))) == -1
    assert env.aug(t_euler("r")) == 0
    assert env.aug(t_euler("s")) == 0


# 6. the quotient-side additive basis has the right size in each degree
#    (one less than the two-colored partition count, computed here by
#    an independent convolution), and the localized leading terms are
#    triangular with unit leading coefficients for both variants
def test_basis_counts_and_triangularity():
    p = [1] + [0] * 6
    for part in range(1, 7):
        for total in range(part, 7):
            p[total] += p[total - part]
    convolution = [sum(p[j] * p[k - j] for j in range(k + 1)) for k in range(7)]
    assert [two_colored_partitions(k) for k in range(7)] == convolution

    by_degree = {}
    for d, bm in enumerate_basis(12, variant="omega", truncation=6):
        assert d == bm_degree(bm)
        by_degree[d] = by_degree.get(d, 0) + 1
    assert [by_degree[d] for d in range(2, 13, 2)] == [
        convolution[k] - 1 for k in range(1, 7)
    ]

    for variant, bound, trunc in (("omega", 12, 6), ("musf", 4, 4)):
        rep = certify_basis(bound, variant=variant, truncation=trunc)
        assert rep["ok"] is True, rep
        for entry in rep["degrees"]:
            assert entry["leads_distinct"] is True
            assert entry["unit_leads"] is True
            assert entry["failures"] == []


# 7. geometric membership: Euler classes and lone divided words are
#    obstructed, linear classes and accepted decompositions are clean
def test_geometric_membership_verdicts():
    for t in (t_euler("r"), t_euler("s"), t_gamma("s", t_euler("r"))):
        verdict, cert = is_geometric(t)
        assert verdict is False
        assert cert is not None
    for n in range(1, 7):
        for fl in "rs":
            verdict, cert = is_geometric(t_zgen(n, fl))
            assert verdict is True
    assert is_geometric(P_TERM)[0] is True
    datasets = [
        {(0, 0): 3},
        binomial_row(4),
        {k: -2 * v for k, v in binomial_row(3).items()},
        {k: v + 2 * binomial_row(2)[k] for k, v in binomial_row(2).items()},
    ]
    for data in datasets:
        out = realize(data)
        assert out["realizable"] is True
        realized = t_sum(
            *[
                t_prod(t_int(e["multiplicity"]), *([t_zgen(1, "r")] * e["power"]))
                for e in out["decomposition"]
            ]
        )
        assert is_geometric(realized)[0] is True


# 8. everything is concentrated in even degrees, and each divided
#    operator raises degree by exactly two
def test_even_grading():
    rng = random.Random(14)
    for _ in range(150):
        t = random_term(rng, depth=3, max_z=5)
        assert all(d % 2 == 0 for d in ENGINE.normalize(t).degrees())
        assert all(d % 2 == 0 for d in lambda_term(t).degrees())
        for fl in "rs":
            wrapped = term_degrees(t_gamma(fl, t))
            assert wrapped == {d + 2 for d in term_degrees(t)}


def _shuffled(t, rng):
    """A copy of t with the operands of every sum and product shuffled."""
    tag = t[0]
    if tag in ("sum", "prod"):
        parts = [_shuffled(s, rng) for s in t[1]]
        rng.shuffle(parts)
        return (tag, tuple(parts))
    if tag == "gamma":
        return (tag, t[1], _shuffled(t[2], rng))
    if tag == "bar":
        return (tag, _shuffled(t[1], rng))
    return t


# 9. normalization is deterministic: idempotent, and independent of the
#    order rewrite rules visit the operands, on 500 seeded terms
def test_normalization_determinism():
    rng = random.Random(0)
    for k in range(500):
        t = random_term(rng, depth=3, max_z=5)
        nf = ENGINE.normalize(t)
        assert ENGINE.normalize(nf.to_term()) == nf, k
        for order_seed in (k + 1, 10_000 + k):
            shuffled = ENGINE.normalize(_shuffled(t, random.Random(order_seed)))
            assert shuffled == nf, k


# 10. the two presentations of the localized ring convert back and
#     forth without loss on 500 random elements
def test_z_presentation_round_trip():
    rng = random.Random(1)
    coeff_pool = [cp(1), cp(2), cp(1) + 2, 3 * cp(1) - cp(2), cp(3)]
    for _ in range(500):
        terms = {}
        for _ in range(rng.randint(0, 5)):
            xs = tuple(
                sorted(
                    (rng.randint(1, 4), rng.choice("rs"))
                    for _ in range(rng.randint(0, 2))
                )
            )
            m = mono(rng.randint(-3, 2), rng.randint(-3, 2), xs)
            terms[m] = rng.choice(coeff_pool) * rng.randint(1, 3)
        p = PhiElement(terms)
        assert from_z_basis(to_z_basis(p)) == p
