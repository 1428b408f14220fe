import random
import sys
from math import comb

import pytest

from sfb.coeff import aug_symbol, cp
from sfb.manifold import (
    ManifoldParseError,
    NonIsolatedError,
    aug_manifold,
    check_cobordant,
    decomposition_lambda,
    fixed_data,
    fixed_data_from_json,
    fixed_data_to_json,
    gamma_fixed_semantics,
    lambda_fixed,
    lambda_manifold,
    m_gamma,
    m_gammastar,
    m_pc,
    m_point,
    m_prod,
    m_union,
    manifold_text,
    manifold_to_term,
    parse_manifold,
    random_manifold,
    realize,
    realize_iterative,
)
from sfb.engine import lambda_term
from sfb.phi import PhiElement, z_gen


def sphere_power(n, flavor="r"):
    return m_prod(*([m_pc(1, flavor)] * n))


def test_fixed_data_atoms():
    assert fixed_data(m_point()) == {(0, 0): 1}
    assert fixed_data(m_pc(1, "r")) == {(1, 0): 1, (0, 1): 1}
    assert fixed_data(m_pc(1, "s")) == {(1, 0): 1, (0, 1): 1}


def test_fixed_data_products_convolve():
    assert fixed_data(sphere_power(2)) == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    for n in range(6):
        data = fixed_data(sphere_power(n))
        assert data == {(n - i, i): comb(n, i) for i in range(n + 1)}


def test_fixed_data_unions_weight():
    m = m_union((2, m_point()), (-1, m_pc(1, "r")))
    assert fixed_data(m) == {(0, 0): 2, (1, 0): -1, (0, 1): -1}
    # cancelling weights drop the key
    m2 = m_union((1, m_point()), (-1, m_point()))
    assert fixed_data(m2) == {}


def test_fixed_data_rejects_positive_dimensional_sets():
    with pytest.raises(NonIsolatedError):
        fixed_data(m_pc(2, "r"))
    with pytest.raises(NonIsolatedError):
        fixed_data(m_gamma(m_point()))
    with pytest.raises(NonIsolatedError):
        fixed_data(m_gammastar(m_pc(1, "s")))


def test_lambda_fixed_matches_lambda_manifold():
    for m in (m_point(), m_pc(1, "r"), sphere_power(3),
              m_union((2, sphere_power(2)), (1, m_point()))):
        assert lambda_fixed(fixed_data(m)) == lambda_manifold(m)


def test_realize_accepts_sphere_unions():
    m = m_union((1, sphere_power(2)), (3, sphere_power(1)))
    out = realize(fixed_data(m))
    assert out["realizable"]
    assert out["decomposition"] == [
        {"multiplicity": 3, "power": 1},
        {"multiplicity": 1, "power": 2},
    ]


def test_realize_rejects_with_witness():
    out = realize({(1, 1): 1})
    assert not out["realizable"]
    assert out["witness"] == {"degree": 2, "index": 1, "expected": 0, "actual": 1}
    # the bad row is reported with the first failing binomial slot
    out2 = realize({(2, 0): 1, (1, 1): 3, (0, 2): 1})
    assert not out2["realizable"]
    assert out2["witness"] == {"degree": 2, "index": 1, "expected": 2, "actual": 3}


def test_realize_degree_zero_and_empty():
    assert realize({}) == {"realizable": True, "decomposition": []}
    out = realize({(0, 0): -4})
    assert out["realizable"]
    assert out["decomposition"] == [{"multiplicity": -4, "power": 0}]


def test_realize_virtual_multiplicities():
    data = {(2, 0): -2, (1, 1): -4, (0, 2): -2}
    for decide in (realize, realize_iterative):
        out = decide(data)
        assert out["realizable"]
        assert out["decomposition"] == [{"multiplicity": -2, "power": 2}]


def test_realize_mixed_degrees_decide_independently():
    data = dict(fixed_data(sphere_power(3)))
    data[(0, 0)] = 5
    out = realize(data)
    assert out["realizable"]
    assert out["decomposition"] == [
        {"multiplicity": 5, "power": 0},
        {"multiplicity": 1, "power": 3},
    ]
    # break one degree, keep the other
    data[(1, 2)] += 1
    assert not realize(data)["realizable"]
    assert not realize_iterative(data)["realizable"]


def test_iterative_agrees_on_random_vectors():
    rng = random.Random(9)
    for _ in range(300):
        n = rng.randint(0, 5)
        data = {}
        for i in range(n + 1):
            w = rng.randint(-3, 3)
            if w:
                data[(n - i, i)] = w
        a = realize(data)
        b = realize_iterative(data)
        assert a["realizable"] == b["realizable"]
        if a["realizable"]:
            assert a["decomposition"] == b["decomposition"]


def test_iterative_decides_degrees_beyond_the_recursion_limit():
    n = 400
    data = fixed_data(m_union((3, sphere_power(n)), (-2, m_point())))
    perturbed = dict(data)
    perturbed[(n - 7, 7)] += 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(n // 2)
    try:
        for d in (data, perturbed):
            a, b = realize(d), realize_iterative(d)
            assert a["realizable"] == b["realizable"] == (d is data)
        assert b["witness"] == {"degree": n}
        assert realize_iterative(data)["decomposition"] == [
            {"multiplicity": -2, "power": 0},
            {"multiplicity": 3, "power": n},
        ]
    finally:
        sys.setrecursionlimit(limit)


def test_decomposition_lambda():
    out = realize(fixed_data(m_union((2, sphere_power(2)), (1, m_point()))))
    assert out["realizable"]
    lam = decomposition_lambda(out["decomposition"])
    assert lam == PhiElement.one() + (z_gen(1, "r") ** 2).scale(2)


def test_fixed_data_json_round_trip():
    data = {(2, 0): 1, (1, 1): -2}
    doc = fixed_data_to_json(data)
    assert doc == {
        "points": [
            {"weight": -2, "rho": 1, "rho_star": 1},
            {"weight": 1, "rho": 2, "rho_star": 0},
        ]
    }
    assert fixed_data_from_json(doc) == data
    # duplicates merge, zero entries drop
    merged = fixed_data_from_json(
        {"points": [
            {"weight": 1, "rho": 0, "rho_star": 0},
            {"weight": -1, "rho": 0, "rho_star": 0},
        ]}
    )
    assert merged == {}
    with pytest.raises(ValueError):
        fixed_data_from_json({"points": [{"weight": 1, "rho": -1, "rho_star": 0}]})
    with pytest.raises(ValueError):
        fixed_data_from_json({"rows": []})


def test_aug_manifold():
    assert aug_manifold(m_pc(3, "s")) == cp(3)
    assert aug_manifold(m_point()) == 1
    assert aug_manifold(m_prod(m_pc(1, "r"), m_pc(2, "r"))) == cp(1) * cp(2)
    assert aug_manifold(m_union((2, m_point()), (-1, m_pc(1, "r")))) == 2 - cp(1)
    assert aug_manifold(m_gamma(m_pc(1, "r"))) == -aug_manifold(
        m_gammastar(m_pc(1, "r"))
    )


def test_lambda_manifold_agrees_with_term_route():
    rng = random.Random(10)
    for _ in range(120):
        m = random_manifold(rng, depth=3)
        assert lambda_manifold(m) == lambda_term(manifold_to_term(m))


def test_twisted_bundle_semantics():
    m = m_pc(2, "r")
    for star in (False, True):
        parts = gamma_fixed_semantics(m, star=star)
        total = (
            parts["fixed_component"] + parts["free_quotient"] + parts["correction"]
        )
        assert total == parts["total"]
        built = m_gammastar(m) if star else m_gamma(m)
        assert parts["total"] == lambda_manifold(built)


def test_parse_and_print():
    texts = [
        "pt",
        "P(1,r)",
        "P(3,s)",
        "gamma(P(2,r))",
        "gammas(P(1,s) x P(1,s))",
        "3*P(1,r) - 2*pt",
        "2*(P(1,r) + pt)",
    ]
    for text in texts:
        m = parse_manifold(text)
        assert manifold_text(m) == text
    assert parse_manifold("P(1,r)^3") == sphere_power(3)
    assert parse_manifold("P(1,r) * P(1,r)") == sphere_power(2)
    assert parse_manifold("5") == m_union((5, m_point()))


def test_parse_errors():
    for bad in ("", "P(0,r)", "P(1,q)", "gamma(", "P(1,r) +", "qq", "P(1,r)^-1"):
        with pytest.raises(ManifoldParseError):
            parse_manifold(bad)


def test_print_parse_round_trip_random():
    rng = random.Random(12)
    for _ in range(250):
        m = random_manifold(rng, depth=3)
        text = manifold_text(m)
        again = parse_manifold(text)
        assert manifold_text(again) == text
        assert lambda_manifold(again) == lambda_manifold(m)
        assert aug_manifold(again) == aug_manifold(m)


def test_cobordant_verdicts():
    ok, detail = check_cobordant(m_pc(1, "r"), m_pc(1, "s"))
    assert ok is True and detail is None
    ok, detail = check_cobordant(m_pc(1, "r"), m_point())
    assert ok is False
    assert detail["coeff"] in ("1", "-1")
    # operator order differs by an undetermined augmentation multiple
    m1 = m_gamma(m_gammastar(m_pc(2, "r")))
    m2 = m_gammastar(m_gamma(m_pc(2, "r")))
    ok, detail = check_cobordant(m1, m2)
    assert ok == "unknown"
    assert "A(1;Z(2,r))" in detail["difference"]


def test_cobordant_unknown_resolves_under_substitution():
    m1 = m_gamma(m_gammastar(m_pc(2, "r")))
    m2 = m_gammastar(m_gamma(m_pc(2, "r")))
    diff = lambda_manifold(m1) - lambda_manifold(m2)
    key = ("A", 1, "Z(2,r)", 6)
    assert diff.substitute({key: 0}).is_zero()
    assert not diff.substitute({key: cp(3)}).is_zero()
    assert diff == z_gen(1, "r").scale(-aug_symbol(1, "Z(2,r)"))
