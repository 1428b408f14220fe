import json
import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from sfb.coeff import aug_symbol, cp
from sfb.manifold import (
    ManifoldParseError,
    NonIsolatedError,
    aug_manifold,
    check_cobordant,
    fixed_data,
    fixed_data_from_json,
    fixed_data_to_json,
    lambda_manifold,
    m_gamma,
    m_gammastar,
    m_pc,
    m_point,
    m_prod,
    m_union,
    manifold_to_term,
    parse_manifold,
    random_manifold,
    realize,
    realize_iterative,
)
from sfb import manifold
from sfb.engine import lambda_term
from sfb.phi import PhiElement, z_gen

from oracles import decomposition_lambda, gamma_fixed_semantics, lambda_fixed, manifold_text


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


def test_fixed_data_reads_each_node_once(monkeypatch):
    # m = m * m nested five times over P(1,r) is a tree of 63 nodes; the
    # product used to re-read a factor once per accumulated point (18559 calls)
    calls = []
    original = manifold.fixed_data

    def counted(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(manifold, "fixed_data", counted)
    m = m_pc(1, "r")
    for _ in range(5):
        m = m_prod(m, m)
    data = manifold.fixed_data(m)
    assert len(calls) == 2 ** 6 - 1
    assert data == {(32 - i, i): comb(32, i) for i in range(33)}


def test_fixed_data_unions_weight():
    m = m_union((2, m_point()), (-1, m_pc(1, "r")))
    assert fixed_data(m) == {(0, 0): 2, (1, 0): -1, (0, 1): -1}
    # cancelling weights drop the key
    m2 = m_union((1, m_point()), (-1, m_point()))
    assert fixed_data(m2) == {}
    # a zero factor ends a product before the factors after it are read
    assert fixed_data(m_prod(m2, m_gamma(m_point()))) == {}


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


def dense_realize_iterative(data: dict) -> dict:
    """Reference: the oracle's dense loop, which rebuilt every level's
    row from ``comb``; kept to check the sparse loop against."""
    by_degree = {}
    for (k, l), w in data.items():
        by_degree.setdefault(k + l, {})[(k, l)] = w
    decomposition = []
    for n in sorted(by_degree):
        x = by_degree[n]
        mult = x.get((n, 0), 0)
        for level in range(n, -1, -1):
            a0 = x.get((level, 0), 0)
            if a0 and level < n:
                return {"realizable": False, "witness": {"degree": n}}
            y = {}
            for i in range(1, level + 1):
                w = x.get((level - i, i), 0) - a0 * comb(level, i)
                if w:
                    y[(level - i, i - 1)] = w
            x = y
        if mult:
            decomposition.append({"multiplicity": mult, "power": n})
    return {"realizable": True, "decomposition": decomposition}


def test_sparse_oracle_matches_dense_reference(monkeypatch):
    # the oracle stays independent of the closed form and its binomials
    def forbidden(*args):
        raise AssertionError("the oracle must not call realize or comb")

    monkeypatch.setattr(manifold, "comb", forbidden)
    monkeypatch.setattr(manifold, "realize", forbidden)
    rng = random.Random(21)
    for trial in range(20000):
        data = {}
        degrees = [rng.randint(0, 12) for _ in range(rng.randint(1, 3))]
        for n in degrees:
            mult = rng.choice((-3, -2, -1, 1, 2, 3))
            for i in range(n + 1):
                # repeated degrees may cancel to explicit zero weights
                data[(n - i, i)] = data.get((n - i, i), 0) + mult * comb(n, i)
        if trial % 2:
            n = rng.choice(degrees)
            i = rng.randint(0, n)
            data[(n - i, i)] = data.get((n - i, i), 0) + rng.choice((-2, -1, 1, 2))
        assert realize_iterative(dict(data)) == dense_realize_iterative(dict(data))


def test_large_inputs_answer_in_a_child(tmp_path):
    n = 1200
    points = [
        {"weight": comb(n, i), "rho": n - i, "rho_star": i} for i in range(n + 1)
    ]
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"points": points}))
    points[7]["weight"] += 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"points": points}))
    # the child imports the same sfb as this test
    src = str(Path(manifold.__file__).resolve().parents[1])
    paths = filter(None, (src, os.environ.get("PYTHONPATH")))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    cases = (
        (str(good), 0, {"decomposition": [{"multiplicity": 1, "power": n}]}),
        (str(bad), 1, {"witness": {
            "degree": n, "index": 7,
            "expected": comb(n, 7), "actual": comb(n, 7) + 1,
        }}),
        ('{"points": [{"weight": 1, "rho": 40000, "rho_star": 0}]}', 1,
         {"witness": {"degree": 40000, "index": 1, "expected": 40000, "actual": 0}}),
    )
    for arg, code, expected in cases:
        out = subprocess.run(
            [sys.executable, "-m", "sfb.cli", "realize", arg],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert out.returncode == code, out.stderr
        doc = json.loads(out.stdout)
        assert doc["realizable"] is (code == 0)
        for field, value in expected.items():
            assert doc[field] == value


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
