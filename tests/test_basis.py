import pytest

from sfb.engine import (
    E_S,
    VARIANTS,
    bm_degree,
    bm_is_legal,
    certify_basis,
    enumerate_basis,
    two_colored_partitions,
)


def partition_counts(limit):
    # ordinary partition numbers by bounded-part DP
    p = [1] + [0] * limit
    for part in range(1, limit + 1):
        for total in range(part, limit + 1):
            p[total] += p[total - part]
    return p


def two_colored_oracle(k):
    # independent of the engine: convolution of the partition series
    p = partition_counts(k)
    return sum(p[j] * p[k - j] for j in range(k + 1))


def test_two_colored_partition_numbers():
    assert [two_colored_partitions(k) for k in range(7)] == [1, 2, 5, 10, 20, 36, 65]
    for k in range(12):
        assert two_colored_partitions(k) == two_colored_oracle(k)


def test_variant_registry():
    assert set(VARIANTS) == {"musf", "musf-work", "omega", "omega-lit", "omega-alt"}
    with pytest.raises(ValueError):
        enumerate_basis(4, variant="nope")


@pytest.mark.parametrize("truncation", [0, 2])
def test_unknown_variant_is_rejected_at_every_truncation(truncation):
    # at truncation 0 no word has an operator for the variant to judge
    for call in (enumerate_basis, certify_basis):
        with pytest.raises(ValueError, match="unknown basis variant 'bogus'"):
            call(6, "bogus", truncation)


def test_quotient_counts_match_oracle():
    basis = enumerate_basis(12, variant="omega", truncation=6)
    by_degree = {}
    for d, bm in basis:
        assert d == bm_degree(bm)
        by_degree[d] = by_degree.get(d, 0) + 1
    assert by_degree[0] == 1
    for d in range(2, 13, 2):
        assert by_degree[d] == two_colored_oracle(d // 2) - 1
    assert [by_degree[d] for d in range(2, 13, 2)] == [1, 4, 9, 19, 35, 64]


def test_enumerated_monomials_are_legal():
    # the diagnostic mirrors (omega-lit, omega-alt) intentionally step
    # outside the storage invariant; the production families must not
    for variant in ("musf", "musf-work", "omega"):
        bound = 6 if variant.startswith("omega") else 4
        for d, bm in enumerate_basis(bound, variant=variant, truncation=4):
            assert bm_is_legal(bm), (variant, bm)
            assert d == bm_degree(bm) <= bound
    for variant in ("omega-lit", "omega-alt"):
        for d, bm in enumerate_basis(6, variant=variant, truncation=4):
            assert d == bm_degree(bm) <= 6


def test_word_families_differ():
    # the stricter family drops all operator words built on e_s
    strict = {bm for _, bm in enumerate_basis(4, variant="musf", truncation=4)}
    working = {bm for _, bm in enumerate_basis(4, variant="musf-work", truncation=4)}
    assert strict < working
    assert not any(bm[2] == E_S and (bm[0] or bm[1]) for bm in strict)
    assert any(bm[2] == E_S and (bm[0] or bm[1]) for bm in working - strict)


def test_certification_passes_for_selected_families():
    rep = certify_basis(12, variant="omega", truncation=6)
    assert rep["ok"], rep
    for entry in rep["degrees"]:
        assert entry["leads_distinct"]
        assert entry["unit_leads"]
        if entry["degree"] > 0:
            assert entry["count"] == entry["expected_count"]
    rep = certify_basis(4, variant="musf", truncation=4)
    assert rep["ok"], rep


def test_literal_variant_overcounts():
    rep = certify_basis(8, variant="omega-lit", truncation=6)
    assert not rep["ok"]
    bad = {e["degree"]: e for e in rep["degrees"]}[8]
    assert bad["count"] == 21
    assert bad["expected_count"] == 19


def test_unguarded_variant_overcounts():
    rep = certify_basis(6, variant="omega-alt", truncation=6)
    assert not rep["ok"]
    counts = {e["degree"]: e["count"] for e in rep["degrees"]}
    assert counts[4] == 5  # one extra over the oracle's 4


def test_plain_lex_order_fails_to_separate():
    rep = certify_basis(4, variant="omega", truncation=6, order="neg_lex")
    entry = {e["degree"]: e for e in rep["degrees"]}[4]
    assert not entry["leads_distinct"]
    assert not rep["ok"]


def test_duplicate_injection_is_caught():
    rep = certify_basis(6, variant="omega", truncation=6, inject_duplicate=True)
    assert not rep["ok"]
    kinds = [
        f["kind"] for e in rep["degrees"] for f in e["failures"]
    ]
    assert "lead-collision" in kinds
