"""Certification against independent routes: the generate-then-filter
enumeration, the whole-term localized image, and pinned reports."""

import hashlib

import pytest

from sfb.cli import main
from sfb.engine import (
    UNIT,
    VARIANTS,
    _variant_atoms,
    _word_ok,
    atom_degree,
    bm_degree,
    bm_images,
    bm_term,
    enumerate_basis,
    lambda_term,
)
from sfb.phi import to_z_basis


# --- the generate-then-filter enumeration, kept as the oracle -------------


def _multisets(atoms, max_pos_degree, e_budget):
    """All multisets over `atoms` (sorted ascending) whose positive-degree
    part stays within max_pos_degree and whose e-count stays within
    e_budget.  Yields sorted tuples."""

    def rec(idx, pos_room, e_room):
        if idx == len(atoms):
            yield ()
            return
        a = atoms[idx]
        d = atom_degree(a)
        if d < 0:
            top = e_room
        else:
            top = pos_room // d
        for count in range(top + 1):
            head = (a,) * count
            for tail in rec(
                idx + 1,
                pos_room - (d * count if d > 0 else 0),
                e_room - (count if d < 0 else 0),
            ):
                yield head + tail

    return rec(0, max_pos_degree, e_budget)


def reference_enumerate_basis(degree_bound, variant="musf", truncation=4):
    n = truncation
    is_musf = variant.startswith("musf")
    max_pos = degree_bound + (2 * n if is_musf else 0)
    atoms = _variant_atoms(variant, max_pos)
    out = [UNIT] if degree_bound >= 0 else []
    seen = set(out)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            for x_idx, x in enumerate(atoms):
                base_cost = i + j + (1 if x[0] == "euler" else 0)
                if base_cost > n:
                    continue
                word = (i, j) != (0, 0)
                for m in _multisets(
                    atoms[x_idx:], max_pos, n - base_cost if is_musf else n
                ):
                    bm = (i, j, x, m)
                    if bm_degree(bm) > degree_bound:
                        continue
                    if word and not _word_ok(variant, i, j, x, m):
                        continue
                    if bm not in seen:
                        seen.add(bm)
                        out.append(bm)
    out.sort(key=lambda bm: (bm_degree(bm), bm))
    return out


@pytest.mark.parametrize("variant", VARIANTS)
def test_enumeration_matches_generate_then_filter(variant):
    for truncation in range(5):
        for degree in (-4, -1, 0, 2, 5, 8, 10):
            got = enumerate_basis(degree, variant, truncation)
            assert got == reference_enumerate_basis(degree, variant, truncation), (
                variant, degree, truncation,
            )
            assert all(bm_degree(bm) <= degree for bm in got)


# --- certify images against the whole-term X route ------------------------


@pytest.mark.parametrize(
    "variant, degree", [("musf", 12), ("omega", 16), ("musf-work", 10)]
)
@pytest.mark.parametrize("convention", ["same", "mixed"])
def test_certify_images_match_whole_term_route(variant, degree, convention):
    z_image = bm_images(convention, to_z_basis)
    x_image = bm_images(convention)
    for bm in enumerate_basis(degree, variant, 6):
        lam = lambda_term(bm_term(bm), convention)
        assert x_image(bm) == lam, bm
        assert z_image(bm) == to_z_basis(lam), bm


# --- reports pinned from the whole-term route --------------------------------

# sha256 of the certify stdout and its exit code, recorded with every
# image built as to_z_basis(lambda_term(bm)) (or lambda_term(bm) under
# neg_lex) over the generate-then-filter enumeration
MUSF_D12 = "137971657ed643f94871dafa99cddcc18a7407fe3c045f414b445a3998e8d93f"
MUSF_WORK_D12 = "c60a6c056d153a1a37e45f8b96397c06c541877233d96326248be68d1b852256"
OMEGA_D12 = "df07eb3534f1818514dd46ecb18d67ccd757fef94f473e37b954b21354c2f9b4"
OMEGA_LIT_D12 = "9c9b4a8ef49735db904dd80e6b64735250c11bdb210c537b2ebb0f3cec780309"
OMEGA_ALT_D12 = "a7678a61b1a6fbe51a624a00bf0d51b73fc54b6385bfcdff943b3b93093d450f"
PINNED = [
    (("certify", "--variant", "musf", "--degree", "16", "--truncation", "6"),
     1, "149e213c6d8b5fe3d018c9bc9381f95860ee75b66b657545e14fc609ee15e292"),
    (("certify", "--variant", "musf", "--degree", "16", "--truncation", "6",
      "--order", "neg_lex"),
     1, "7d742c89814efd3c1e02e1c9d191c8b663a541fc0fcaf3e469e1f7dabc71ae79"),
] + [
    (("--z-convention", convention, "certify", "--variant", variant,
      "--degree", "12", "--truncation", "6"), code, digest)
    for convention in ("same", "mixed")
    for variant, code, digest in (
        ("musf", 1, MUSF_D12),
        ("musf-work", 1, MUSF_WORK_D12),
        ("omega", 0, OMEGA_D12),
        ("omega-lit", 1, OMEGA_LIT_D12),
        ("omega-alt", 1, OMEGA_ALT_D12),
    )
] + [
    # the enumeration order itself, which the oracle above shares
    (("basis", "--variant", variant, "--degree", degree, "--truncation", "6"),
     0, digest)
    for variant, degree, digest in (
        ("musf", "12", "19b5253d2b9bb5693f607b0fdf4517de84b7af1fb803e76b91d2bc4bc5c7d097"),
        ("musf-work", "12", "c80a11a9a8c028163e2392118166ec8d47117d39996757f988a77d6c7d6e0a1c"),
        ("omega", "12", "349f3e51a11546f879384ac6daacf4dc2d3e55769a2e6e8c226a6058d5a196e6"),
        ("omega-lit", "12", "31ef993fd1ce39037d6d0d22c7a3f4588bf22f295328a22a7e2b2dc4f0c0bbbd"),
        ("omega-alt", "12", "0bc19c36f9933db1dfc49d0964c38a5ff81dc6cd851b5aa4e65d994c99d3eb8b"),
        ("musf", "16", "1dad74c08082b520ef9bc480a745e2a9cf841cfc85a0ee2fe93bc86083cdd628"),
    )
]


@pytest.mark.parametrize(
    "argv, code, digest", PINNED, ids=[" ".join(p[0]) for p in PINNED]
)
def test_pinned_certify_reports(capsys, argv, code, digest):
    assert main(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
