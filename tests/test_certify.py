"""Certification against independent routes: the generate-then-filter
enumeration, the whole-term localized image, and pinned reports."""

import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfb.cli import main
from sfb.coeff import ONE
from sfb import engine
from sfb.engine import (
    UNIT,
    VARIANTS,
    _leading,
    _variant_atoms,
    _word_ok,
    atom_degree,
    bm_degree,
    bm_images,
    bm_json,
    bm_term,
    certify_basis,
    enumerate_basis,
    lambda_term,
)
from sfb.phi import mono_mul, neg_lex_key, to_z_basis, z_maxnorm_key


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
    return sorted((bm_degree(bm), bm) for bm in out)


@pytest.mark.parametrize("variant", VARIANTS)
def test_enumeration_matches_generate_then_filter(variant):
    for truncation in range(5):
        for degree in (-4, -1, 0, 2, 5, 8, 10):
            got = enumerate_basis(degree, variant, truncation)
            assert got == reference_enumerate_basis(degree, variant, truncation), (
                variant, degree, truncation,
            )
            assert all(d <= degree for d, _ in got)


# --- certify images against the whole-term X route ------------------------


@pytest.mark.parametrize(
    "variant, degree", [("musf", 12), ("omega", 16), ("musf-work", 10)]
)
@pytest.mark.parametrize("convention", ["same", "mixed"])
def test_certify_images_match_whole_term_route(variant, degree, convention):
    z_image = bm_images(convention, to_z_basis)
    x_image = bm_images(convention)
    for _, bm in enumerate_basis(degree, variant, 6):
        lam = lambda_term(bm_term(bm), convention)
        assert x_image(bm) == lam, bm
        assert z_image(bm) == to_z_basis(lam), bm


def test_present_runs_once_per_plain_word():
    # present fixes e_r, e_s and the constants, so it runs on the image of
    # each plain word reached (a generator or the unit), once, and never
    # on an operator word's image
    calls = []

    def present(image):
        calls.append(image)
        return to_z_basis(image)

    image = bm_images("same", present)
    words = [bm for _, bm in enumerate_basis(12, "musf", 6)]
    for bm in words:
        image(bm)
    plain = {(0, 0, a, ()) for _, _, x, m in words for a in (x,) + m}
    assert Counter(calls) == Counter(lambda_term(bm_term(w)) for w in plain)


# --- leading terms from the top blocks of the factors ------------------------

# order -> (lead tag, whole key, presentation), as certify_basis reads them
ORDERS = {
    "z_maxnorm": ("z", z_maxnorm_key, to_z_basis),
    "neg_lex": ("x", neg_lex_key, None),
}


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("order", sorted(ORDERS))
@pytest.mark.parametrize("convention", ["same", "mixed"])
def test_cut_images_keep_the_whole_leading_term(variant, order, convention):
    # the cut image is exactly the top block of the whole image, so its
    # leading monomial and coefficient are the whole image's
    tag, key, present = ORDERS[order]
    block = lambda m: key(m)[:2]
    whole = bm_images(convention, present)
    cut = bm_images(convention, present, block)
    for _, bm in enumerate_basis(12, variant, 6):
        w, c = whole(bm), cut(bm)
        assert _leading(c, tag, key) == _leading(w, tag, key), bm
        top = max(map(block, w.terms), default=None)
        assert c.terms == {m: v for m, v in w.terms.items() if block(m) == top}, bm


def _cmp(a, b):
    return (a > b) - (a < b)


_EXPONENT = st.integers(-6, 6)
_GENERATORS = st.lists(
    st.tuples(st.integers(1, 6), st.sampled_from("rs")), max_size=4
).map(lambda gens: tuple(sorted(gens)))
_MONOMIALS = st.tuples(_EXPONENT, _EXPONENT, _GENERATORS)


@pytest.mark.parametrize("key", [z_maxnorm_key, neg_lex_key])
@given(u=_MONOMIALS, v=_MONOMIALS, w=_MONOMIALS)
@settings(max_examples=500, deadline=None, derandomize=True)
def test_first_two_key_components_respect_products(key, u, v, w):
    # both < and == survive multiplying both sides by w
    block = lambda m: key(m)[:2]
    assert _cmp(block(u), block(v)) == _cmp(block(mono_mul(u, w)), block(mono_mul(v, w)))


def _certify_block(monkeypatch, order):
    """The block by which certify_basis cuts its images under `order`."""
    blocks = []
    real = engine.bm_images

    def spy(convention, present, block=None):
        blocks.append(block)
        return real(convention, present, block)

    monkeypatch.setattr(engine, "bm_images", spy)
    certify_basis(0, "omega", 0, order)
    [block] = blocks
    return block


@pytest.mark.parametrize("order, u, v, w", [
    # max(p, q) breaks Euler ties: (-3, 0) is above (-2, -2), not after (0, -2)
    ("z_maxnorm", (-3, 0, ()), (-2, -2, ()), (0, -2, ())),
    # a shorter X-multiset sorts first: X(1,r) is below X(1,r)X(2,r),
    # not after X(3,r)
    ("neg_lex", (0, 0, ((1, "r"),)), (0, 0, ((1, "r"), (2, "r"))),
     (0, 0, ((3, "r"),))),
])
def test_whole_keys_do_not_respect_products(monkeypatch, order, u, v, w):
    # so the lead of a product is not the product of the factors' leads,
    # and certify cuts each factor to a whole block, where these tie
    _, key, _ = ORDERS[order]
    uw, vw = mono_mul(u, w), mono_mul(v, w)
    assert _cmp(key(u), key(v)) == -_cmp(key(uw), key(vw)) != 0
    block = _certify_block(monkeypatch, order)
    assert block(u) == block(v) and block(uw) == block(vw)


# --- failure entries no real family reaches -------------------------------


@pytest.mark.parametrize("factor, kind, keys, unit_leads", [
    # a word whose image is zero has no lead, let alone a unit one
    (0, "zero-image", {"kind", "monomial"}, False),
    (2, "non-unit-lead", {"kind", "monomial", "lead_coeff"}, False),
])
def test_failure_entries(monkeypatch, factor, kind, keys, unit_leads):
    # scale the image of the last omega word, whose lead is a unit
    *_, (d, last) = enumerate_basis(4, "omega", 4)
    real = engine.bm_images
    lead = _leading(real("same", to_z_basis)(last), "z", z_maxnorm_key)[1]

    def spy(convention, present, block=None):
        image = real(convention, present, block)
        return lambda bm: image(bm).scale(factor) if bm == last else image(bm)

    monkeypatch.setattr(engine, "bm_images", spy)
    report = certify_basis(4, "omega", 4)
    assert report["ok"] is False
    *fine, entry = report["degrees"]
    assert [e["failures"] for e in fine] == [[]] * len(fine)
    assert set(entry) == {"degree", "count", "leads_distinct", "unit_leads",
                          "failures", "expected_count"}
    assert entry["degree"] == d and entry["count"] == entry["expected_count"]
    assert entry["leads_distinct"] is True and entry["unit_leads"] is unit_leads
    [failure] = entry["failures"]
    assert set(failure) == keys
    assert failure["kind"] == kind and failure["monomial"] == bm_json(last, ONE)
    if factor:
        assert failure["lead_coeff"] == str(factor * lead)


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
    # z_maxnorm compares Z-degree first, and the pole convention fixes the
    # top Z-degree part of every image, so both conventions print this
    (("--z-convention", convention, "certify", "--variant", "omega",
      "--degree", "16", "--truncation", "6"),
     1, "9c03a3f7ec1f98f3420aa44fe4362f3996137eb406306f2389f2fce8c187060e")
    for convention in ("same", "mixed")
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
    # neg_lex reads the X presentation, where the pole convention shows,
    # so each convention has its own report; these and the negative
    # controls below were recorded from whole images, before certify cut
    # each factor to its top block
    (("--z-convention", convention, "certify", "--variant", variant,
      "--degree", degree, "--truncation", truncation, "--order", "neg_lex"),
     1, digest)
    for convention, variant, degree, truncation, digest in (
        ("same", "omega", "12", "6", "41de5b3ce65a0febcf7af15c67fdb7ed570f141ac0818356cadf375f7cec8958"),
        ("same", "omega-lit", "12", "6", "a354be2dcae9d9e7ab7e63f49e35484cc60f0fa247259e70d96f3696b2417501"),
        ("same", "omega-alt", "12", "6", "c4d816cc2168d60a7cf2ff6d0e47a636c7e0eaa1204d6aa49fe9cc8786fa3d7d"),
        ("same", "musf", "10", "4", "7ab1fbce0cd7e10ca06656921efeb646638ec106473382ba0952a59e0b1aec12"),
        ("same", "musf-work", "10", "4", "1be4e987593ac2f164117436b640c6195fddb794104a32b5aa60a0348f2ac49b"),
        ("mixed", "omega", "12", "6", "c3f5f635132432d3deed85c524a5aa369ea9069005aa86e31c576744ff538761"),
        ("mixed", "omega-lit", "12", "6", "e69078becc360a17f692ea295bcbf57e85a2bdf14d286acaeac812b0f0a54dc2"),
        ("mixed", "omega-alt", "12", "6", "88e421d769df593e8a2393bb7b07b6f5cf90746d9a0528d78117232e86deceb2"),
        ("mixed", "musf", "10", "4", "9b01d14ce0e6073bcadd792c229b2c7a8314d92aa13ea3eaf55a64545bf205bc"),
        ("mixed", "musf-work", "10", "4", "59c4dadec04e8c262c9e3547b8d7d2eb8d5fa3c9df81b4dc4eaeb9ffa6e385b1"),
    )
] + [
    # the negative control: the copy of the last word adds one lead
    # collision, under either order
    (("certify", "--variant", variant, "--degree", "8", "--truncation", "4",
      "--order", order, "--inject-duplicate"), 1, digest)
    for order, variant, digest in (
        ("z_maxnorm", "musf", "56a8cb818c99c88a7f9c6c46626478b01e000889e02ca00f983ff5be45a23d43"),
        ("z_maxnorm", "omega", "ad85c435da247bee99f11aefb16f209f8183ad9b2e019cb0a1a6dd7cf3576d30"),
        ("neg_lex", "musf", "0d8308343c491cb52bfa9aaec93a347d2feed3bbfffa169bdf97260fc944ece4"),
        ("neg_lex", "omega", "bc739dc26d71a681940e142c4e2dbd84a8aa681477d39c047151e8140b6f4648"),
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
