
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfb.coeff import CoeffElement, aug_symbol, aug_symbol_key, cp, parse_coeff
from sfb.engine import _leading
from sfb.phi import (
    PhiElement,
    ZElement,
    from_z_basis,
    mono,
    neg_lex_key,
    to_z_basis,
    z_gen,
    z_maxnorm_key,
)


def test_degrees():
    assert PhiElement.euler("r").degree() == -2
    assert PhiElement.euler("s", -3).degree() == 6
    assert PhiElement.x_gen(2, "r").degree() == 6
    assert z_gen(1, "r").degree() == 2
    assert z_gen(4, "s").degree() == 8
    assert PhiElement.one().degree() == 0
    assert PhiElement.zero().degree() is None


def test_arithmetic():
    er = PhiElement.euler("r")
    es = PhiElement.euler("s")
    assert er * PhiElement.euler("r", -1) == PhiElement.one()
    assert (er + es) - es == er
    assert (er + es) ** 2 == er * er + (er * es).scale(2) + es * es
    assert er.scale(0).is_zero()
    assert er.scale(cp(1)) == PhiElement.const(cp(1)) * er


def test_f_membership_and_projection():
    inside = PhiElement.euler("r", -2) * PhiElement.x_gen(1, "s")
    outside = PhiElement.euler("r", 1)
    assert inside.project_C().is_zero()
    assert not outside.project_C().is_zero()
    both = inside + outside
    assert not both.project_C().is_zero()
    assert both.project_C() == outside
    # constants live inside
    assert PhiElement.const(cp(2)).project_C().is_zero()


def test_z_gen_conventions():
    # the sphere class has the same image under both conventions
    assert z_gen(1, "r") == z_gen(1, "s")
    assert z_gen(1, "r") == PhiElement.euler("r", -1) + PhiElement.euler("s", -1)
    same = z_gen(3, "r", "same")
    mixed = z_gen(3, "r", "mixed")
    assert same == PhiElement.x_gen(2, "r") + PhiElement.euler("r", -3)
    assert mixed == PhiElement.x_gen(2, "r") + PhiElement.euler("s", -3)
    with pytest.raises(ValueError):
        z_gen(0, "r")


def test_substitute_and_symbols():
    p = PhiElement.euler("r", -1).scale(aug_symbol(1, "P")) + PhiElement.one()
    assert p.has_aug_symbols()
    assert p.aug_symbols() == [aug_symbol_key(1, "P")]
    q = p.substitute({aug_symbol_key(1, "P"): 2 * cp(1) ** 2})
    assert not q.has_aug_symbols()
    assert q == PhiElement.euler("r", -1).scale(2 * cp(1) ** 2) + PhiElement.one()
    # the ring orders the symbols: by degree, then by name, so A(10;P)
    # comes before A(2;Z(9,r))
    c = parse_coeff("A(10;P) + A(2;Z(9,r))")
    assert PhiElement.const(c).aug_symbols() == c.aug_symbols()


def test_str_forms():
    assert str(PhiElement.zero()) == "0"
    assert str(PhiElement.one()) == "1"
    assert str(PhiElement.euler("r", -1) + PhiElement.euler("s", -1)) in (
        "e_r^-1 + e_s^-1",
        "e_s^-1 + e_r^-1",
    )
    assert "X(2,s)" in str(PhiElement.x_gen(2, "s"))


def _phi_strategy():
    monos = st.tuples(
        st.integers(min_value=-3, max_value=2),
        st.integers(min_value=-3, max_value=2),
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=4), st.sampled_from("rs")),
            max_size=2,
        ).map(tuple),
    )
    coeffs = st.sampled_from(
        [cp(1), cp(2), aug_symbol(1, "P"), cp(1) + 1, 3 * cp(1) - cp(2)]
    )

    def build(pairs):
        acc = PhiElement.zero()
        for (a, b, xs), c in pairs:
            acc = acc + PhiElement({mono(a, b, xs): cp(0)}).scale(c)
        return acc

    return st.lists(st.tuples(monos, coeffs), max_size=4).map(build)


def _reference_product(x, y):
    """The generic Laurent product: every pair of terms through the
    coefficient ring, sums accumulated, zero sums dropped."""
    out = {}
    for (a1, b1, xs1), c1 in x.terms.items():
        for (a2, b2, xs2), c2 in y.terms.items():
            m = (a1 + a2, b1 + b2, tuple(sorted(xs1 + xs2)))
            v = out.get(m, 0) + c1 * c2
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return type(x)(out)


def _laurent_strategy(cls):
    """Elements of cls with up to four terms: unit coefficients over a few
    monomials, so that sums cancel, or integer coefficients, negatives
    included, g's and A-symbols over more; one-term operands and zero are
    among them."""
    low = 2 if cls is ZElement else 1

    def monos(lo, hi, gens):
        return st.tuples(
            st.integers(min_value=lo, max_value=hi),
            st.integers(min_value=lo, max_value=hi),
            st.lists(gens, max_size=hi - lo).map(lambda xs: tuple(sorted(xs))),
        )

    few = monos(-1, 0, st.just((low, "r")))
    many = monos(-2, 1, st.tuples(st.sampled_from([low, low + 1]), st.sampled_from("rs")))
    units = st.sampled_from([1, -1]).map(CoeffElement.integer)
    symbolic = st.sampled_from(
        [cp(1), aug_symbol(1, "P"), cp(1) - aug_symbol(1, "P"), 2 * cp(2) + 1]
    )
    values = st.one_of(st.sampled_from([1, -1, 2, -3]).map(CoeffElement.integer), symbolic)
    return st.one_of(
        st.dictionaries(few, units, min_size=2, max_size=4),
        st.dictionaries(many, values, max_size=4),
    ).map(cls)


@pytest.mark.parametrize("cls", [PhiElement, ZElement])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_product_matches_generic_double_loop(cls, data):
    x = data.draw(_laurent_strategy(cls))
    y = data.draw(_laurent_strategy(cls))
    product = x * y
    assert type(product) is cls
    assert product == _reference_product(x, y)
    assert all(product.terms.values())


def test_integer_product_drops_cancelled_terms():
    # (e_r^-1 + e_s^-1)(e_r^-1 - e_s^-1): the two cross terms cancel
    plus = PhiElement.euler("r", -1) + PhiElement.euler("s", -1)
    minus = PhiElement.euler("r", -1) - PhiElement.euler("s", -1)
    product = plus * minus
    assert product.terms == {mono(-2, 0): 1, mono(0, -2): -1}
    assert product == _reference_product(plus, minus)
    assert (plus * PhiElement.zero()).is_zero() and (PhiElement.zero() * minus).is_zero()


@given(_phi_strategy())
@settings(max_examples=150, deadline=None)
def test_z_presentation_round_trip(p):
    assert from_z_basis(to_z_basis(p)) == p


def test_z_presentation_text_is_pinned():
    # mixed X/pole element; both texts were recorded before PhiElement and
    # ZElement shared their algebra and monomial renderer
    p = (
        PhiElement({mono(-1, 0, [(1, "r"), (2, "s")]): cp(1)})
        + PhiElement({mono(0, 2): CoeffElement.integer(3)})
        + PhiElement({mono(0, -1, [(1, "s")]): cp(2) - aug_symbol(1, "P")})
        - PhiElement.x_gen(2, "r")
    )
    assert str(p) == (
        "g1*e_r^-1*X(1,r)*X(2,s) + (g2 - A(1;P))*e_s^-1*X(1,s) - X(2,r) + 3*e_s^2"
    )
    z = to_z_basis(p)
    assert str(z) == (
        "g1*e_r^-3*e_s^-3 + e_r^-3 - g1*e_r^-3*Z(3,s) - g1*e_r^-1*e_s^-3*Z(2,r)"
        " + g1*e_r^-1*Z(2,r)*Z(3,s) + (-g2 + A(1;P))*e_s^-3"
        " + (g2 - A(1;P))*e_s^-1*Z(2,s) - Z(3,r) + 3*e_s^2"
    )
    assert repr(p) == "PhiElement(%s)" % p
    assert repr(z) == "ZElement(%s)" % z
    assert repr(to_z_basis(z_gen(2, "s"))) == "ZElement(Z(2,s))"
    # Z(n,V) has degree 2n, X(n,V) degree 2n + 2
    assert z.degrees() == p.degrees() == {-4, 6, 10, 14}
    assert not hasattr(z, "to_json")


def test_z_presentation_of_generators():
    # under the "same" convention the degree-2n class is a single
    # Z-monomial; the n = 1 class stays a pair of Euler poles
    for n in range(2, 6):
        for fl in "rs":
            z = to_z_basis(z_gen(n, fl))
            ((zm, c),) = z.terms.items()
            assert zm == (0, 0, ((n, fl),))
            assert c == 1
    z1 = to_z_basis(z_gen(1, "r"))
    assert set(z1.terms) == {(-1, 0, ()), (0, -1, ())}


def test_leading_term_orders():
    p = z_gen(2, "r")  # X(1,r) + e_r^-2
    (tag, lead_mono), lead_coeff = _leading(p, "x", neg_lex_key)
    assert tag == "x" and lead_coeff == 1
    # deeper poles dominate under the (-a, -b, xs) order
    assert lead_mono == mono(-2, 0, ())
    z = to_z_basis(p)
    zlead = max(z.terms, key=z_maxnorm_key)
    assert z.terms[zlead] == 1
    assert _leading(PhiElement.zero(), "x", neg_lex_key) is None
