
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfb.coeff import CoeffElement, aug_symbol, aug_symbol_key, cp
from sfb.phi import (
    PhiElement,
    from_z_basis,
    leading_term,
    mono,
    neg_lex_key,
    to_z_basis,
    z_gen,
    z_maxnorm_key,
)


def test_mono_folds_trivial_twist():
    # X with index 0 is just an inverse Euler class
    assert mono(0, 0, ((0, "r"),)) == mono(-1, 0, ())
    assert mono(0, 0, ((0, "s"), (0, "s"))) == mono(0, -2, ())
    assert mono(1, 0, ((0, "r"), (2, "s"))) == mono(0, 0, ((2, "s"),))


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


def test_homogeneous_component():
    p = PhiElement.euler("r", -1) + PhiElement.euler("s", -2)
    assert p.homogeneous_component(2) == PhiElement.euler("r", -1)
    assert p.homogeneous_component(4) == PhiElement.euler("s", -2)
    assert p.homogeneous_component(6).is_zero()
    assert not p.is_homogeneous()
    with pytest.warns(UserWarning):
        p.homogeneous_component(3)


def test_f_membership_and_projection():
    inside = PhiElement.euler("r", -2) * PhiElement.x_gen(1, "s")
    outside = PhiElement.euler("r", 1)
    assert inside.is_in_F()
    assert not outside.is_in_F()
    both = inside + outside
    assert not both.is_in_F()
    assert both.project_C() == outside
    assert inside.project_C().is_zero()
    # constants live inside
    assert PhiElement.const(cp(2)).is_in_F()


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
    assert not hasattr(z, "is_in_F") and not hasattr(z, "to_json")


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
    lead_mono, lead_coeff = leading_term(p, neg_lex_key)
    assert lead_coeff == 1
    # deeper poles dominate under the (-a, -b, xs) order
    assert lead_mono == mono(-2, 0, ())
    z = to_z_basis(p)
    zlead = max(z.terms, key=z_maxnorm_key)
    assert z.terms[zlead] == 1
    assert leading_term(PhiElement.zero(), neg_lex_key) is None
