import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfb.coeff import (
    CoeffElement,
    CoeffParseError,
    aug_symbol,
    aug_symbol_key,
    cp,
    parse_coeff,
)
from sfb.engine import UNIT, NormalForm
from sfb.manifold import m_pc
from sfb.phi import PhiElement, mono, z_gen
from sfb.terms import t_coeff, t_euler, t_gamma, t_int, t_zgen


@pytest.mark.parametrize("n", (-2, 0, 1, 3))
def test_constant_hashes_as_its_int(n):
    # a constant compares equal to its int, so sets and dicts must agree
    c = CoeffElement.integer(n)
    assert c == n and hash(c) == hash(n)
    assert c in {n} and n in {c}
    assert {c: "c"}[n] == "c"
    assert hash(c + cp(1) - cp(1)) == hash(n)


def test_zero_and_one():
    z = CoeffElement.zero()
    one = CoeffElement.integer(1)
    assert z.is_zero()
    assert not one.is_zero()
    assert one + z == one
    assert one * z == z
    assert str(z) == "0"
    assert str(one) == "1"


def test_ring_axioms_spot():
    a = cp(1) + 2
    b = cp(2) - cp(1)
    c = aug_symbol(1, "P")
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - a == 0
    assert a * 0 == CoeffElement.zero()


def test_int_coercion():
    assert cp(1) + 1 == 1 + cp(1)
    assert 2 * cp(1) == cp(1) + cp(1)
    assert cp(1) - cp(1) == 0
    assert CoeffElement.integer(5).as_int() == 5
    assert (cp(1) + 1).as_int() is None


def test_power():
    g = cp(1)
    assert g ** 0 == 1
    assert g ** 3 == g * g * g
    with pytest.raises(ValueError):
        g ** -1


def test_grading():
    assert cp(3).degree() == 6
    assert aug_symbol(2, "P").degree() == 2 * 2 + 2
    assert aug_symbol(1, "Z(3,s)").degree() == 2 + 6
    mixed = cp(1) + cp(2)
    assert not mixed.is_homogeneous()
    assert mixed.degrees() == {2, 4}
    assert mixed.homogeneous_component(2) == cp(1)
    assert mixed.homogeneous_component(4) == cp(2)
    assert mixed.homogeneous_component(6).is_zero()
    assert CoeffElement.integer(7).degree() == 0
    assert CoeffElement.zero().degree() is None


def test_aug_symbol_keys():
    k = aug_symbol_key(2, "Z(3,r)")
    assert k == ("A", 2, "Z(3,r)", 10)
    with pytest.raises(ValueError):
        aug_symbol_key(0, "P")
    with pytest.raises(ValueError):
        aug_symbol_key(1, "Q")
    with pytest.raises(ValueError):
        aug_symbol_key(1, "Z(0,r)")


def test_aug_symbol_bookkeeping():
    c = 2 * cp(1) * aug_symbol(1, "P") + cp(2)
    assert c.has_aug_symbols()
    assert c.aug_symbols() == [aug_symbol_key(1, "P")]
    assert not cp(2).has_aug_symbols()


def test_substitute():
    c = cp(1) ** 2 + aug_symbol(1, "P")
    out = c.substitute({aug_symbol_key(1, "P"): 2 * cp(1) ** 2})
    assert out == 3 * cp(1) ** 2
    # squared symbols substitute as squared values
    c2 = aug_symbol(1, "P") ** 2
    assert c2.substitute({aug_symbol_key(1, "P"): cp(1) ** 2}) == cp(1) ** 4
    # zero is always an allowed value
    assert c.substitute({aug_symbol_key(1, "P"): 0}) == cp(1) ** 2


def test_substitute_guards():
    with pytest.raises(ValueError):
        cp(1).substitute({("g", 1): cp(2)})
    with pytest.raises(ValueError):
        # degree 4 symbol, degree 2 value
        aug_symbol(1, "P").substitute({aug_symbol_key(1, "P"): cp(1)})


def test_parse_basics():
    assert parse_coeff("0") == 0
    assert parse_coeff("-3") == -3
    assert parse_coeff("g2") == cp(2)
    assert parse_coeff("2*g1^2 - g2") == 2 * cp(1) ** 2 - cp(2)
    assert parse_coeff("A(1;P)") == aug_symbol(1, "P")
    assert parse_coeff("A(2;Z(3,s))") == aug_symbol(2, "Z(3,s)")
    assert parse_coeff("(g1 + 1)*(g1 - 1)") == cp(1) ** 2 - 1


def test_parse_errors():
    for bad in ("", "g", "g0", "A(0;P)", "A(1;Q)", "2*", "g1 +", "(g1", "g1)"):
        with pytest.raises(CoeffParseError):
            parse_coeff(bad)


def _gen_strategy():
    gens = st.sampled_from(
        [cp(1), cp(2), cp(3), aug_symbol(1, "P"), aug_symbol(2, "Z(2,r)")]
    )
    ints = st.integers(min_value=-4, max_value=4)

    def term(g, e, c):
        return g ** e * c

    terms = st.builds(term, gens, st.integers(min_value=0, max_value=3), ints)
    return st.lists(terms, min_size=0, max_size=5).map(
        lambda ts: sum(ts, CoeffElement.zero())
    )


@given(_gen_strategy())
@settings(max_examples=150, deadline=None)
def test_print_parse_round_trip(c):
    assert parse_coeff(str(c)) == c


# text of mixed g/A products, as printed before generators were interned
PINNED_TEXT = (
    (
        lambda: aug_symbol(2, "P") * cp(2) * aug_symbol(1, "Z(2,r)") * cp(1) ** 3,
        "g1^3*g2*A(1;Z(2,r))*A(2;P)",
    ),
    (
        lambda: 3 * aug_symbol(1, "Z(3,s)") * cp(1)
        - 2 * aug_symbol(2, "P") ** 2 * cp(2)
        + aug_symbol(1, "P") * cp(3)
        + aug_symbol(1, "Z(2,r)") * aug_symbol(1, "Z(2,s)")
        - 5,
        "-5 + 3*g1*A(1;Z(3,s)) + g3*A(1;P) + A(1;Z(2,r))*A(1;Z(2,s))"
        " - 2*g2*A(2;P)^2",
    ),
    (
        lambda: (cp(1) + aug_symbol(1, "P")) ** 3 - aug_symbol(2, "Z(2,s)") * cp(2),
        "g1^3 + 3*g1^2*A(1;P) + 3*g1*A(1;P)^2 - g2*A(2;Z(2,s)) + A(1;P)^3",
    ),
    (
        # A's order by degree before name: A(2;P) (degree 6) < A(1;Z(3,s))
        lambda: aug_symbol(1, "Z(3,s)") * aug_symbol(2, "P") * cp(1)
        + cp(4) * aug_symbol(1, "Z(2,s)") ** 2
        - aug_symbol(3, "P") * cp(2) ** 3,
        "g1*A(2;P)*A(1;Z(3,s)) - g2^3*A(3;P) + g4*A(1;Z(2,s))^2",
    ),
)


def test_mixed_product_text_is_pinned():
    for build, text in PINNED_TEXT:
        x = build()
        assert str(x) == text
        assert parse_coeff(str(x)) == x


def test_public_keys_survive_interning():
    x = PINNED_TEXT[1][0]()
    assert x.aug_symbols() == [
        ("A", 1, "P", 4),
        ("A", 1, "Z(2,r)", 6),
        ("A", 1, "Z(2,s)", 6),
        ("A", 2, "P", 6),
        ("A", 1, "Z(3,s)", 8),
    ]
    assert CoeffElement.gen(("g", 2)) == cp(2)
    assert CoeffElement.gen(("A", 2, "P", 6)) == aug_symbol(2, "P")
    out = x.substitute({("A", 2, "P", 6): cp(3), aug_symbol_key(1, "Z(3,s)"): 0})
    assert str(out) == "-5 + g3*A(1;P) + A(1;Z(2,r))*A(1;Z(2,s)) - 2*g2*g3^2"
    assert parse_coeff(str(out)) == out


def _raised(call):
    """(exception type name, message) of call(), or None if it returns."""
    try:
        call()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return None


def test_every_constructor_checks_flavor_with_one_message():
    rejects = {
        "t_euler": lambda: t_euler("q"),
        "t_zgen": lambda: t_zgen(2, "q"),
        "t_gamma": lambda: t_gamma("q", t_int(1)),
        "m_pc": lambda: m_pc(2, "q"),
        "PhiElement.euler": lambda: PhiElement.euler("q"),
        "z_gen": lambda: z_gen(2, "q"),
        "mono": lambda: mono(0, 0, [(1, "q")]),
    }
    expected = ("ValueError", "flavor must be 'r' or 's', got 'q'")
    assert {name: _raised(call) for name, call in rejects.items()} == dict.fromkeys(
        rejects, expected
    )


def test_every_constructor_coerces_coefficients_alike():
    two = CoeffElement.integer(2)
    assert t_coeff(2) == ("coeff", two)
    assert NormalForm.of(UNIT, 2) == NormalForm({UNIT: two})
    assert PhiElement.const(2) == PhiElement.one().scale(two)
    rejects = {
        "t_coeff": lambda: t_coeff(2.5),
        "NormalForm.of": lambda: NormalForm.of(UNIT, 2.5),
        "PhiElement.const": lambda: PhiElement.const(2.5),
        "PhiElement.scale": lambda: PhiElement.one().scale(2.5),
    }
    expected = ("TypeError", "cannot coerce 2.5 into the coefficient ring")
    assert {name: _raised(call) for name, call in rejects.items()} == dict.fromkeys(
        rejects, expected
    )
