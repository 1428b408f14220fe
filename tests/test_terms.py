import random

import pytest

from sfb.coeff import ONE, ZERO, cp
from sfb.engine import random_term
from sfb.terms import (
    TermParseError,
    parse_term,
    t_bar,
    t_coeff,
    t_euler,
    t_gamma,
    t_int,
    t_prod,
    t_sum,
    t_zgen,
    term_degree,
    term_degrees,
    term_text,
)


def term_canon(t: tuple) -> tuple:
    """Flatten sums and products, merge scalar factors, drop units.

    Does no ring-level rewriting; this is the shape used for parse/print
    round-trip comparison.
    """
    tag = t[0]
    if tag == "coeff":
        return t
    if tag in ("euler", "zgen"):
        return t
    if tag == "gamma":
        return ("gamma", t[1], term_canon(t[2]))
    if tag == "bar":
        return ("bar", term_canon(t[1]))
    if tag == "sum":
        parts = []
        for s in t[1]:
            s = term_canon(s)
            if s[0] == "sum":
                parts.extend(s[1])
            elif s == ("coeff", ZERO):
                continue
            else:
                parts.append(s)
        return t_sum(*parts)
    if tag == "prod":
        scalar = ONE
        parts = []
        for s in t[1]:
            s = term_canon(s)
            if s[0] == "prod":
                inner = s[1]
                if inner and inner[0][0] == "coeff":
                    scalar = scalar * inner[0][1]
                    inner = inner[1:]
                parts.extend(inner)
            elif s[0] == "coeff":
                scalar = scalar * s[1]
            else:
                parts.append(s)
        if scalar.is_zero():
            return ("coeff", ZERO)
        if scalar == ONE:
            return t_prod(*parts)
        return t_prod(("coeff", scalar), *parts)
    raise ValueError("unknown term tag %r" % (tag,))


def test_constructor_conventions():
    assert t_sum() == t_int(0)
    assert t_prod() == t_int(1)
    x = t_euler("r")
    assert t_sum(x) == x
    assert t_prod(x) == x
    with pytest.raises(ValueError):
        t_zgen(0, "r")
    with pytest.raises(ValueError):
        t_euler("q")


def test_degrees():
    assert term_degree(t_euler("r")) == -2
    assert term_degree(t_zgen(3, "s")) == 6
    assert term_degree(t_gamma("r", t_euler("s"))) == 0
    assert term_degree(t_bar(t_zgen(2, "r"))) == 4
    assert term_degree(t_coeff(cp(2))) == 4
    assert term_degree(t_prod(t_euler("r"), t_zgen(2, "r"))) == 2
    mixed = t_sum(t_euler("r"), t_zgen(1, "r"))
    assert term_degrees(mixed) == {-2, 2}
    with pytest.raises(ValueError):
        term_degree(mixed)
    assert term_degree(t_int(0)) is None
    assert term_degrees(t_int(0)) == set()


def test_gamma_raises_degree_by_two():
    for t in (t_euler("r"), t_zgen(4, "s"), t_prod(t_euler("s"), t_euler("s"))):
        for fl in "rs":
            assert term_degree(t_gamma(fl, t)) == term_degree(t) + 2


def test_canon_merges_scalars():
    a = t_prod(t_int(2), t_euler("r"), t_int(3))
    b = t_prod(t_int(6), t_euler("r"))
    assert term_canon(a) == term_canon(b)
    # nested sums and products flatten
    c = t_sum(t_euler("r"), t_sum(t_euler("s"), t_euler("r")))
    d = t_sum(t_euler("r"), t_euler("s"), t_euler("r"))
    assert term_canon(c) == term_canon(d)
    assert term_canon(t_prod(t_int(1), t_euler("r"))) == term_canon(t_euler("r"))


def test_printed_forms():
    assert term_text(t_gamma("r", t_euler("s"))) == "G_r(e_s)"
    assert term_text(t_gamma("s", t_zgen(2, "r"))) == "G_s(Z(2,r))"
    assert term_text(t_bar(t_euler("r"))) == "bar(e_r)"
    assert term_text(t_int(0)) == "0"
    assert term_text(t_sum(t_euler("r"), t_prod(t_int(-1), t_int(-2)))) == "e_r - (-2)"
    assert "sigma(" in term_text(t_coeff(cp(1) + 2))


def test_parse_basics():
    assert term_canon(parse_term("e_r")) == term_canon(t_euler("r"))
    assert term_canon(parse_term("G_s(G_r(e_s))")) == term_canon(
        t_gamma("s", t_gamma("r", t_euler("s")))
    )
    assert term_canon(parse_term("2*Z(3,s) - e_r")) == term_canon(
        t_sum(t_prod(t_int(2), t_zgen(3, "s")), t_prod(t_int(-1), t_euler("r")))
    )
    assert term_canon(parse_term("sigma(g1 + 2)*e_r")) == term_canon(
        t_prod(t_coeff(cp(1) + 2), t_euler("r"))
    )


def test_power_sugar():
    assert term_canon(parse_term("e_r^3")) == term_canon(
        t_prod(t_euler("r"), t_euler("r"), t_euler("r"))
    )
    assert term_canon(parse_term("e_r^1")) == term_canon(t_euler("r"))
    assert term_canon(parse_term("G_r(e_s)^2")) == term_canon(
        t_prod(t_gamma("r", t_euler("s")), t_gamma("r", t_euler("s")))
    )
    with pytest.raises(TermParseError):
        parse_term("e_r^-1")


def test_parse_errors():
    for bad in ("", "G_r(", "e_q", "Z(2)", "Z(0,r)", "bar", "e_r e_s", "(e_r"):
        with pytest.raises(TermParseError):
            parse_term(bad)


def test_print_parse_round_trip_random():
    rng = random.Random(11)
    for _ in range(20_000):
        t = random_term(rng, depth=3, max_z=5)
        again = parse_term(term_text(t))
        assert term_canon(again) == term_canon(t), term_text(t)
