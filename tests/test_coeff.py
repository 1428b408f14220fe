import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sfb
from sfb.coeff import (
    CoeffElement,
    CoeffParseError,
    aug_symbol,
    aug_symbol_key,
    cp,
    parse_coeff,
    signed_join,
    weighted,
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


def test_public_constructor_drops_zero_coefficients():
    # a zero coefficient kept in terms would print as 0 and yet not be 0
    zero = CoeffElement({0: 0})
    assert zero == 0 and zero.is_zero() and not zero
    assert zero.terms == {} and hash(zero) == hash(0) and str(zero) == "0"
    g1 = CoeffElement({**cp(1).terms, 0: 0})
    assert g1 == cp(1) and g1.terms == cp(1).terms
    assert PhiElement.const(zero).is_zero()
    assert -g1 == -cp(1) and -zero == 0


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
    with pytest.raises(ValueError):
        mixed.degree()
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


# Interns the generators of PINNED_TEXT in reverse order, g9 first, then
# checks the pinned texts: a monomial's slots follow first-seen order,
# its text must not.
REVERSED_INTERNING = """
import sys
import sfb.coeff
from sfb.coeff import aug_symbol, cp
for n in range(9, 0, -1):
    cp(n)
for j, base in ((3, "P"), (1, "Z(3,s)"), (2, "Z(2,s)"), (2, "P"),
                (1, "Z(2,s)"), (1, "Z(2,r)"), (1, "P")):
    aug_symbol(j, base)
assert sfb.coeff._SLOTS[0][:2] == (0, 9)
sys.path.insert(0, sys.argv[1])
from test_coeff import PINNED_TEXT
for build, text in PINNED_TEXT:
    assert str(build()) == text, (str(build()), text)
print("pinned")
"""


def test_pinned_text_survives_reversed_interning():
    here = Path(__file__).resolve().parent
    out = subprocess.run(
        [sys.executable, "-c", REVERSED_INTERNING, str(here)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(sfb.__file__).resolve().parents[1])),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "pinned\n"


# --- the tuple-monomial ring, an independent oracle ----------------------
# A monomial is a sorted tuple of (sort key, exponent >= 1) pairs, the
# sort key (0, n, "") for g_n and (1, deg, "A(j;base)") for A(j;base),
# and an element is a dict monomial -> nonzero int: no packing, no slots.


def _ref_key(key):
    if key[0] == "g":
        return (0, key[1], "")
    return (1, key[3], "A(%d;%s)" % (key[1], key[2]))


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    acc = dict(m1)
    for key, exp in m2:
        acc[key] = acc.get(key, 0) + exp
    return tuple(sorted(acc.items()))


def _mono_degree(mono):
    return sum((2 * key[1] if key[0] == 0 else key[1]) * exp for key, exp in mono)


def _mono_str(mono):
    factors = []
    for key, exp in mono:
        name = "g%d" % key[1] if key[0] == 0 else key[2]
        factors.append(name if exp == 1 else "%s^%d" % (name, exp))
    return "*".join(factors)


def ref_add(a, b):
    out = dict(a)
    for mono, c in b.items():
        s = out.get(mono, 0) + c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = _mono_mul(m1, m2)
            s = out.get(mono, 0) + c1 * c2
            if s:
                out[mono] = s
            else:
                del out[mono]
    return out


def ref_neg(a):
    return {m: -c for m, c in a.items()}


def ref_pow(a, n):
    out = {(): 1}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_substitute(a, assignments):
    stored = {_ref_key(key): value for key, value in assignments.items()}
    out = {}
    for mono, c in a.items():
        piece = {(): c}
        for key, exp in mono:
            value = stored.get(key)
            if value is None:
                piece = ref_mul(piece, {((key, exp),): 1})
            else:
                piece = ref_mul(piece, ref_pow(value, exp))
        out = ref_add(out, piece)
    return out


def ref_str(a):
    items = sorted(a.items(), key=lambda kv: (_mono_degree(kv[0]), kv[0]))
    return signed_join([weighted(c, _mono_str(m)) for m, c in items]) or "0"


def ref_as_int(a):
    if not a:
        return 0
    if len(a) == 1 and () in a:
        return a[()]
    return None


# four distinct bases: Z(1,V) would name the P keys again
ORACLE_KEYS = [("g", n) for n in range(1, 7)] + [
    aug_symbol_key(j, base)
    for j in (1, 2, 3)
    for base in ("P", "Z(2,s)", "Z(3,r)", "Z(4,s)")
]


def _key_degree(key):
    return 2 * key[1] if key[0] == "g" else key[3]


def _random_element(rng, keys, degree=None):
    """(packed, reference) pair of one random element over keys; with a
    degree, every term is of that degree."""
    packed, ref = CoeffElement.zero(), {}
    for _ in range(rng.randint(0, 4)):
        c = rng.randint(-3, 3)
        if degree is None:
            exps = {k: rng.randint(1, 3) for k in rng.sample(keys, rng.randint(0, 3))}
        else:
            exps, room = {}, degree
            while room:
                k = rng.choice([k for k in keys if _key_degree(k) <= room])
                exps[k] = exps.get(k, 0) + 1
                room -= _key_degree(k)
        term = CoeffElement.integer(c)
        for k, e in exps.items():
            term = term * CoeffElement.gen(k) ** e
        packed = packed + term
        mono = tuple(sorted((_ref_key(k), e) for k, e in exps.items()))
        ref = ref_add(ref, {mono: c} if c else {})
    return packed, ref


def _agrees(packed, ref):
    """packed and ref are one element: same text, and rebuilt equal."""
    rebuilt = CoeffElement.zero()
    public = {_ref_key(k): k for k in ORACLE_KEYS}
    for mono, c in ref.items():
        term = CoeffElement.integer(c)
        for key, e in mono:
            term = term * CoeffElement.gen(public[key]) ** e
        rebuilt = rebuilt + term
    return str(packed) == ref_str(ref) and packed == rebuilt


def test_packed_ring_matches_tuple_oracle():
    rng = random.Random(12)
    public = {_ref_key(k): k for k in ORACLE_KEYS}
    for _ in range(120):
        (x, rx), (y, ry) = (_random_element(rng, ORACLE_KEYS) for _ in range(2))
        assert _agrees(x, rx)
        assert _agrees(x * y, ref_mul(rx, ry))
        before = dict(x.terms)
        for n in (0, 1, -1, 7, 2**70, True):
            rn = {(): n} if n else {}
            assert _agrees(x * n, ref_mul(rx, rn))
            assert _agrees(n * x, ref_mul(rn, rx))
        assert x * 1 == x
        assert x.terms == before
        assert _agrees(x + y, ref_add(rx, ry))
        assert _agrees(x - y, ref_add(rx, ref_neg(ry)))
        assert _agrees(-x, ref_neg(rx))
        n = rng.randint(0, 5)
        assert _agrees(x ** n, ref_pow(rx, n))
        assert x.degrees() == {_mono_degree(m) for m in rx}
        for d in {0, 2, 4, 6} | x.degrees():
            assert _agrees(
                x.homogeneous_component(d),
                {m: c for m, c in rx.items() if _mono_degree(m) == d},
            )
        seen = {key for mono in rx for key, _ in mono if key[0]}
        assert x.aug_symbols() == [public[key] for key in sorted(seen)]
        assert x.has_aug_symbols() == bool(seen)
        assert x.as_int() == ref_as_int(rx)
        assert (x == y) == (rx == ry)
        for k in (-1, 0, 1, 2):
            assert (x == k) == (ref_as_int(rx) == k)
        if ref_as_int(rx) is not None:
            assert hash(x) == hash(ref_as_int(rx))
        symbols = [k for k in rng.sample(ORACLE_KEYS, 4) if k[0] == "A"]
        values = [_random_element(rng, ORACLE_KEYS[:6], k[3]) for k in symbols]
        assert _agrees(
            x.substitute({k: v for k, (v, _) in zip(symbols, values)}),
            ref_substitute(rx, {k: rv for k, (_, rv) in zip(symbols, values)}),
        )


# --- CoeffElement.total against the pairwise sum it replaced --------------

_KERNEL_RNG = random.Random(23)
# (packed, reference) pairs: constants, zero, and random polynomials
KERNEL_VALUES = [
    (CoeffElement.integer(n), {(): n} if n else {}) for n in (0, 1, -1, 3)
] + [_random_element(_KERNEL_RNG, ORACLE_KEYS) for _ in range(12)]
kernel_values = st.sampled_from(KERNEL_VALUES)
# every kind of scalar: 0, the units and other ints, constants, polynomials
kernel_scalars = st.one_of(
    st.sampled_from([0, 1, -1, 2, -7]).map(lambda n: (n, {(): n} if n else {})),
    kernel_values,
)


def _ref_pairwise(pairs):
    """sum(c * v) over the pairs, one ring operation at a time."""
    out = {}
    for (_, rv), (_, rc) in pairs:
        out = ref_add(out, ref_mul(rc, rv))
    return out


def _negated(scalar):
    c, rc = scalar
    return -c, ref_neg(rc)


@given(data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_total_matches_pairwise_sum(data):
    pairs = data.draw(st.lists(st.tuples(kernel_values, kernel_scalars), max_size=6))
    # repeat drawn pairs negated, so their contributions cancel
    for k in data.draw(st.lists(st.integers(0, max(len(pairs) - 1, 0)), max_size=3)):
        if pairs:
            v, c = pairs[k]
            pairs.append((v, _negated(c)))
    packed = [(v, c) for (v, _), (c, _) in pairs]
    before = [(dict(v.terms), c if isinstance(c, int) else dict(c.terms))
              for v, c in packed]
    out = CoeffElement.total(packed)
    assert type(out) is CoeffElement
    assert _agrees(out, _ref_pairwise(pairs))
    assert out == sum((c * v for v, c in packed), CoeffElement.zero())
    assert all(out.terms.values())
    assert [(v.terms, c if isinstance(c, int) else c.terms) for v, c in packed] == before


@pytest.mark.parametrize("cancel", [False, True], ids=["kept", "cancelled"])
def test_total_product_past_exponent_range_raises(cancel):
    # g1^(2^62) * g1^(2^62) = g1^(2^63): one past 2^63 - 1 in its slot
    big = cp(1) ** (1 << 62)
    pairs = [(big + 1, big)] + ([(big + 1, -big)] if cancel else [])
    with pytest.raises(ValueError, match="exponent of a coefficient product is too large"):
        CoeffElement.total(pairs)
    with pytest.raises(ValueError, match="too large"):
        big * big
    # a constant on either side scales and forms nothing; one short is fine
    assert CoeffElement.total([(big, 3), (CoeffElement.integer(2), big)]) == 5 * big
    short = cp(1) ** ((1 << 62) - 1)
    assert CoeffElement.total([(big, short)]) == big * short


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
        "CoeffElement.__mul__": lambda: cp(1) * 2.5,
        "CoeffElement.__rmul__": lambda: 2.5 * cp(1),
    }
    expected = ("TypeError", "cannot coerce 2.5 into the coefficient ring")
    assert {name: _raised(call) for name, call in rejects.items()} == dict.fromkeys(
        rejects, expected
    )
