"""``Combination.total``, the accumulation kernel of every combination,
which sums each key's coefficient with the coefficient ring's one
multiply-accumulate step (``coeff._add_product``), against the per-term
loops it replaced: ``add_scaled`` and the generic pair loop of the
Laurent product, kept here as they were."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfb.coeff import CoeffElement, aug_symbol, cp
from sfb.engine import E_R, E_S, P_BM, UNIT, NormalForm
from sfb.phi import PhiElement, ZElement, mono, mono_mul
from sfb.terms import t_zgen


def _reference_add_scaled(self, other, c):
    """self += c * other, in place; c is a CoeffElement or an int."""
    unit = (c if isinstance(c, int) else c.as_int()) == 1
    acc = self.terms
    for k, v in other.terms.items():
        if not unit:
            v = c * v
        s = acc.get(k)
        if s is not None:
            v = s + v
        if v.terms:
            acc[k] = v
        else:
            acc.pop(k, None)


def _reference_total(cls, pairs):
    out = cls()
    for x, c in pairs:
        _reference_add_scaled(out, x, c)
    return out


def _reference_pair_loop(self, other):
    """The product's generic branch: every pair through the ring."""
    a, b = self.terms, other.terms
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            v = c1 * c2
            s = out.get(m)
            if s is not None:
                v = s + v
            if v.terms:
                out[m] = v
            else:
                out.pop(m, None)
    return self._of(out)


# a few keys per class, so that contributions meet and cancel
KEYS = {
    PhiElement: [mono(0, 0), mono(-1, 0), mono(0, -2), mono(1, 0, [(2, "s")])],
    ZElement: [(0, 0, ()), (-1, 0, ()), (0, -3, ()), (1, 0, ((2, "r"),))],
    NormalForm: [UNIT, P_BM, (0, 1, E_R, ()), (1, 0, E_S, (t_zgen(2, "r"),))],
}
POLYNOMIALS = [
    cp(1), cp(2), -cp(1), aug_symbol(1, "P"), aug_symbol(2, "Z(3,r)"),
    cp(1) - aug_symbol(1, "P"), 2 * cp(2) + 1, cp(1) * aug_symbol(1, "Z(2,s)") - 3,
]
constants = st.sampled_from([1, -1, 2, -3, 5]).map(CoeffElement.integer)
values = st.one_of(constants, st.sampled_from(POLYNOMIALS))
# every kind of scalar: 0 and the units as ints and as constants, other
# ints and constants, and polynomials
scalars = st.one_of(
    st.sampled_from([0, 1, -1, 2, -7]),
    st.sampled_from([0, 1, -1, 4]).map(CoeffElement.integer),
    st.sampled_from(POLYNOMIALS),
)


def _pairs(cls):
    elements = st.dictionaries(st.sampled_from(KEYS[cls]), values, max_size=4).map(cls)

    def cancel(pairs_and_flag):
        # repeat a drawn pair negated, so its contribution cancels
        pairs, flag = pairs_and_flag
        return pairs + [(pairs[0][0], -pairs[0][1])] if pairs and flag else pairs

    return st.tuples(
        st.lists(st.tuples(elements, scalars), max_size=5), st.booleans()
    ).map(cancel)


def _stored_nonzero(x):
    return all(c.terms and all(c.terms.values()) for c in x.terms.values())


@pytest.mark.parametrize("cls", [PhiElement, ZElement, NormalForm])
@given(data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_total_matches_per_term_loop(cls, data):
    pairs = data.draw(_pairs(cls))
    before = [(dict(x.terms), c) for x, c in pairs]
    out = cls.total(pairs)
    assert type(out) is cls
    assert out == _reference_total(cls, pairs)
    assert _stored_nonzero(out)
    # the kernel shares coefficients, but never changes an input
    assert [(x.terms, c) for x, c in pairs] == before
    if pairs:
        (x, c), (y, _) = pairs[0], pairs[-1]
        for got, want in (
            (x + y, _reference_total(cls, [(x, 1), (y, 1)])),
            (x - y, _reference_total(cls, [(x, 1), (y, -1)])),
            (y.scale(c), _reference_total(cls, [(y, c)])),
        ):
            assert got == want and _stored_nonzero(got)
        if cls is not NormalForm:
            product = x * y
            assert product == _reference_pair_loop(x, y)
            assert _stored_nonzero(product)


def test_sums_that_cancel_store_nothing():
    x = PhiElement({mono(0, 0): cp(1) + 1, mono(-1, 0): aug_symbol(1, "P")})
    assert PhiElement.total([(x, cp(2)), (x, -cp(2))]).terms == {}
    assert PhiElement.total([(x, 1), (x.scale(-1), 1)]).terms == {}
    # (g1 + 1) * g1 - g1: the constant side's g1 cancels, g1^2 stays
    part = PhiElement.total([(x, cp(1)), (PhiElement({mono(0, 0): cp(1)}), -1)])
    assert part.terms[mono(0, 0)] == cp(1) * cp(1)


@pytest.mark.parametrize("cancel", [False, True], ids=["kept", "cancelled"])
def test_accumulated_product_past_exponent_range_raises(cancel):
    # g1^(2^62) * g1^(2^62) = g1^(2^63): one past 2^63 - 1 in its slot
    big = cp(1) ** (1 << 62)
    x = PhiElement({mono(0, 0): big + 1, mono(-1, 0): cp(2)})
    pairs = [(x, big)] + ([(x, -big)] if cancel else [])
    with pytest.raises(ValueError, match="exponent of a coefficient product is too large"):
        PhiElement.total(pairs)
    with pytest.raises(ValueError, match="too large"):
        _reference_total(PhiElement, pairs)
    with pytest.raises(ValueError, match="too large"):
        x * PhiElement({mono(0, 0): big, mono(0, -1): cp(1)})
    # one short of the range is fine
    assert PhiElement.total([(x, cp(1) ** ((1 << 62) - 1))]) == _reference_total(
        PhiElement, [(x, cp(1) ** ((1 << 62) - 1))]
    )
