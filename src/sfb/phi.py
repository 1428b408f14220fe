"""Laurent-polynomial arithmetic for localized fixed-point data.

A monomial is (a, b, xs): integer exponents of the two Euler classes
e_r, e_s plus a multiset of X-generators X(n, flavor) with n >= 1.
X(0, V) is not stored; it means e_V^-1.  Coefficients live in the
graded ring from :mod:`sfb.coeff`.

Degrees: e_V has degree -2, X(n,V) has degree 2n + 2, so a monomial
has degree -2a - 2b + sum(2n + 2).

Two presentations are supported.  Storage is the X-presentation, where
the geometric subring F (no positive Euler powers) and its complement
are monomial-local.  The Z-presentation replaces X(n,V) by
Z(n+1,V) - e_V^-(n+1); it is the convenient view for leading-term
certification.

``Combination`` holds the sparse key -> coefficient algebra that both
presentations share with the engine's normal forms.
"""

from __future__ import annotations

import warnings
from math import prod

from .coeff import (
    CoeffElement, ONE, Sparse, check_exponents, check_flavor, coerce, signed_join, weighted,
)


Flavor = str  # 'r' or 's'
_UNIT_TERMS = ONE.terms


def mono(a: int, b: int, xs=()) -> tuple:
    """Build a monomial key; X(0,V) entries fold into Euler exponents."""
    ea, eb = a, b
    kept = []
    for n, flavor in xs:
        check_flavor(flavor)
        if n < 0:
            raise ValueError("X index must be >= 0")
        if n == 0:
            if flavor == "r":
                ea -= 1
            else:
                eb -= 1
        else:
            kept.append((n, flavor))
    return (ea, eb, tuple(sorted(kept)))


def euler_mono(flavor: Flavor, k: int) -> tuple:
    """The monomial e_V^k."""
    return (k, 0, ()) if check_flavor(flavor) == "r" else (0, k, ())


def mono_mul(m1: tuple, m2: tuple) -> tuple:
    x1, x2 = m1[2], m2[2]
    xs = tuple(sorted(x1 + x2)) if x1 and x2 else x1 or x2
    return (m1[0] + m2[0], m1[1] + m2[1], xs)


def mono_degree(m: tuple) -> int:
    return -2 * m[0] - 2 * m[1] + sum(2 * n + 2 for n, _ in m[2])


class Combination(Sparse):
    """Sparse map key -> nonzero CoeffElement, the algebra shared by the
    localized images and the normal forms.

    Subclasses name their key degree in ``_key_degree``.  ``total`` is
    the one accumulation kernel: sums, scalings, the Laurent product and
    ``add_scaled``, the only method that changes an instance, go through
    it.  Every other operation returns a new instance.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for k, c in dict(terms).items():
                if c.terms:
                    self.terms[k] = c

    def add_scaled(self, other, c):
        """self += c * other, in place; c is a CoeffElement or an int."""
        self.terms = self.total(((self, 1), (other, c))).terms

    @classmethod
    def total(cls, pairs):
        """The sum of c * x over the (x, c) pairs, c a CoeffElement or an
        int.  Each key's coefficient is summed as a raw {packed monomial:
        int} dict and wrapped once.  Where c * v is v itself (c = 1) or c
        itself (v = 1), the key shares that CoeffElement until a second
        contribution reaches it.  Where c or v is another constant, it
        scales the other side's values and keeps its monomials: only a
        product of two polynomials forms monomials, and those pass the
        ring's exponent guard."""
        acc = {}  # key -> a shared CoeffElement, or a raw dict
        raw = []  # the keys whose value is a raw dict
        formed = False
        for x, c in pairs:
            n = c if isinstance(c, int) else c.as_int()
            if n == 0:
                continue
            for k, v in x.terms.items():
                s = acc.get(k)
                if s is None:
                    if n == 1:
                        acc[k] = v
                        continue
                    if n is None and v.terms == _UNIT_TERMS:
                        acc[k] = c
                        continue
                    s = acc[k] = {}
                    raw.append(k)
                elif type(s) is not dict:
                    s = acc[k] = dict(s.terms)
                    raw.append(k)
                vt = v.terms
                if n is not None:
                    for m, a in vt.items():
                        s[m] = s.get(m, 0) + n * a
                elif len(vt) == 1 and 0 in vt:
                    b = vt[0]
                    for m, a in c.terms.items():
                        s[m] = s.get(m, 0) + a * b
                else:
                    formed = True
                    for m1, a in c.terms.items():
                        for m2, b in vt.items():
                            m = m1 + m2
                            s[m] = s.get(m, 0) + a * b
        # zero sums stay in the raw dicts until here, so every monomial a
        # product formed is checked, cancelled or not
        for k in raw:
            s = acc[k]
            if formed:
                check_exponents(s)
            if 0 in s.values():
                s = {m: a for m, a in s.items() if a}
            if s:
                acc[k] = CoeffElement._of(s)
            else:
                del acc[k]
        return cls._of(acc)

    def __add__(self, other):
        return self.total(((self, 1), (other, 1)))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return self.total(((self, coerce(c)),))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    # defining __eq__ unbinds the inherited hash
    __hash__ = Sparse.__hash__

    def degrees(self) -> set:
        out = set()
        for k, c in self.terms.items():
            kd = self._key_degree(k)
            out.update(kd + cd for cd in c.degrees())
        return out

    # --- A-symbols ----------------------------------------------------------

    def aug_symbols(self) -> list:
        """The symbols of every coefficient, named and ordered by the ring."""
        monos = (m for c in self.terms.values() for m in c.terms)
        return CoeffElement(dict.fromkeys(monos, 1)).aug_symbols()

    def has_aug_symbols(self) -> bool:
        return any(c.has_aug_symbols() for c in self.terms.values())

    def substitute(self, assignments: dict):
        return type(self)(
            {k: c.substitute(assignments) for k, c in self.terms.items()}
        )


class PhiElement(Combination):
    """Laurent polynomial in e_r, e_s and the X-generators."""

    __slots__ = ()
    _letter = "X"
    _key_degree = staticmethod(mono_degree)

    # The per-layer tracer of the bench harness wraps these operators in
    # this class's own namespace, so the inherited ones are bound here.
    __add__ = Combination.__add__
    __neg__ = Combination.__neg__
    __sub__ = Combination.__sub__
    __pow__ = Combination.__pow__
    scale = Combination.scale

    # --- constructors ---------------------------------------------------

    @staticmethod
    def one() -> "PhiElement":
        return PhiElement({mono(0, 0): ONE})

    @staticmethod
    def const(c) -> "PhiElement":
        return PhiElement({mono(0, 0): coerce(c)})

    @staticmethod
    def euler(flavor: Flavor, exp: int = 1) -> "PhiElement":
        return PhiElement({euler_mono(flavor, exp): ONE})

    @staticmethod
    def x_gen(n: int, flavor: Flavor) -> "PhiElement":
        if n < 1:
            raise ValueError("X-generator index must be >= 1")
        return PhiElement({mono(0, 0, [(n, flavor)]): ONE})

    # --- ring structure ---------------------------------------------------

    def __mul__(self, other):
        """The Laurent product, by the shape of the factors.  A one-term
        factor c0*m0 relabels the other factor: m -> m*m0 is injective
        and Z[g, A] has no zero divisors, so nothing collides or
        vanishes.  Two factors with constant coefficients multiply as
        ints.  Otherwise the product is the sum, over the terms c*m of the
        shorter factor, of c times the longer one relabeled by m."""
        a, b = self.terms, other.terms
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            ((m0, c0),) = b.items()
            if c0.as_int() == 1:
                return self._of({mono_mul(m, m0): c for m, c in a.items()})
            return self._of({mono_mul(m, m0): c * c0 for m, c in a.items()})
        ints_a = _int_coefficients(a)
        ints_b = ints_a is not None and _int_coefficients(b)
        if ints_b:
            sums: dict = {}
            # mono_mul, inlined: flat manifold powers spend their time here
            for (a1, b1, x1), n1 in ints_a:
                for (a2, b2, x2), n2 in ints_b:
                    xs = tuple(sorted(x1 + x2)) if x1 and x2 else x1 or x2
                    m = (a1 + a2, b1 + b2, xs)
                    sums[m] = sums.get(m, 0) + n1 * n2
            return self._of({m: CoeffElement.integer(n) for m, n in sums.items() if n})
        if len(a) < len(b):
            a, b = b, a
        return self.total(
            (self._of({mono_mul(m1, m2): c1 for m1, c1 in a.items()}), c2)
            for m2, c2 in b.items()
        )

    def homogeneous_component(self, d: int) -> "PhiElement":
        if d % 2:
            warnings.warn("odd-degree component requested; the ring is even")
            return PhiElement()
        out = {}
        for m, c in self.terms.items():
            part = c.homogeneous_component(d - mono_degree(m))
            if not part.is_zero():
                out[m] = part
        return PhiElement(out)

    # --- geometric subring ---------------------------------------------

    def is_in_F(self) -> bool:
        """No positive Euler-class exponent in any monomial."""
        return all(a <= 0 and b <= 0 for a, b, _ in self.terms)

    def project_C(self) -> "PhiElement":
        """The component outside F: monomials with a > 0 or b > 0."""
        return PhiElement(
            {m: c for m, c in self.terms.items() if m[0] > 0 or m[1] > 0}
        )

    def first_symbol_free_part(self):
        """(monomial, coefficient part) for the first nonzero homogeneous
        part of a coefficient that carries no A-symbols, in monomial then
        degree order; None if every part carries A-symbols.  Such a part
        is a definite obstruction, whatever values the symbols take."""
        for m, c in sorted(self.terms.items()):
            for d in sorted(c.degrees()):
                part = c.homogeneous_component(d)
                if not part.has_aug_symbols():
                    return m, part
        return None

    # --- rendering ----------------------------------------------------------

    def __str__(self):
        return signed_join(
            [_term_text(m, c, self._letter) for m, c in sorted(self.terms.items())]
        ) or "0"

    def to_json(self) -> list:
        return [
            dict(mono_json(m), coeff=str(c)) for m, c in sorted(self.terms.items())
        ]


def _int_coefficients(terms: dict):
    """[(monomial, int)] if every coefficient is a constant, else None."""
    out = []
    for m, c in terms.items():
        n = c.as_int()
        if n is None:
            return None
        out.append((m, n))
    return out


def mono_json(m: tuple) -> dict:
    return {"a": m[0], "b": m[1], "xs": [[n, fl] for n, fl in m[2]]}


def _term_text(m: tuple, c: CoeffElement, letter: str) -> str:
    a, b, gens = m
    factors = []
    if a:
        factors.append("e_r" if a == 1 else "e_r^%d" % a)
    if b:
        factors.append("e_s" if b == 1 else "e_s^%d" % b)
    factors.extend("%s(%d,%s)" % (letter, n, fl) for n, fl in gens)
    body = "*".join(factors)
    n = c.as_int()
    if n is not None:
        return weighted(n, body)
    ctext = str(c) if len(c.terms) == 1 else "(%s)" % c
    return "%s*%s" % (ctext, body) if body else ctext


# --- designated generators ------------------------------------------------


def z_gen(n: int, flavor: Flavor, convention: str = "same") -> PhiElement:
    """Localized image of the degree-2n linear projective-space class.

    n = 1 is e_r^-1 + e_s^-1 under either convention.  For n >= 2 the
    normative form is X(n-1, V) + e_V^-n; convention="mixed" uses the
    opposite Euler flavor for the pole term instead.
    """
    check_flavor(flavor)
    if n < 1:
        raise ValueError("z_gen index must be >= 1")
    if convention not in ("same", "mixed"):
        raise ValueError("unknown z_gen convention %r" % (convention,))
    if n == 1:
        return PhiElement({mono(-1, 0): ONE, mono(0, -1): ONE})
    pole_flavor = flavor
    if convention == "mixed":
        pole_flavor = "s" if flavor == "r" else "r"
    pole = euler_mono(pole_flavor, -n)
    return PhiElement({mono(0, 0, [(n - 1, flavor)]): ONE, pole: ONE})


# --- Z-presentation ----------------------------------------------------


class ZElement(Combination):
    """Same ring, generators e_r, e_s, Z(n,V) for n >= 2.

    Monomials are (a, b, zs) with zs a sorted tuple of (n, flavor),
    n >= 2.  The product and the text are PhiElement's; the X-only views
    (F membership, homogeneous parts, JSON) are not offered.
    """

    __slots__ = ()
    _letter = "Z"
    __mul__ = PhiElement.__mul__
    __str__ = PhiElement.__str__

    @staticmethod
    def _key_degree(m: tuple) -> int:
        return -2 * m[0] - 2 * m[1] + sum(2 * n for n, _ in m[2])


def to_z_basis(p: PhiElement) -> ZElement:
    """Rewrite X(n,V) as Z(n+1,V) - e_V^-(n+1); Euler classes unchanged."""
    def x_image(n, flavor):
        pole = euler_mono(flavor, -(n + 1))
        return ZElement({(0, 0, ((n + 1, flavor),)): ONE, pole: -ONE})

    return ZElement.total(
        (prod((x_image(n, fl) for n, fl in xs), start=ZElement({(a, b, ()): ONE})), c)
        for (a, b, xs), c in p.terms.items()
    )


def from_z_basis(z: ZElement) -> PhiElement:
    """Rewrite Z(n,V) as X(n-1,V) + e_V^-n, which is z_gen(n, V); inverse
    of to_z_basis."""
    return PhiElement.total(
        (prod((z_gen(n, fl) for n, fl in zs), start=PhiElement({(a, b, ()): ONE})), c)
        for (a, b, zs), c in z.terms.items()
    )


# --- monomial orders for leading-term certification -------------------------


def z_maxnorm_key(zmono: tuple):
    """Total order on Z-presentation monomials.

    Compares the Z-generator part first (graded, then lexicographic),
    then the Euler-inverse exponents by (max, first, second).  Chosen so
    that the candidate basis families get pairwise distinct maxima; the
    plain (-a, -b) order does not separate them.
    """
    a, b, zs = zmono
    p, q = -a, -b
    zs_deg = sum(2 * n for n, _ in zs)
    return (zs_deg, zs, max(p, q), p, q)


def neg_lex_key(xmono: tuple):
    """Lexicographic (-a, -b, xs) on the X-presentation monomials."""
    a, b, xs = xmono
    return (-a, -b, xs)


def leading_term(element, key_func):
    """(monomial, coefficient) with the largest monomial, or None."""
    if not element.terms:
        return None
    m = max(element.terms, key=key_func)
    return m, element.terms[m]
