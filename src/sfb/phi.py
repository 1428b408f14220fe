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
"""

from __future__ import annotations

import warnings

from .coeff import CoeffElement, ONE, ZERO


Flavor = str  # 'r' or 's'

_FLAVORS = ("r", "s")


def _check_flavor(flavor: str):
    if flavor not in _FLAVORS:
        raise ValueError("flavor must be 'r' or 's', got %r" % (flavor,))


def mono(a: int, b: int, xs=()) -> tuple:
    """Build a monomial key; X(0,V) entries fold into Euler exponents."""
    ea, eb = a, b
    kept = []
    for n, flavor in xs:
        _check_flavor(flavor)
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


def mono_mul(m1: tuple, m2: tuple) -> tuple:
    return (m1[0] + m2[0], m1[1] + m2[1], tuple(sorted(m1[2] + m2[2])))


def mono_degree(m: tuple) -> int:
    return -2 * m[0] - 2 * m[1] + sum(2 * n + 2 for n, _ in m[2])


class PhiElement:
    """Sparse map monomial -> CoeffElement, zero values pruned."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for m, c in dict(terms).items():
                if not c.is_zero():
                    self.terms[m] = c

    # --- constructors ---------------------------------------------------

    @staticmethod
    def zero() -> "PhiElement":
        return PhiElement()

    @staticmethod
    def one() -> "PhiElement":
        return PhiElement({mono(0, 0): ONE})

    @staticmethod
    def const(c) -> "PhiElement":
        if isinstance(c, int):
            c = CoeffElement.integer(c)
        return PhiElement({mono(0, 0): c})

    @staticmethod
    def euler(flavor: Flavor, exp: int = 1) -> "PhiElement":
        _check_flavor(flavor)
        return PhiElement({(exp, 0, ()) if flavor == "r" else (0, exp, ()): ONE})

    @staticmethod
    def x_gen(n: int, flavor: Flavor) -> "PhiElement":
        if n < 1:
            raise ValueError("X-generator index must be >= 1")
        return PhiElement({mono(0, 0, [(n, flavor)]): ONE})

    # --- ring structure ---------------------------------------------------

    def __add__(self, other: "PhiElement") -> "PhiElement":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, ZERO) + c
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
        return PhiElement(out)

    def __neg__(self):
        return PhiElement({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "PhiElement") -> "PhiElement":
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                v = c1 * c2
                s = out.get(m)
                if s is not None:
                    v = s + v
                if v.terms:
                    out[m] = v
                else:
                    out.pop(m, None)
        return PhiElement(out)

    def scale(self, c) -> "PhiElement":
        if isinstance(c, int):
            c = CoeffElement.integer(c)
        if c.is_zero():
            return PhiElement()
        return PhiElement({m: c * v for m, v in self.terms.items()})

    def __pow__(self, n: int) -> "PhiElement":
        if n < 0:
            raise ValueError("use explicit Euler monomials for inverses")
        result = PhiElement.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, PhiElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((m, c) for m, c in self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # --- grading ----------------------------------------------------------

    def degrees(self) -> set:
        out = set()
        for m, c in self.terms.items():
            md = mono_degree(m)
            out.update(md + cd for cd in c.degrees())
        return out

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degree(self):
        ds = self.degrees()
        if not ds:
            return None
        if len(ds) > 1:
            raise ValueError("inhomogeneous element has no degree: %s" % self)
        return ds.pop()

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

    # --- bookkeeping ------------------------------------------------------

    def aug_symbols(self) -> list:
        seen = set()
        for c in self.terms.values():
            seen.update(c.aug_symbols())
        return sorted(seen, key=lambda k: (k[3], k[1], k[2]))

    def has_aug_symbols(self) -> bool:
        return any(c.has_aug_symbols() for c in self.terms.values())

    def substitute(self, assignments: dict) -> "PhiElement":
        return PhiElement(
            {m: c.substitute(assignments) for m, c in self.terms.items()}
        )

    # --- rendering ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = [_term_text(m, c) for m, c in sorted(self.terms.items())]
        text = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                text += " - " + p[1:]
            else:
                text += " + " + p
        return text

    def __repr__(self):
        return "PhiElement(%s)" % self

    def to_json(self) -> list:
        return [
            {"a": m[0], "b": m[1], "xs": [[n, fl] for n, fl in m[2]], "coeff": str(c)}
            for m, c in sorted(self.terms.items())
        ]


def _mono_text(m: tuple) -> str:
    a, b, xs = m
    factors = []
    if a:
        factors.append("e_r" if a == 1 else "e_r^%d" % a)
    if b:
        factors.append("e_s" if b == 1 else "e_s^%d" % b)
    for n, flavor in xs:
        factors.append("X(%d,%s)" % (n, flavor))
    return "*".join(factors)


def _term_text(m: tuple, c: CoeffElement) -> str:
    body = _mono_text(m)
    ctext = str(c)
    if not body:
        return ctext if len(c.terms) == 1 else "(%s)" % ctext
    if c == ONE:
        return body
    if c == CoeffElement.integer(-1):
        return "-" + body
    if len(c.terms) == 1:
        return "%s*%s" % (ctext, body)
    return "(%s)*%s" % (ctext, body)


# --- designated generators ------------------------------------------------


def z_gen(n: int, flavor: Flavor, convention: str = "same") -> PhiElement:
    """Localized image of the degree-2n linear projective-space class.

    n = 1 is e_r^-1 + e_s^-1 under either convention.  For n >= 2 the
    normative form is X(n-1, V) + e_V^-n; convention="mixed" uses the
    opposite Euler flavor for the pole term instead.
    """
    _check_flavor(flavor)
    if n < 1:
        raise ValueError("z_gen index must be >= 1")
    if convention not in ("same", "mixed"):
        raise ValueError("unknown z_gen convention %r" % (convention,))
    if n == 1:
        return PhiElement({mono(-1, 0): ONE, mono(0, -1): ONE})
    pole_flavor = flavor
    if convention == "mixed":
        pole_flavor = "s" if flavor == "r" else "r"
    pole = mono(-n, 0) if pole_flavor == "r" else (0, -n, ())
    return PhiElement({mono(0, 0, [(n - 1, flavor)]): ONE, pole: ONE})


# --- Z-presentation ----------------------------------------------------


class ZElement:
    """Same ring, generators e_r, e_s, Z(n,V) for n >= 2.

    Monomials are (a, b, zs) with zs a sorted tuple of (n, flavor),
    n >= 2.  Only the operations needed by the change of presentation
    and by leading-term certification are provided.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for m, c in dict(terms).items():
                if not c.is_zero():
                    self.terms[m] = c

    @staticmethod
    def one() -> "ZElement":
        return ZElement({(0, 0, ()): ONE})

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, ZERO) + c
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
        return ZElement(out)

    def __neg__(self):
        return ZElement({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], tuple(sorted(m1[2] + m2[2])))
                s = out.get(m, ZERO) + c1 * c2
                if s.is_zero():
                    out.pop(m, None)
                else:
                    out[m] = s
        return ZElement(out)

    def __eq__(self, other):
        if not isinstance(other, ZElement):
            return NotImplemented
        return self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in sorted(self.terms.items()):
            a, b, zs = m
            factors = []
            if a:
                factors.append("e_r" if a == 1 else "e_r^%d" % a)
            if b:
                factors.append("e_s" if b == 1 else "e_s^%d" % b)
            factors.extend("Z(%d,%s)" % (n, fl) for n, fl in zs)
            parts.append(_term_text_generic("*".join(factors), c))
        text = parts[0]
        for p in parts[1:]:
            text += (" - " + p[1:]) if p.startswith("-") else (" + " + p)
        return text


def _term_text_generic(body: str, c: CoeffElement) -> str:
    ctext = str(c)
    if not body:
        return ctext if len(c.terms) == 1 else "(%s)" % ctext
    if c == ONE:
        return body
    if c == CoeffElement.integer(-1):
        return "-" + body
    if len(c.terms) == 1:
        return "%s*%s" % (ctext, body)
    return "(%s)*%s" % (ctext, body)


def to_z_basis(p: PhiElement) -> ZElement:
    """Rewrite X(n,V) as Z(n+1,V) - e_V^-(n+1); Euler classes unchanged."""
    out = ZElement()
    for (a, b, xs), c in p.terms.items():
        piece = ZElement({(a, b, ()): c})
        for n, flavor in xs:
            pole = (-(n + 1), 0, ()) if flavor == "r" else (0, -(n + 1), ())
            factor = ZElement({(0, 0, ((n + 1, flavor),)): ONE, pole: -ONE})
            piece = piece * factor
        out = out + piece
    return out


def from_z_basis(z: ZElement) -> PhiElement:
    """Rewrite Z(n,V) as X(n-1,V) + e_V^-n; inverse of to_z_basis."""
    out = PhiElement()
    for (a, b, zs), c in z.terms.items():
        piece = PhiElement({(a, b, ()): c})
        for n, flavor in zs:
            pole = mono(-n, 0) if flavor == "r" else (0, -n, ())
            factor = PhiElement({mono(0, 0, [(n - 1, flavor)]): ONE, pole: ONE})
            piece = piece * factor
        out = out + piece
    return out


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
