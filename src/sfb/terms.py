"""Expression trees for the operator calculus.

A term is a tagged tuple:

    ("coeff", CoeffElement)      scalar from the coefficient ring
    ("euler", flavor)            Euler class of one irreducible character
    ("zgen", n, flavor)          degree-2n projective-space class, n >= 1
    ("gamma", flavor, term)      one-step extension operator
    ("bar", term)                scalar part, re-injected as a coefficient
    ("sum", (terms...))
    ("prod", (terms...))

Tuples are hashable, so canonical forms double as memo keys.  The
grammar accepted by :func:`parse_term` mirrors the printer; its sum,
product, power and parenthesis rules are the shared skeleton of
``coeff._Scanner``:

    sum     := ['-' | '+'] product (('+' | '-') product)*
    product := power ('*' power)*
    power   := atom ['^' n]     (0 <= n <= sys.maxsize, expands to a product)
    atom    := 'G_r(' sum ')' | 'G_s(' sum ')' | 'bar(' sum ')'
             | 'sigma(' coeff-sum ')' | 'e_r' | 'e_s' | 'Z(' n ',' flavor ')'
             | integer | 'g' n | 'A(' j ';' base ')' | '(' sum ')'
"""

from __future__ import annotations

from .coeff import (
    CoeffElement,
    ONE,
    ZERO,
    _Scanner,
    _parse_coeff_sum,
    is_coeff_atom_start,
    parse_coeff_atom,
    signed_join,
)


class TermParseError(ValueError):
    pass


# --- constructors -------------------------------------------------------


def t_coeff(c) -> tuple:
    if isinstance(c, int):
        c = CoeffElement.integer(c)
    return ("coeff", c)


def t_int(m: int) -> tuple:
    return t_coeff(m)


def t_euler(flavor: str) -> tuple:
    if flavor not in ("r", "s"):
        raise ValueError("flavor must be 'r' or 's'")
    return ("euler", flavor)


def t_zgen(n: int, flavor: str) -> tuple:
    if n < 1:
        raise ValueError("Z-class index must be >= 1")
    if flavor not in ("r", "s"):
        raise ValueError("flavor must be 'r' or 's'")
    return ("zgen", n, flavor)


def t_gamma(flavor: str, term: tuple) -> tuple:
    if flavor not in ("r", "s"):
        raise ValueError("flavor must be 'r' or 's'")
    return ("gamma", flavor, term)


def t_bar(term: tuple) -> tuple:
    return ("bar", term)


def t_sum(*terms) -> tuple:
    if not terms:
        return t_int(0)
    if len(terms) == 1:
        return terms[0]
    return ("sum", tuple(terms))


def t_prod(*terms) -> tuple:
    if not terms:
        return t_int(1)
    if len(terms) == 1:
        return terms[0]
    return ("prod", tuple(terms))


# --- structure ----------------------------------------------------------


def term_degrees(t: tuple) -> set:
    """All homogeneous degrees present; {} only for the zero scalar."""
    tag = t[0]
    if tag == "coeff":
        return t[1].degrees()
    if tag == "euler":
        return {-2}
    if tag == "zgen":
        return {2 * t[1]}
    if tag == "gamma":
        return {d + 2 for d in term_degrees(t[2])}
    if tag == "bar":
        return set(term_degrees(t[1]))
    if tag == "sum":
        out = set()
        for s in t[1]:
            out |= term_degrees(s)
        return out
    if tag == "prod":
        out = {0}
        for s in t[1]:
            ds = term_degrees(s)
            if not ds:
                return set()
            out = {a + b for a in out for b in ds}
        return out
    raise ValueError("unknown term tag %r" % (tag,))


def term_degree(t: tuple):
    ds = term_degrees(t)
    if not ds:
        return None
    if len(ds) > 1:
        raise ValueError("inhomogeneous term: degrees %s" % sorted(ds))
    return ds.pop()


def term_canon(t: tuple) -> tuple:
    """Flatten sums and products, merge scalar factors, drop units.

    Does no ring-level rewriting; this is the shape used as a memo key
    and for parse/print round-trip comparison.
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


# --- printer ------------------------------------------------------------


def term_text(t: tuple) -> str:
    return _text(t, 0)


def _text(t: tuple, level: int) -> str:
    # level 0 = sum context, 1 = product context
    tag = t[0]
    if tag == "coeff":
        c = t[1]
        body = str(c)
        return "sigma(%s)" % body if len(c.terms) > 1 else body
    if tag == "euler":
        return "e_%s" % t[1]
    if tag == "zgen":
        return "Z(%d,%s)" % (t[1], t[2])
    if tag == "gamma":
        return "G_%s(%s)" % (t[1], _text(t[2], 0))
    if tag == "bar":
        return "bar(%s)" % _text(t[1], 0)
    if tag == "sum":
        out = signed_join([_text(s, 0) for s in t[1]])
        return "(%s)" % out if level == 1 else out
    if tag == "prod":
        factors = t[1]
        prefix = ""
        start = 0
        if len(factors) > 1 and factors[0] == ("coeff", CoeffElement.integer(-1)):
            prefix = "-"
            start = 1
        parts = []
        for i in range(start, len(factors)):
            p = _text(factors[i], 1)
            if p.startswith("-") and (i > start or prefix):
                p = "(%s)" % p
            parts.append(p)
        return prefix + "*".join(parts)
    raise ValueError("unknown term tag %r" % (tag,))


# --- parser ----------------------------------------------------------------


def parse_term(text: str) -> tuple:
    return _Scanner(text).parse(_parse_sum, TermParseError)


def _parse_sum(sc: _Scanner) -> tuple:
    parts = sc.signed(_parse_product)
    return t_sum(*(p if s > 0 else t_prod(t_int(-1), p) for s, p in parts))


def _parse_product(sc: _Scanner) -> tuple:
    return t_prod(*sc.joined(
        lambda sc: sc.power(_parse_atom, lambda t, n: t_prod(*[t] * n)), "*"
    ))


def _parse_atom(sc: _Scanner) -> tuple:
    for flavor in ("r", "s"):
        if sc.take("G_%s(" % flavor):
            return t_gamma(flavor, sc.closed(_parse_sum))
    if sc.take("bar("):
        return t_bar(sc.closed(_parse_sum))
    if sc.take("sigma("):
        return t_coeff(sc.closed(_parse_coeff_sum))
    if sc.take("e_r"):
        return t_euler("r")
    if sc.take("e_s"):
        return t_euler("s")
    if sc.take("Z("):
        return t_zgen(*sc.indexed())
    if sc.take("("):
        return sc.closed(_parse_sum)
    if is_coeff_atom_start(sc):
        return t_coeff(parse_coeff_atom(sc))
    raise TermParseError(
        "expected term atom at position %d in %r" % (sc.pos, sc.text)
    )
