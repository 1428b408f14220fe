"""Geometric front end: manifold expressions, isolated fixed-point data,
and the realizability decision with decomposition certificates.

A manifold expression is a tagged tuple:

    ("pc", n, flavor)      linear projective space P(C^n + V), n >= 1
    ("pt",)                the point
    ("union", ((w, M)...)) integer-weighted disjoint union
    ("prod", (Ms...))
    ("gamma", M)           twisted-bundle construction, r-flavored
    ("gammastar", M)       the s-flavored mate

Grammar, on the shared skeleton of ``coeff._Scanner``:

    msum   := ['-'|'+'] mprod (('+'|'-') mprod)*
    mprod  := factor (('x'|'*') factor)*
    factor := integer | matom ['^' n]        (0 <= n <= sys.maxsize)
    matom  := 'P(' n ',' flavor ')' | 'pt' | 'gamma(' msum ')'
            | 'gammas(' msum ')' | '(' msum ')'

A bare integer w in a product is a weight: w disjoint copies.
"""

from __future__ import annotations

import random
from math import comb, prod

from .coeff import CoeffElement, _Scanner, check_flavor
from .phi import PhiElement, mono_json, z_gen
from .aug import AUG
from .terms import t_gamma, t_int, t_prod, t_sum, t_zgen


class NonIsolatedError(ValueError):
    """Fixed set has positive-dimensional components."""


class ManifoldParseError(ValueError):
    pass


# --- constructors ------------------------------------------------------------


def m_pc(n: int, flavor: str) -> tuple:
    if n < 1:
        raise ValueError("projective-space index must be >= 1")
    return ("pc", n, check_flavor(flavor))


def m_point() -> tuple:
    return ("pt",)


def m_union(*weighted) -> tuple:
    return ("union", tuple((int(w), m) for w, m in weighted))


def m_prod(*ms) -> tuple:
    if not ms:
        return m_point()
    if len(ms) == 1:
        return ms[0]
    return ("prod", tuple(ms))


def m_gamma(m: tuple) -> tuple:
    return ("gamma", m)


def m_gammastar(m: tuple) -> tuple:
    return ("gammastar", m)


# --- translations ---------------------------------------------------------


def manifold_to_term(m: tuple) -> tuple:
    """The bordism class as an expression for the rewriting engine."""
    tag = m[0]
    if tag == "pc":
        return t_zgen(m[1], m[2])
    if tag == "pt":
        return t_int(1)
    if tag == "union":
        return t_sum(*(t_prod(t_int(w), manifold_to_term(sub)) for w, sub in m[1]))
    if tag == "prod":
        return t_prod(*(manifold_to_term(sub) for sub in m[1]))
    if tag == "gamma":
        return t_gamma("r", manifold_to_term(m[1]))
    if tag == "gammastar":
        return t_gamma("s", manifold_to_term(m[1]))
    raise ValueError("unknown manifold tag %r" % (tag,))


def aug_manifold(m: tuple) -> CoeffElement:
    """Class of the underlying manifold, action forgotten."""
    return AUG.aug(manifold_to_term(m))


def lambda_manifold(m: tuple, convention: str = "same") -> PhiElement:
    """Localized fixed-point image, computed structurally on the
    manifold expression (not by round-tripping through the engine)."""
    tag = m[0]
    if tag == "pc":
        return z_gen(m[1], m[2], convention)
    if tag == "pt":
        return PhiElement.one()
    if tag == "union":
        return PhiElement.total(
            (lambda_manifold(sub, convention), w) for w, sub in m[1]
        )
    if tag == "prod":
        factors = (lambda_manifold(sub, convention) for sub in m[1])
        return prod(factors, start=PhiElement.one())
    if tag in ("gamma", "gammastar"):
        flavor = "r" if tag == "gamma" else "s"
        inner = lambda_manifold(m[1], convention)
        abar = PhiElement.const(aug_manifold(m[1]))
        return PhiElement.euler(flavor, -1) * (inner - abar)
    raise ValueError("unknown manifold tag %r" % (tag,))


# --- isolated fixed-point data ---------------------------------------------


def fixed_data(m: tuple) -> dict:
    """Multiset of isolated fixed points as {(k, l): weight}; k counts
    r-flavored normal lines, l the s-flavored ones."""
    tag = m[0]
    if tag == "pt":
        return {(0, 0): 1}
    if tag == "pc":
        if m[1] != 1:
            raise NonIsolatedError(
                "P(C^%d+%s) has positive-dimensional fixed components" % (m[1], m[2])
            )
        return {(1, 0): 1, (0, 1): 1}
    if tag == "union":
        out = {}
        for w, sub in m[1]:
            _merge(out, ((kl, w * c) for kl, c in fixed_data(sub).items()))
        return out
    if tag == "prod":
        out = {(0, 0): 1}
        for sub in m[1]:
            if not out:
                break  # a zero product: the later factors are never read
            factor = fixed_data(sub)
            nxt = {}
            for (k1, l1), c1 in out.items():
                _merge(nxt, (((k1 + k2, l1 + l2), c1 * c2)
                             for (k2, l2), c2 in factor.items()))
            out = nxt
        return out
    if tag in ("gamma", "gammastar"):
        raise NonIsolatedError(
            "the bundle construction has a non-isolated fixed set"
        )
    raise ValueError("unknown manifold tag %r" % (tag,))


def _merge(out: dict, items) -> None:
    """Add (key, weight) pairs into the sparse map `out`, dropping zeros."""
    for kl, c in items:
        s = out.get(kl, 0) + c
        if s:
            out[kl] = s
        else:
            out.pop(kl, None)


def fixed_data_to_json(data: dict) -> dict:
    points = [
        {"weight": w, "rho": k, "rho_star": l}
        for (k, l), w in sorted(data.items())
        if w
    ]
    return {"points": points}


def _json_int(point: dict, field: str) -> int:
    if field not in point:
        raise ManifoldParseError("fixed point %r has no %r" % (point, field))
    value = point[field]
    # bool is a subclass of int, but true/false are not counts
    if isinstance(value, bool) or not isinstance(value, int):
        raise ManifoldParseError("%r must be an integer, got %r" % (field, value))
    return value


def fixed_data_from_json(doc: dict) -> dict:
    if not isinstance(doc, dict) or not isinstance(doc.get("points"), list):
        raise ManifoldParseError('fixed-point data must be {"points": [...]}')
    out = {}
    for p in doc["points"]:
        if not isinstance(p, dict):
            raise ManifoldParseError("fixed point must be an object, got %r" % (p,))
        w = _json_int(p, "weight")
        k = _json_int(p, "rho")
        l = _json_int(p, "rho_star")
        if k < 0 or l < 0:
            raise ManifoldParseError("normal-line counts must be >= 0")
        _merge(out, [((k, l), w)])
    return out


# --- realizability ----------------------------------------------------------


def realize(data: dict) -> dict:
    """Decide whether the data is the fixed-point set of a disjoint
    union of powers of the rotation sphere; emit the decomposition or
    the first binomial-row violation."""
    degrees = sorted({k + l for k, l in data})
    decomposition = []
    for n in degrees:
        a0 = data.get((n, 0), 0)
        for i in range(n + 1):
            expected = a0 * comb(n, i)
            actual = data.get((n - i, i), 0)
            if actual != expected:
                return {
                    "realizable": False,
                    "witness": {
                        "degree": n,
                        "index": i,
                        "expected": expected,
                        "actual": actual,
                    },
                }
        if a0:
            decomposition.append({"multiplicity": a0, "power": n})
    return {"realizable": True, "decomposition": decomposition}


def realize_iterative(data: dict) -> dict:
    """Same decision by the inductive subtraction: strip a_0 copies of
    the n-th sphere power, multiply by e_s to drop the degree, and
    repeat down to degree 0.  Below degree n nothing may be left to
    strip; degree-0 data is a bare integer.  A loop, not a recursion,
    so the depth of the stack does not bound the degree.

    Only nonzero work is done: the one row that is stripped (at level
    n) is built by a running product, every other level just shifts
    the residual, and a degree is done once its residual is empty."""
    by_degree = {}
    for (k, l), w in data.items():
        if w:
            by_degree.setdefault(k + l, {})[(k, l)] = w
    decomposition = []
    for n in sorted(by_degree):
        x = by_degree[n]
        mult = x.get((n, 0), 0)
        for level in range(n, -1, -1):
            if not x:
                break
            a0 = x.pop((level, 0), 0)
            if a0:
                if level < n:
                    return {"realizable": False, "witness": {"degree": n}}
                # c = a0 * binomial(level, i); the division is exact for
                # either sign of a0
                c = a0
                for i in range(1, level + 1):
                    c = c * (level - i + 1) // i
                    key = (level - i, i)
                    w = x.get(key, 0) - c
                    if w:
                        x[key] = w
                    else:
                        x.pop(key, None)
            # (level, 0) is gone, so every slot left has l >= 1:
            # multiply by e_s
            x = {(k, l - 1): w for (k, l), w in x.items()}
        if mult:
            decomposition.append({"multiplicity": mult, "power": n})
    return {"realizable": True, "decomposition": decomposition}


# --- cobordance ---------------------------------------------------------


def check_cobordant(m1: tuple, m2: tuple, convention: str = "same"):
    """(True | False | "unknown", detail).  Classes agree iff their
    localized images agree; differences living entirely in A-symbols
    cannot be decided without assignments."""
    diff = lambda_manifold(m1, convention) - lambda_manifold(m2, convention)
    if diff.is_zero():
        return True, None
    found = diff.first_symbol_free_part()
    if found is not None:
        return False, {"monomial": mono_json(found[0]), "coeff": str(found[1])}
    return "unknown", {"difference": str(diff)}


# --- parsing ---------------------------------------------------


def parse_manifold(text: str) -> tuple:
    return _Scanner(text).parse(_parse_msum, ManifoldParseError)


def _parse_msum(sc: _Scanner) -> tuple:
    parts = sc.signed(_parse_mprod)
    if len(parts) == 1 and parts[0][0] == 1:
        return parts[0][1]
    out = []
    for sign, m in parts:
        if m[0] == "union" and len(m[1]) == 1:
            w, sub = m[1][0]
            out.append((sign * w, sub))
        else:
            out.append((sign, m))
    return ("union", tuple(out))


def _parse_mprod(sc: _Scanner) -> tuple:
    def factor(sc):
        if sc.peek().isdigit():
            return sc.integer()
        return sc.power(_parse_matom, lambda m, n: m_prod(*[m] * n))

    parts = sc.joined(factor, "x", "*")
    weight = prod(p for p in parts if isinstance(p, int))
    m = m_prod(*(p for p in parts if not isinstance(p, int)))
    return m if weight == 1 else ("union", ((weight, m),))


def _parse_matom(sc: _Scanner) -> tuple:
    if sc.take("P("):
        return m_pc(*sc.indexed())
    if sc.take("pt"):
        return m_point()
    if sc.take("gammas("):
        return m_gammastar(sc.closed(_parse_msum))
    if sc.take("gamma("):
        return m_gamma(sc.closed(_parse_msum))
    if sc.take("("):
        return sc.closed(_parse_msum)
    raise ManifoldParseError(
        "expected manifold atom at position %d in %r" % (sc.pos, sc.text)
    )


# --- randomized checks for the quotient-ring identities -------------------


def random_manifold(rng, depth: int = 2) -> tuple:
    if depth <= 0:
        roll = rng.randrange(4)
        if roll == 0:
            return m_point()
        return m_pc(rng.randint(1, 3), rng.choice("rs"))
    roll = rng.randrange(6)
    if roll <= 1:
        return m_prod(random_manifold(rng, depth - 1), random_manifold(rng, depth - 1))
    if roll <= 3:
        return m_union(
            (rng.randint(-2, 2), random_manifold(rng, depth - 1)),
            (rng.randint(-2, 2), random_manifold(rng, depth - 1)),
        )
    if roll == 4:
        return m_gamma(random_manifold(rng, depth - 1))
    return m_gammastar(random_manifold(rng, depth - 1))


def verify_manifold_relations(samples: int = 200, seed: int = 0) -> dict:
    """The quotient-side identities, checked on the localized images of
    random manifold expressions: the exchange identity
    gamma(x)(y - bar y) = (x - bar x) gamma(y), and the reordering
    identity with the corrected scalar coefficient."""
    rng = random.Random(seed)
    sphere = z_gen(1, "r")
    checks = {"exchange": 0, "reorder_corrected": 0}
    failures = []
    for k in range(samples):
        x = random_manifold(rng, depth=2)
        y = random_manifold(rng, depth=2)
        lam_x = lambda_manifold(x)
        lam_y = lambda_manifold(y)
        xbar = PhiElement.const(aug_manifold(x))
        ybar = PhiElement.const(aug_manifold(y))
        for build in (m_gamma, m_gammastar):
            gx = lambda_manifold(build(x))
            gy = lambda_manifold(build(y))
            if (gx * (lam_y - ybar) - (lam_x - xbar) * gy).is_zero():
                checks["exchange"] += 1
            else:
                failures.append(("exchange", k))
        sg = lambda_manifold(m_gammastar(m_gamma(x)))
        gs = lambda_manifold(m_gamma(m_gammastar(x)))
        coeff = aug_manifold(m_gammastar(x))
        if (sg - gs - sphere.scale(coeff)).is_zero():
            checks["reorder_corrected"] += 1
        else:
            failures.append(("reorder_corrected", k))
    return {
        "samples": samples,
        "seed": seed,
        "checks": checks,
        "failures": failures,
        "ok": not failures,
    }
