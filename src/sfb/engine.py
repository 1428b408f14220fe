"""Normalization engine for the operator calculus.

Values are rewritten to coefficient combinations of basis monomials
(i, j, x, m): i applications of the r-flavored extension operator over
j s-flavored ones, applied to a single generator x, times a multiset m
of generators.  A generator is its own term (``("euler", V)`` or
``("zgen", n, V)``), and the unit's x is ``()``; since "euler" < "zgen",
plain tuple order is the generator order e_r < e_s < Z(2,r) < Z(2,s) < ...
and a basis monomial sorts as itself.

Every rewrite rule is exact under the localization map.  Unless
``check_lambda=False`` (``--no-check-lambda``), ``normalize`` compares
the images of the input and of its normal form as residues mod M, a
product of three primes in [2^29, 2^30), at a point seeded from the
input's text (``coeff.Point``).  Evaluation is a ring map, so a false
mismatch is impossible; a real one is missed with probability at most
(deg/(2^29 - 1))^3 (Schwartz 1980, Zippel 1979) unless a chosen prime
divides every integer coefficient of the difference.  A mismatch is
rechecked exactly; ``lambda_image()`` without a point stays exact.

The pole convention of ``z_gen`` reaches only callers that print an
image.  The ring automorphism X(n,V) -> X(n,V) + e_V'^-(n+1) - e_V^-(n+1)
(V' the other flavor; e_r, e_s, coefficients fixed) sends the "same"
image of Z(n,V) to the "mixed" one and commutes with every rule of
``lambda_term``, so an equality of images, such as the cross-check or a
``verify_relations`` check, holds in both conventions or in neither.

The stored-monomial side conditions:

    x = e_r: j >= 1; m has no e_s; if i >= 1, m has only Z's
    x = e_s: i >= 1, j = 0; m over {e_s, Z(n,V)}
    x = Z(n,V): j >= 1; m has only Z's, all >= x
    plain monomials (i = j = 0): any multiset, x its minimum

These extend the printed basis conditions with the x = e_s words; the
printed set cannot express G_r(e_s) (certification keeps both variants
available, see ``enumerate_basis``).
"""

from __future__ import annotations

import itertools
import random
from functools import cache, reduce
from math import prod
from operator import mul

from .coeff import FLAVORS, CoeffElement, ONE, ZERO, Point, aug_symbol_name, coerce, cp
from .phi import (
    Combination,
    PhiElement,
    euler_mono,
    mono_json,
    mono_mul,
    neg_lex_key,
    to_z_basis,
    z_gen,
    z_maxnorm_key,
)
from .terms import (
    t_bar,
    t_coeff,
    t_euler,
    t_gamma,
    t_int,
    t_prod,
    t_sum,
    t_zgen,
    term_text,
)
from .aug import AUG, AugEnv

DEFAULT_STEP_BUDGET = 10 ** 6


class InternalError(RuntimeError):
    """A consistency check failed or a budget ran out: exit 3, not a no."""


class StepBudgetExceeded(InternalError):
    pass


class LambdaMismatch(InternalError):
    """Normalization produced a different localized image than the input."""


# --- generator atoms ------------------------------------------------------

E_R = t_euler("r")
E_S = t_euler("s")


Z1 = t_zgen(1, "r")  # degree-2 sphere class, used by the quotient-side bases


def atom_degree(atom: tuple) -> int:
    return -2 if atom[0] == "euler" else 2 * atom[1]


def atom_name(atom: tuple) -> str:
    if atom[0] == "euler":
        return "e_%s" % atom[1]
    if atom == Z1:
        return "Z1"
    return "Z(%d,%s)" % atom[1:]


# --- basis monomials -----------------------------------------------------

UNIT = (0, 0, (), ())
P_BM = (1, 1, E_R, ())
P_TERM = t_gamma("r", t_gamma("s", E_R))  # bm_term(P_BM), the sphere class P


def mk_plain(atoms) -> tuple:
    atoms = tuple(sorted(atoms))
    if not atoms:
        return UNIT
    return (0, 0, atoms[0], atoms[1:])


def bm_degree(bm: tuple) -> int:
    i, j, x, m = bm
    d = 2 * (i + j)
    if x:
        d += atom_degree(x)
    return d + sum(atom_degree(a) for a in m)


def bm_term(bm: tuple) -> tuple:
    i, j, x, m = bm
    if not x:
        return t_int(1)
    core = x
    for _ in range(j):
        core = t_gamma("s", core)
    for _ in range(i):
        core = t_gamma("r", core)
    return t_prod(core, *m)


def bm_json(bm: tuple, coeff: CoeffElement) -> dict:
    i, j, x, m = bm
    return {
        "i": i,
        "j": j,
        "x": atom_name(x) if x else None,
        "m": [atom_name(a) for a in m],
        "coeff": str(coeff),
    }


def bm_is_legal(bm: tuple) -> bool:
    i, j, x, m = bm
    if i < 0 or j < 0:
        return False
    if not x:
        return (i, j) == (0, 0) and not m
    if any(a < x for a in m):
        return False
    if (i, j) == (0, 0):
        return True
    if x == E_R:
        if j < 1 or E_S in m:
            return False
        return i == 0 or all(a[0] == "zgen" for a in m)
    if x == E_S:
        return i >= 1 and j == 0
    return j >= 1 and all(a[0] == "zgen" for a in m)


# --- normal forms -------------------------------------------------------


class NormalForm(Combination):
    """Sparse map basis monomial -> coefficient."""

    __slots__ = ()
    _key_degree = staticmethod(bm_degree)

    @staticmethod
    def unit(c=ONE) -> "NormalForm":
        return NormalForm.of(UNIT, c)

    @staticmethod
    def of(bm: tuple, c=ONE) -> "NormalForm":
        return NormalForm({bm: coerce(c)})

    def to_term(self) -> tuple:
        if not self.terms:
            return t_int(0)
        parts = []
        for bm in sorted(self.terms):
            c = self.terms[bm]
            body = bm_term(bm)
            if bm == UNIT:
                parts.append(t_coeff(c))
            elif c == ONE:
                parts.append(body)
            else:
                parts.append(t_prod(t_coeff(c), body))
        return t_sum(*parts)

    def text(self) -> str:
        return term_text(self.to_term())

    __str__ = text

    def to_json(self) -> list:
        return [
            bm_json(bm, self.terms[bm])
            for bm in sorted(self.terms)
        ]

    def lambda_image(self, point=None):
        """Sum of c * lambda(bm), over images built once per call; with a
        ``coeff.Point``, the residue of that sum there, built as residues
        throughout."""
        image = bm_images(point=point)
        if point is None:
            return PhiElement.total((image(bm), c) for bm, c in self.terms.items())
        return sum(image(bm) * point(c) for bm, c in self.terms.items()) % point.modulus

    def aug(self) -> CoeffElement:
        return CoeffElement.total(
            (AUG.aug(bm_term(bm)), c) for bm, c in self.terms.items()
        )


# --- localized evaluation ---------------------------------------------------


def lambda_term(t: tuple, convention: str = "same") -> PhiElement:
    """Image under the fixed-point localization map; may carry A-symbols."""
    tag = t[0]
    if tag == "coeff":
        return PhiElement.const(t[1])
    if tag == "euler":
        return PhiElement.euler(t[1], 1)
    if tag == "zgen":
        return z_gen(t[1], t[2], convention)
    if tag == "gamma":
        return _lambda_gamma(t[1], lambda_term(t[2], convention), AUG.aug(t[2]))
    if tag == "bar":
        return PhiElement.const(AUG.aug(t[1]))
    if tag == "sum":
        return PhiElement.total((lambda_term(s, convention), ONE) for s in t[1])
    if tag == "prod":
        return prod((lambda_term(s, convention) for s in t[1]), start=PhiElement.one())
    raise ValueError("unknown term tag %r" % (tag,))


def _lambda_gamma(flavor: str, inner, bar):
    """lambda(G_V y) = e_V^-1 (lambda(y) - bar y) in inner's ring, from
    inner = lambda(y) and bar = bar y in that ring's coefficients.  The
    division by e_V is a shift of every monomial, which is injective, so
    it relabels the difference's terms."""
    diff = inner - type(inner)({(0, 0, ()): bar})
    pole = euler_mono(flavor, -1)
    return diff._of({mono_mul(m, pole): c for m, c in diff.terms.items()})


def is_geometric(term: tuple, convention: str = "same"):
    """(True|False|"unknown", certificate-or-None).

    True iff the localized image has no positive Euler powers.  A
    definite False needs a symbol-free nonzero obstruction; if every
    obstruction involves A-symbols the answer depends on their
    values and is reported as unknown.
    """
    outside = lambda_term(term, convention).project_C()
    if outside.is_zero():
        return True, None
    found = outside.first_symbol_free_part()
    if found is not None:
        return False, dict(mono_json(found[0]), coeff=str(found[1]))
    pending = sorted({aug_symbol_name(k) for k in outside.aug_symbols()})
    return "unknown", {"pending": pending, "projection": str(outside)}


def _outer(word: tuple) -> tuple:
    """(flavor, inner bare word) of a word's outermost operator."""
    i, j, x = word[:3]
    return ("r", (i - 1, j, x, ())) if i else ("s", (0, j - 1, x, ()))


def bm_images(convention: str = "same", present=None, block=None, point=None):
    """bm -> lambda(bm), its image under a ring map `present`, such as
    to_z_basis, that fixes e_r, e_s and the constants, or its residue at a
    ``coeff.Point``.  lambda is multiplicative, so an image is its bare
    word's image times its atoms'.  `present` runs once per plain word
    (0, 0, a, ()), each operator word is built from its inner word in that
    presentation, and each multiset product from its prefix, in memos that
    live as long as the returned function.  With `block`, a monomial
    preorder that respects products, bm maps to the block of its image
    where `block` is largest: its factors' top blocks multiplied, as Z[g, A]
    is a domain."""
    products = {}
    gamma, times, bar = _lambda_gamma, mul, AUG.aug
    if point is not None:
        present, bar, M, euler = point.laurent, AugEnv(point).aug, point.modulus, point.euler
        gamma = lambda flavor, y, bar_y: (y - bar_y) * euler[flavor][1] % M
        times = lambda a, b: a * b % M

    @cache
    def word_image(word):
        if word[:2] == (0, 0):
            image = lambda_term(bm_term(word), convention)
            return image if present is None else present(image)
        flavor, inner = _outer(word)
        return gamma(flavor, word_image(inner), bar(bm_term(inner)))

    @cache
    def factor(word):
        image = word_image(word)
        if block is None or not image.terms:
            return image
        top = max(map(block, image.terms))
        return image._of({k: c for k, c in image.terms.items() if block(k) == top})

    def product(m):
        image = products.get(m)
        if image is None:
            for k in range(len(m)):
                prefix = m[:k + 1]
                hit = products.get(prefix)
                if hit is None:
                    atom = factor((0, 0, m[k], ()))
                    hit = products[prefix] = times(image, atom) if k else atom
                image = hit
        return image

    def image(bm):
        i, j, x, m = bm
        word = factor((i, j, x, ()))
        return times(word, product(m)) if m else word

    return image


def _check_lambda(term: tuple, nf: NormalForm):
    """Raise unless nf has term's localized image, compared as residues at
    a point seeded from the term's text, and exactly where the residues
    differ: an exact difference is a LambdaMismatch, and none is a fault
    of the point route."""
    direct, text = lambda_term(term), term_text(term)
    point = Point(text)
    if point.laurent(direct) == nf.lambda_image(point):
        return
    at = "point seed %s, modulus %d" % (point.seed, point.modulus)
    via_nf = nf.lambda_image()
    if direct != via_nf:
        m = min((direct - via_nf).terms)
        a, b = direct.terms.get(m, ZERO), via_nf.terms.get(m, ZERO)
        raise LambdaMismatch(
            "normalize changed the localized image of %r: the coefficient of %s "
            "is %s in the input's image and %s in the normal form's (%s)"
            % (text, PhiElement({m: ONE}), a, b, at)
        )
    raise InternalError(
        "the cross-check of %r at %s, found a mismatch that the exact images "
        "do not have" % (text, at)
    )


# --- the rewriting engine -------------------------------------------------


class GammaEngine:
    """Rewriter of terms to normal forms.  ``step_budget`` bounds the memo
    misses of ``nf_gamma`` and ``nf_mul`` in each ``normalize`` call; the
    memos persist across calls, so a later call pays only for new keys."""

    def __init__(self, step_budget: int = DEFAULT_STEP_BUDGET):
        self.step_budget = step_budget
        self._gamma_memo = {}
        self._mul_memo = {}
        self._atom_memo = {}
        self._steps = 0

    # -- public entry points ---------------------------------------------

    def normalize(self, term: tuple, check_lambda: bool = True) -> NormalForm:
        """The normal form of ``term``; ``StepBudgetExceeded`` once this call
        has more than ``step_budget`` memo misses."""
        self._steps = 0
        nf = self._eval(term)
        if check_lambda:
            _check_lambda(term, nf)
        return nf

    # -- AST evaluation ----------------------------------------------------

    def _eval(self, t: tuple) -> NormalForm:
        tag = t[0]
        if tag == "coeff":
            return NormalForm.unit(t[1])
        if tag == "zgen" and t[1] == 1:
            return NormalForm.of(P_BM)
        if tag in ("euler", "zgen"):
            return NormalForm.of(mk_plain([t]))
        if tag == "gamma":
            return NormalForm.total(self._gamma_pairs(t[1], self._eval(t[2])))
        if tag == "bar":
            return NormalForm.unit(AUG.aug(t[1]))
        if tag == "sum":
            return NormalForm.total((self._eval(s), ONE) for s in t[1])
        if tag == "prod":
            return reduce(self.nf_product, map(self._eval, t[1]), NormalForm.unit())
        raise ValueError("unknown term tag %r" % (tag,))

    # -- bilinear layers ----------------------------------------------------

    def _gamma_pairs(self, flavor: str, nf: NormalForm) -> list:
        """[(G_V(bm), c)] over the terms of nf, for NormalForm.total."""
        return [(self.nf_gamma(flavor, bm), c) for bm, c in nf.terms.items()]

    def nf_product(self, a: NormalForm, b: NormalForm) -> NormalForm:
        return NormalForm.total(
            (self.nf_mul(bm1, bm2), c1 * c2)
            for bm1, c1 in a.terms.items()
            for bm2, c2 in b.terms.items()
        )

    def _memoized(self, memo: dict, key: tuple, rewrite) -> NormalForm:
        """``rewrite(*key)`` through ``memo``; each miss is one rewrite step."""
        hit = memo.get(key)
        if hit is None:
            self._steps += 1
            if self._steps > self.step_budget:
                raise StepBudgetExceeded(
                    "rewrite step budget (%d) exhausted" % self.step_budget
                )
            hit = memo[key] = rewrite(*key)
        return hit

    # -- operator application on one monomial ------------------------------

    def nf_gamma(self, flavor: str, bm: tuple) -> NormalForm:
        return self._memoized(self._gamma_memo, (flavor, bm), self._nf_gamma)

    def _nf_gamma(self, flavor: str, bm: tuple) -> NormalForm:
        i, j, x, m = bm
        if not x:
            return NormalForm.zero()
        e_fl = t_euler(flavor)
        word = (i, j) != (0, 0)
        # G_V(e_V y) = y
        atoms = m if word else (x,) + m
        if e_fl in atoms:
            rest = list(atoms)
            rest.remove(e_fl)
            return NormalForm.of((i, j, x, tuple(rest)) if word else mk_plain(rest))
        if m:
            # G_V(u y) = G_V(u) y + bar(u) G_V(y), u the bare head
            head, y = (i, j, x, ()), mk_plain(m)
            g_head = self.nf_gamma(flavor, head).terms
            pairs = [(self.nf_mul(b, y), c) for b, c in g_head.items()]
            a = AUG.aug(bm_term(head))
            if a:
                pairs.append((self.nf_gamma(flavor, y), a))
            return NormalForm.total(pairs)
        if flavor == "r":
            if not word and x[0] == "zgen":
                # r-flavor on a Z-generator: route through the sphere class,
                # G_r(y) = P*(y - bar y) - G_s(y)
                return NormalForm(
                    {(1, 1, E_R, (x,)): ONE, P_BM: -AUG.aug(x), (0, 1, x, ()): -ONE}
                )
            return NormalForm.of((i + 1, j, x, ()))
        if i == 0:
            return NormalForm.of((0, j + 1, x, ()))
        # s after r: commute with the sphere-class correction
        _, inner = _outer(bm)
        pairs = self._gamma_pairs("r", self.nf_gamma("s", inner))
        c = AUG.aug_power(1, bm_term(inner))
        if c:
            pairs.append((NormalForm.of(P_BM), c))
        return NormalForm.total(pairs)

    # -- products of monomials --------------------------------------------

    def nf_mul(self, bm1: tuple, bm2: tuple) -> NormalForm:
        if bm1 == UNIT:
            return NormalForm.of(bm2)
        if bm2 == UNIT:
            return NormalForm.of(bm1)
        return self._memoized(self._mul_memo, tuple(sorted((bm1, bm2))), self._nf_mul)

    def _nf_mul(self, bm1: tuple, bm2: tuple) -> NormalForm:
        i1, j1, x1, m1 = bm1
        i2, j2, x2, m2 = bm2
        w1 = (i1, j1) != (0, 0)
        w2 = (i2, j2) != (0, 0)
        if not w1 and not w2:
            return NormalForm.of(mk_plain((x1,) + m1 + (x2,) + m2))
        if w1 and w2:
            # multiply the bare words, then fold in both multisets
            out = self._mul_bare_words((i1, j1, x1, ()), (i2, j2, x2, ()))
            atoms = m1 + m2
        else:
            out = NormalForm.of(bm1 if w1 else bm2)
            atoms = (x2,) + m2 if w1 else (x1,) + m1
        return self._fold_atoms(out, tuple(sorted(atoms)))

    def _fold_atoms(self, nf: NormalForm, atoms: tuple) -> NormalForm:
        for a in atoms:
            nf = NormalForm.total(
                (self._mul_bm_atom(bm, a), c) for bm, c in nf.terms.items()
            )
        return nf

    def _mul_bm_atom(self, bm: tuple, atom: tuple) -> NormalForm:
        # no rewrite step: a hit skips only calls that would hit the memos
        hit = self._atom_memo.get((bm, atom))
        if hit is None:
            hit = self._atom_memo[bm, atom] = self._bm_times_atom(bm, atom)
        return hit

    def _bm_times_atom(self, bm: tuple, atom: tuple) -> NormalForm:
        i, j, x, m = bm
        if not x:
            return NormalForm.of(mk_plain([atom]))
        if (i, j) == (0, 0):
            return NormalForm.of(mk_plain((x,) + m + (atom,)))
        candidate = (i, j, x, tuple(sorted(m + (atom,))))
        if bm_is_legal(candidate):
            return NormalForm.of(candidate)
        return self._fold_atoms(self._peel((i, j, x, ()), mk_plain([atom])), m)

    def _mul_bare_words(self, w1: tuple, w2: tuple) -> NormalForm:
        # strip one operator from the word with the larger base; prefer
        # the shorter word on ties, then the second argument
        k1 = (w1[2], -(w1[0] + w1[1]))
        k2 = (w2[2], -(w2[0] + w2[1]))
        if k1 > k2:
            return self._peel(w1, w2)
        return self._peel(w2, w1)

    def _peel(self, word: tuple, other: tuple) -> NormalForm:
        """Peel the outer operator of a bare word off a product:
        G_V(u)*w = G_V(u*w) - bar(u)*G_V(w)."""
        flavor, inner = _outer(word)
        pairs = self._gamma_pairs(flavor, self.nf_mul(inner, other))
        a = AUG.aug(bm_term(inner))
        if a:
            pairs.append((self.nf_gamma(flavor, other), -a))
        return NormalForm.total(pairs)


# --- basis enumeration and certification ------------------------------------


def two_colored_partitions(k: int) -> int:
    """Partitions of k with parts in two colors: coefficient of q^k in
    the square of the partition generating function."""
    if k < 0:
        return 0
    ways = [0] * (k + 1)
    ways[0] = 1
    for part in range(1, k + 1):
        for _ in range(2):
            for total in range(part, k + 1):
                ways[total] += ways[total - part]
    return ways[k]


VARIANTS = ("musf", "musf-work", "omega", "omega-lit", "omega-alt")


def _variant_atoms(variant: str, max_z_degree: int) -> list:
    atoms = [E_R, E_S] if variant.startswith("musf") else [Z1]
    for n in range(2, max_z_degree // 2 + 1):
        atoms.append(t_zgen(n, "r"))
        atoms.append(t_zgen(n, "s"))
    return atoms


def _word_ok(variant: str, i: int, j: int, x: tuple, m: tuple) -> bool:
    if variant == "musf":
        if x == E_S and j != 0:
            return False
        if x == E_R and j != 0 and E_S in m:
            return False
        if i != 0 and (j == 0 or E_R in m):
            return False
        return True
    if variant == "musf-work":
        return bm_is_legal((i, j, x, m))
    if variant == "omega":
        if j < 1:
            return False
        if x == Z1:
            return not m
        return True
    if variant == "omega-lit":
        if i != 0 and j == 0:
            return False
        return all(atom_degree(a) > atom_degree(x) for a in m)
    # omega-alt
    if x == Z1:
        return not m
    return True


def _multisets(atoms, room, e_budget):
    """All multisets over `atoms` of degree at most `room` and with at
    most e_budget e-atoms, as (room left, sorted tuple) pairs.  `atoms`
    is sorted ascending: the e-atoms (degree -2) come first, each one
    taken widens the room, and the positive atoms follow in nondecreasing
    degree, so the first one that does not fit ends the search."""
    out = []

    def rec(idx, room, e_room, head):
        if idx < len(atoms):
            a = atoms[idx]
            d = atom_degree(a)
            if d < 0:
                for count in range(e_room + 1):
                    rec(idx + 1, room - d * count, e_room - count, head + (a,) * count)
                return
            if d <= room:
                for count in range(room // d + 1):
                    rec(idx + 1, room - d * count, e_room, head + (a,) * count)
                return
        if room >= 0:
            out.append((room, head))

    rec(0, room, e_budget, ())
    return out


def enumerate_basis(degree_bound: int, variant: str = "musf", truncation: int = 4):
    """(degree, word) for every candidate basis monomial of degree <=
    degree_bound whose Euler/operator complexity fits the truncation
    bound, sorted by degree and then by word."""
    if variant not in VARIANTS:
        raise ValueError("unknown basis variant %r" % (variant,))
    n = truncation
    is_musf = variant.startswith("musf")
    atoms = _variant_atoms(variant, degree_bound + (2 * n if is_musf else 0))
    out = [(0, UNIT)] if degree_bound >= 0 else []
    # the multisets after x depend on the operators only through i + j
    for ops in range(n + 1):
        for x_idx, x in enumerate(atoms):
            base_cost = ops + (1 if x[0] == "euler" else 0)
            if base_cost > n:
                continue
            room = degree_bound - 2 * ops - atom_degree(x)
            tails = _multisets(atoms[x_idx:], room, n - base_cost if is_musf else n)
            for i in range(ops + 1):
                for left, m in tails:
                    if not ops or _word_ok(variant, i, ops - i, x, m):
                        out.append((degree_bound - left, (i, ops - i, x, m)))
    out.sort()
    return out


def _leading(image, tag: str, key):
    """(tagged leading monomial, coefficient) of a certify image under the
    monomial order `key`, or None."""
    if not image.terms:
        return None
    m = max(image.terms, key=key)
    return (tag, m), image.terms[m]


def certify_basis(
    degree_bound: int,
    variant: str = "musf",
    truncation: int = 4,
    order: str = "z_maxnorm",
    inject_duplicate: bool = False,
    convention: str = "same",
) -> dict:
    """Leading-term triangularity (and, for the quotient-side variants,
    per-degree count) report.  Failures are entries, not exceptions."""
    candidates = enumerate_basis(degree_bound, variant, truncation)
    # each order reads the image in its own presentation: Z or X
    if order == "z_maxnorm":
        tag, key, present = "z", z_maxnorm_key, to_z_basis
    elif order == "neg_lex":
        tag, key, present = "x", neg_lex_key, None
    else:
        raise ValueError("unknown monomial order %r" % (order,))
    # the first two key components respect products; the whole keys do not
    image = bm_images(convention, present, lambda m: key(m)[:2])
    if inject_duplicate:
        if not candidates:
            raise ValueError("nothing to duplicate: no word of degree <= %d" % degree_bound)
        candidates = candidates + [candidates[-1]]
    count_checked = variant.startswith("omega")
    degrees_report = []
    ok = True
    for d, group in itertools.groupby(candidates, lambda c: c[0]):
        entries = [bm for _, bm in group]
        failures = []
        leads = {}
        unit_leads = True
        for bm in entries:
            led = _leading(image(bm), tag, key)
            if led is None:
                unit_leads = False
                failures.append({"kind": "zero-image", "monomial": bm_json(bm, ONE)})
                continue
            lead_mono, lead_coeff = led
            if not (lead_coeff == ONE or lead_coeff == -ONE):
                unit_leads = False
                failures.append(
                    {
                        "kind": "non-unit-lead",
                        "monomial": bm_json(bm, ONE),
                        "lead_coeff": str(lead_coeff),
                    }
                )
            if lead_mono in leads:
                failures.append(
                    {
                        "kind": "lead-collision",
                        "pair": [bm_json(leads[lead_mono], ONE), bm_json(bm, ONE)],
                        "lead": repr(lead_mono),
                    }
                )
            else:
                leads[lead_mono] = bm
        entry = {
            "degree": d,
            "count": len(entries),
            "leads_distinct": not any(f["kind"] == "lead-collision" for f in failures),
            "unit_leads": unit_leads,
            "failures": failures,
        }
        if count_checked and d > 0:
            expected = two_colored_partitions(d // 2) - 1
            entry["expected_count"] = expected
            if len(entries) != expected:
                failures.append(
                    {"kind": "count-mismatch", "expected": expected, "got": len(entries)}
                )
        if failures:
            ok = False
        degrees_report.append(entry)
    return {
        "variant": variant,
        "order": order,
        "truncation": truncation,
        "degree_bound": degree_bound,
        "degrees": degrees_report,
        "ok": ok,
    }


# --- randomized identity verification ------------------------------------


def random_term(rng: random.Random, depth: int = 3, max_z: int = 5) -> tuple:
    """Random expression over the generators with nesting bounded by depth."""
    if depth <= 0:
        roll = rng.randrange(6)
        if roll == 0:
            return t_euler(rng.choice("rs"))
        if roll == 1:
            return t_zgen(rng.randint(1, max_z), rng.choice("rs"))
        if roll == 2:
            return t_int(rng.randint(-2, 2))
        if roll == 3:
            return t_coeff(cp(rng.randint(1, 3)))
        if roll == 4:
            return t_zgen(rng.randint(2, max_z), rng.choice("rs"))
        return t_euler(rng.choice("rs"))
    roll = rng.randrange(8)
    if roll <= 2:
        return t_gamma(rng.choice("rs"), random_term(rng, depth - 1, max_z))
    if roll <= 4:
        return t_prod(
            random_term(rng, depth - 1, max_z), random_term(rng, depth - 1, max_z)
        )
    if roll <= 6:
        return t_sum(
            random_term(rng, depth - 1, max_z), random_term(rng, depth - 1, max_z)
        )
    if roll == 7 and depth >= 2:
        return t_bar(random_term(rng, depth - 1, max_z))
    return random_term(rng, depth - 1, max_z)


def verify_relations(samples: int = 200, seed: int = 0) -> dict:
    """Check the defining identities under the localization map on random
    instances.  The reordering identity is checked with both flavors of
    the scalar coefficient; only the s-flavored choice vanishes."""
    rng = random.Random(seed)
    checks = dict.fromkeys((
        "divide_multiply", "exchange", "multiply_divide", "euler_vanishes",
        "product_formula", "flavor_swap", "reorder_corrected",
    ), 0)
    failures = []

    def check(name, residue, flavor=None):
        if residue.is_zero():
            checks[name] += 1
        else:
            failures.append((name, flavor, k))

    lam_p = lambda_term(P_TERM)

    def reorder(x):
        """Residues of G_s G_r(x) - G_r G_s(x) - c P for c = bar(G_s x)
        (corrected) and c = bar(G_r x) (literal)."""
        diff = lambda_term(t_gamma("s", t_gamma("r", x)))
        diff -= lambda_term(t_gamma("r", t_gamma("s", x)))
        return tuple(diff - lam_p.scale(AUG.aug(t_gamma(fl, x))) for fl in "sr")

    literal_nonzero = 0
    for k in range(samples):
        x = random_term(rng, depth=3, max_z=5)
        y = random_term(rng, depth=2, max_z=5)
        lam_x, lam_y = lambda_term(x), lambda_term(y)
        xbar = PhiElement.const(AUG.aug(x))
        ybar = PhiElement.const(AUG.aug(y))
        for flavor in FLAVORS:
            gx = lambda_term(t_gamma(flavor, x))
            gy = lambda_term(t_gamma(flavor, y))
            # e_V * G_V(x) = x - bar x
            e_gx = PhiElement.euler(flavor) * gx
            check("divide_multiply", e_gx - (lam_x - xbar), flavor)
            # G_V(x)(y - bar y) = (x - bar x) G_V(y)
            check("exchange", gx * (lam_y - ybar) - (lam_x - xbar) * gy, flavor)
            # G_V(e_V x) = x
            gex = lambda_term(t_gamma(flavor, t_prod(t_euler(flavor), x)))
            check("multiply_divide", gex - lam_x, flavor)
            # bar(e_V) = 0
            check("euler_vanishes", AUG.aug(t_euler(flavor)), flavor)
            # G_V(xy) = G_V(x) y + bar(x) G_V(y)
            gxy = lambda_term(t_gamma(flavor, t_prod(x, y)))
            check("product_formula", gxy - (gx * lam_y + gy.scale(AUG.aug(x))), flavor)
        # G_s(y) = P (y - bar y) - G_r(y)
        rhs = lam_p * (lam_y - ybar) - lambda_term(t_gamma("r", y))
        check("flavor_swap", lambda_term(t_gamma("s", y)) - rhs)
        # reordering: G_s G_r(x) = G_r G_s(x) + bar(G_s x) P
        corrected, literal = reorder(x)
        check("reorder_corrected", corrected)
        literal_nonzero += not literal.is_zero()
    # fixed witness: the r-flavored coefficient fails already on x = e_s
    witness_corrected, witness_literal = reorder(E_S)
    return {
        "samples": samples,
        "seed": seed,
        "checks": checks,
        "failures": failures,
        "reorder_literal": {
            "zero_instances": max(samples, 0) - literal_nonzero,
            "nonzero_instances": literal_nonzero,
            "witness_x_es_nonzero": not witness_literal.is_zero(),
            "witness_x_es_residue": str(witness_literal),
            "corrected_witness_vanishes": witness_corrected.is_zero(),
        },
        "ok": not failures and not witness_literal.is_zero(),
    }
