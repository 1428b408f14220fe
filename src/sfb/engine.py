"""Normalization engine for the operator calculus.

Values are rewritten to coefficient combinations of basis monomials
(i, j, x, m): i applications of the r-flavored extension operator over
j s-flavored ones, applied to a single generator x, times a multiset m
of generators.  Generator order: e_r < e_s < Z(2,r) < Z(2,s) < ...

Every rewrite rule is exact under the localization map, and
``normalize`` recomputes the localized image on both routes by default;
a mismatch raises instead of being silently discarded.

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

import os
import random

from .coeff import CoeffElement, ONE, ZERO, cp
from .phi import (
    Combination,
    PhiElement,
    leading_term,
    mono_json,
    neg_lex_key,
    to_z_basis,
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
from .aug import AugEnv

DEFAULT_STEP_BUDGET = 10 ** 6

# one shared augmentation memo; it is a pure function of the term
AUG = AugEnv()


class StepBudgetExceeded(RuntimeError):
    pass


class LambdaMismatch(RuntimeError):
    """Normalization produced a different localized image than the input."""


# --- generator atoms ------------------------------------------------------

E_R = ("e", "r")
E_S = ("e", "s")


def z_atom(n: int, flavor: str) -> tuple:
    if n < 2:
        raise ValueError("stored Z-generators start at index 2")
    return ("Z", n, flavor)


Z1 = ("Z1",)  # degree-2 sphere class, used by the quotient-side bases


def atom_order(atom: tuple) -> tuple:
    if atom[0] == "e":
        return (0, 0 if atom[1] == "r" else 1, 0)
    if atom == Z1:
        return (1, 1, 0)
    return (1, atom[1], 0 if atom[2] == "r" else 1)


def atom_degree(atom: tuple) -> int:
    if atom[0] == "e":
        return -2
    if atom == Z1:
        return 2
    return 2 * atom[1]


def atom_term(atom: tuple) -> tuple:
    if atom[0] == "e":
        return t_euler(atom[1])
    if atom == Z1:
        return t_zgen(1, "r")
    return t_zgen(atom[1], atom[2])


def atom_name(atom: tuple) -> str:
    if atom[0] == "e":
        return "e_%s" % atom[1]
    if atom == Z1:
        return "Z1"
    return "Z(%d,%s)" % (atom[1], atom[2])


def atom_aug(atom: tuple) -> CoeffElement:
    if atom[0] == "e":
        return ZERO
    if atom == Z1:
        return cp(1)
    return cp(atom[1])


# --- basis monomials -----------------------------------------------------

UNIT = (0, 0, None, ())
P_BM = (1, 1, E_R, ())


def mk_plain(atoms) -> tuple:
    atoms = tuple(sorted(atoms, key=atom_order))
    if not atoms:
        return UNIT
    return (0, 0, atoms[0], atoms[1:])


def bm_degree(bm: tuple) -> int:
    i, j, x, m = bm
    d = 2 * (i + j)
    if x is not None:
        d += atom_degree(x)
    return d + sum(atom_degree(a) for a in m)


def bm_term(bm: tuple) -> tuple:
    i, j, x, m = bm
    if x is None:
        return t_int(1)
    core = atom_term(x)
    for _ in range(j):
        core = t_gamma("s", core)
    for _ in range(i):
        core = t_gamma("r", core)
    if not m:
        return core
    return t_prod(core, *(atom_term(a) for a in m))


def bm_sort_key(bm: tuple) -> tuple:
    i, j, x, m = bm
    return (
        i,
        j,
        atom_order(x) if x is not None else (-1,),
        tuple(atom_order(a) for a in m),
    )


def bm_json(bm: tuple, coeff: CoeffElement) -> dict:
    i, j, x, m = bm
    return {
        "i": i,
        "j": j,
        "x": atom_name(x) if x is not None else None,
        "m": [atom_name(a) for a in m],
        "coeff": str(coeff),
    }


def bm_is_legal(bm: tuple) -> bool:
    i, j, x, m = bm
    if i < 0 or j < 0:
        return False
    if x is None:
        return (i, j) == (0, 0) and not m
    if any(atom_order(a) < atom_order(x) for a in m):
        return False
    if (i, j) == (0, 0):
        return True
    if x == E_R:
        if j < 1 or E_S in m:
            return False
        return i == 0 or all(a[0] == "Z" for a in m)
    if x == E_S:
        return i >= 1 and j == 0
    return j >= 1 and all(a[0] == "Z" for a in m)


# --- normal forms -------------------------------------------------------


class NormalForm(Combination):
    """Sparse map basis monomial -> coefficient, with cached views."""

    __slots__ = ("_lambda", "_aug")
    _key_degree = staticmethod(bm_degree)

    def __init__(self, terms=None):
        super().__init__(terms)
        self._lambda = None
        self._aug = None

    def add_scaled(self, other, c):
        # an in-place update invalidates the cached views
        self._lambda = self._aug = None
        super().add_scaled(other, c)

    @staticmethod
    def unit(c=ONE) -> "NormalForm":
        if isinstance(c, int):
            c = CoeffElement.integer(c)
        return NormalForm({UNIT: c})

    @staticmethod
    def of(bm: tuple, c=ONE) -> "NormalForm":
        if isinstance(c, int):
            c = CoeffElement.integer(c)
        return NormalForm({bm: c})

    def to_term(self) -> tuple:
        if not self.terms:
            return t_int(0)
        parts = []
        for bm in sorted(self.terms, key=bm_sort_key):
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

    def to_json(self) -> list:
        return [
            bm_json(bm, self.terms[bm])
            for bm in sorted(self.terms, key=bm_sort_key)
        ]

    def lambda_image(self, convention: str = "same") -> PhiElement:
        """Sum of c * lambda(bm).  The image of each bare word (i, j, x)
        is built once per call from that of its inner word, and the
        image of each multiset m once per call from its atoms."""
        if self._lambda is None or self._lambda[0] != convention:
            words, multisets, acc = {}, {(): PhiElement.one()}, PhiElement()

            def word_image(i, j, x):
                lam = words.get((i, j, x))
                if lam is None:
                    if (i, j) == (0, 0):
                        lam = lambda_term(bm_term((0, 0, x, ())), convention)
                    else:
                        flavor = "r" if i else "s"
                        inner = (i - 1, j, x) if i else (0, j - 1, x)
                        lam = _lambda_gamma(
                            flavor, word_image(*inner), bm_term(inner + ((),))
                        )
                    words[(i, j, x)] = lam
                return lam

            for (i, j, x, m), c in self.terms.items():
                lam_m = multisets.get(m)
                if lam_m is None:
                    lam_m = PhiElement.one()
                    for a in m:
                        lam_m = lam_m * lambda_term(atom_term(a), convention)
                    multisets[m] = lam_m
                acc.add_scaled(word_image(i, j, x) * lam_m, c)
            self._lambda = (convention, acc)
        return self._lambda[1]

    def aug(self) -> CoeffElement:
        if self._aug is None:
            acc = ZERO
            for bm, c in self.terms.items():
                acc = acc + c * AUG.aug(bm_term(bm))
            self._aug = acc
        return self._aug

    def __repr__(self):
        return "NormalForm<%s>" % self.text()


# --- localized evaluation ---------------------------------------------------


def lambda_term(t: tuple, convention: str = "same") -> PhiElement:
    """Image under the fixed-point localization map; may carry A-symbols."""
    from .phi import z_gen

    tag = t[0]
    if tag == "coeff":
        return PhiElement.const(t[1])
    if tag == "euler":
        return PhiElement.euler(t[1], 1)
    if tag == "zgen":
        return z_gen(t[1], t[2], convention)
    if tag == "gamma":
        return _lambda_gamma(t[1], lambda_term(t[2], convention), t[2])
    if tag == "bar":
        return PhiElement.const(AUG.aug(t[1]))
    if tag == "sum":
        acc = PhiElement()
        for s in t[1]:
            acc.add_scaled(lambda_term(s, convention), ONE)
        return acc
    if tag == "prod":
        acc = PhiElement.one()
        for s in t[1]:
            acc = acc * lambda_term(s, convention)
        return acc
    raise ValueError("unknown term tag %r" % (tag,))


def _lambda_gamma(flavor: str, inner: PhiElement, inner_term: tuple) -> PhiElement:
    """lambda(G_V y) = e_V^-1 (lambda(y) - bar y), given lambda(y)."""
    scalar = PhiElement.const(AUG.aug(inner_term))
    return PhiElement.euler(flavor, -1) * (inner - scalar)


# --- the rewriting engine -------------------------------------------------


class GammaEngine:
    def __init__(self, step_budget=None, z_convention: str = "same"):
        if step_budget is None:
            step_budget = int(os.environ.get("SFB_STEP_BUDGET", DEFAULT_STEP_BUDGET))
        self.step_budget = step_budget
        self.z_convention = z_convention
        self._gamma_memo = {}
        self._mul_memo = {}
        self._steps = 0

    # -- public entry points ---------------------------------------------

    def normalize(self, term: tuple, check_lambda: bool = True, rng=None) -> NormalForm:
        self._steps = 0
        nf = self._eval(term, rng)
        if check_lambda:
            direct = lambda_term(term, self.z_convention)
            via_nf = nf.lambda_image(self.z_convention)
            if direct != via_nf:
                raise LambdaMismatch(
                    "normalize changed the localized image of %r: %s vs %s"
                    % (term_text(term), direct, via_nf)
                )
        return nf

    def is_geometric(self, term: tuple):
        """(True|False|"unknown", certificate-or-None).

        True iff the localized image has no positive Euler powers.  A
        definite False needs a symbol-free nonzero obstruction; if every
        obstruction involves A-symbols the answer depends on their
        values and is reported as unknown.
        """
        lam = lambda_term(term, self.z_convention)
        outside = lam.project_C()
        if outside.is_zero():
            return True, None
        found = outside.first_symbol_free_part()
        if found is not None:
            return False, dict(mono_json(found[0]), coeff=str(found[1]))
        return "unknown", {"pending": sorted(
            aug_symbol_texts(outside)), "projection": str(outside)}

    # -- AST evaluation ----------------------------------------------------

    def _eval(self, t: tuple, rng) -> NormalForm:
        tag = t[0]
        if tag == "coeff":
            return NormalForm.unit(t[1])
        if tag == "euler":
            return NormalForm.of(mk_plain([("e", t[1])]))
        if tag == "zgen":
            if t[1] == 1:
                return NormalForm.of(P_BM)
            return NormalForm.of(mk_plain([z_atom(t[1], t[2])]))
        if tag == "gamma":
            return self.nf_gamma_elem(t[1], self._eval(t[2], rng))
        if tag == "bar":
            return NormalForm.unit(AUG.aug(t[1]))
        if tag == "sum":
            children = list(t[1])
            if rng is not None:
                rng.shuffle(children)
            acc = NormalForm()
            for s in children:
                acc.add_scaled(self._eval(s, rng), ONE)
            return acc
        if tag == "prod":
            children = list(t[1])
            if rng is not None:
                rng.shuffle(children)
            acc = NormalForm.unit()
            for s in children:
                acc = self.nf_product(acc, self._eval(s, rng))
            return acc
        raise ValueError("unknown term tag %r" % (tag,))

    # -- bilinear layers ----------------------------------------------------

    def nf_gamma_elem(self, flavor: str, nf: NormalForm) -> NormalForm:
        acc = NormalForm()
        for bm, c in nf.terms.items():
            acc.add_scaled(self.nf_gamma(flavor, bm), c)
        return acc

    def nf_product(self, a: NormalForm, b: NormalForm) -> NormalForm:
        acc = NormalForm()
        for bm1, c1 in a.terms.items():
            for bm2, c2 in b.terms.items():
                acc.add_scaled(self.nf_mul(bm1, bm2), c1 * c2)
        return acc

    def _tick(self):
        self._steps += 1
        if self._steps > self.step_budget:
            raise StepBudgetExceeded(
                "rewrite step budget (%d) exhausted" % self.step_budget
            )

    # -- operator application on one monomial ------------------------------

    def nf_gamma(self, flavor: str, bm: tuple) -> NormalForm:
        key = (flavor, bm)
        hit = self._gamma_memo.get(key)
        if hit is not None:
            return hit
        self._tick()
        value = self._nf_gamma(flavor, bm)
        self._gamma_memo[key] = value
        return value

    def _nf_gamma(self, flavor: str, bm: tuple) -> NormalForm:
        i, j, x, m = bm
        if x is None:
            return NormalForm.zero()
        e_fl = ("e", flavor)
        if (i, j) == (0, 0):
            atoms = (x,) + m
            if e_fl in atoms:
                rest = list(atoms)
                rest.remove(e_fl)
                return NormalForm.of(mk_plain(rest))
            if not m:
                return self._gamma_atom(flavor, x)
            rest = mk_plain(m)
            out = self.nf_product(
                self._gamma_atom(flavor, x), NormalForm.of(rest)
            )
            a = atom_aug(x)
            if not a.is_zero():
                out = out + self.nf_gamma(flavor, rest).scale(a)
            return out
        # words
        if e_fl in m:
            rest = list(m)
            rest.remove(e_fl)
            return NormalForm.of((i, j, x, tuple(rest)))
        if m:
            bare = (i, j, x, ())
            out = self.nf_product(
                self.nf_gamma(flavor, bare), NormalForm.of(mk_plain(m))
            )
            a = AUG.aug(bm_term(bare))
            if not a.is_zero():
                out = out + self.nf_gamma_elem(
                    flavor, NormalForm.of(mk_plain(m))
                ).scale(a)
            return out
        if flavor == "r":
            return NormalForm.of((i + 1, j, x, ()))
        if i == 0:
            return NormalForm.of((0, j + 1, x, ()))
        # s after r: commute with the sphere-class correction
        inner = (i - 1, j, x, ())
        out = self.nf_gamma_elem("r", self.nf_gamma("s", inner))
        c = AUG.aug_power(1, bm_term(inner))
        if not c.is_zero():
            out = out + NormalForm.of(P_BM, c)
        return out

    def _gamma_atom(self, flavor: str, atom: tuple) -> NormalForm:
        if atom == ("e", flavor):
            return NormalForm.unit()
        if flavor == "r" and atom == E_S:
            return NormalForm.of((1, 0, E_S, ()))
        if flavor == "s" and atom == E_R:
            return NormalForm.of((0, 1, E_R, ()))
        if atom[0] != "Z":
            raise ValueError("operator applied to unknown atom %r" % (atom,))
        if flavor == "s":
            return NormalForm.of((0, 1, atom, ()))
        # r-flavor on a Z-generator: route through the sphere class,
        # G_r(y) = P*(y - bar y) - G_s(y)
        g = atom_aug(atom)
        return (
            NormalForm.of((1, 1, E_R, (atom,)))
            + NormalForm.of(P_BM, -g)
            + NormalForm.of((0, 1, atom, ()), -ONE)
        )

    # -- products of monomials --------------------------------------------

    def nf_mul(self, bm1: tuple, bm2: tuple) -> NormalForm:
        if bm1 == UNIT:
            return NormalForm.of(bm2)
        if bm2 == UNIT:
            return NormalForm.of(bm1)
        a, b = sorted((bm1, bm2), key=bm_sort_key)
        key = (a, b)
        hit = self._mul_memo.get(key)
        if hit is not None:
            return hit
        self._tick()
        value = self._nf_mul(a, b)
        self._mul_memo[key] = value
        return value

    def _nf_mul(self, bm1: tuple, bm2: tuple) -> NormalForm:
        i1, j1, x1, m1 = bm1
        i2, j2, x2, m2 = bm2
        w1 = (i1, j1) != (0, 0)
        w2 = (i2, j2) != (0, 0)
        if not w1 and not w2:
            return NormalForm.of(mk_plain((x1,) + m1 + (x2,) + m2))
        if w1 and not w2:
            return self._mul_word_atoms(bm1, (x2,) + m2)
        if w2 and not w1:
            return self._mul_word_atoms(bm2, (x1,) + m1)
        # two words: multiply the bare words, then fold in both multisets
        out = self._mul_bare_words((i1, j1, x1, ()), (i2, j2, x2, ()))
        atoms = tuple(sorted(m1 + m2, key=atom_order))
        return self._fold_atoms(out, atoms)

    def _mul_word_atoms(self, word: tuple, atoms: tuple) -> NormalForm:
        return self._fold_atoms(
            NormalForm.of(word), tuple(sorted(atoms, key=atom_order))
        )

    def _fold_atoms(self, nf: NormalForm, atoms: tuple) -> NormalForm:
        for a in atoms:
            acc = NormalForm()
            for bm, c in nf.terms.items():
                acc.add_scaled(self._mul_bm_atom(bm, a), c)
            nf = acc
        return nf

    def _mul_bm_atom(self, bm: tuple, atom: tuple) -> NormalForm:
        i, j, x, m = bm
        if x is None:
            return NormalForm.of(mk_plain([atom]))
        if (i, j) == (0, 0):
            return NormalForm.of(mk_plain((x,) + m + (atom,)))
        candidate = (i, j, x, tuple(sorted(m + (atom,), key=atom_order)))
        if bm_is_legal(candidate):
            return NormalForm.of(candidate)
        # peel the outer operator: G_V(u)*a = G_V(u*a) - bar(u)*G_V(a)
        flavor = "r" if i >= 1 else "s"
        inner = (i - 1, j, x, ()) if i >= 1 else (i, j - 1, x, ())
        atom_nf = NormalForm.of(mk_plain([atom]))
        core = self.nf_gamma_elem(
            flavor, self.nf_product(NormalForm.of(inner), atom_nf)
        )
        ai = AUG.aug(bm_term(inner))
        if not ai.is_zero():
            core = core - self.nf_gamma(flavor, mk_plain([atom])).scale(ai)
        if m:
            core = self._fold_atoms(core, m)
        return core

    def _mul_bare_words(self, w1: tuple, w2: tuple) -> NormalForm:
        # strip one operator from the word with the larger base; prefer
        # the shorter word on ties, then the second argument
        k1 = (atom_order(w1[2]), -(w1[0] + w1[1]))
        k2 = (atom_order(w2[2]), -(w2[0] + w2[1]))
        victim, other = (w1, w2) if k1 > k2 else (w2, w1)
        i, j, x, _ = victim
        flavor = "r" if i >= 1 else "s"
        inner = (i - 1, j, x, ()) if i >= 1 else (i, j - 1, x, ())
        core = self.nf_gamma_elem(flavor, self.nf_mul(inner, other))
        ai = AUG.aug(bm_term(inner))
        if not ai.is_zero():
            core = core - self.nf_gamma(flavor, other).scale(ai)
        return core


def aug_symbol_texts(phi: PhiElement) -> set:
    from .coeff import aug_symbol_name

    return {aug_symbol_name(k) for k in phi.aug_symbols()}


# --- single-step helper identity ----------------------------------------


def swap_division_flavor(t: tuple) -> tuple:
    """One application of  G_s(y) = P*(y - bar y) - G_r(y)  (either flavor
    orientation), checked exact under the localization map."""
    if t[0] != "gamma":
        raise ValueError("expected an operator application")
    flavor, y = t[1], t[2]
    p_term = t_gamma("r", t_gamma("s", t_euler("r")))
    other = "r" if flavor == "s" else "s"
    diff = t_sum(y, t_prod(t_int(-1), t_bar(y)))
    out = t_sum(
        t_prod(p_term, diff),
        t_prod(t_int(-1), t_gamma(other, y)),
    )
    if lambda_term(t) != lambda_term(out):
        raise LambdaMismatch("identity misapplied to %s" % term_text(t))
    return out


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
    atoms = []
    if variant.startswith("musf"):
        atoms.extend([E_R, E_S])
        start = 2
    else:
        atoms.append(Z1)
        start = 2
    for n in range(start, max_z_degree // 2 + 1):
        atoms.append(z_atom(n, "r"))
        atoms.append(z_atom(n, "s"))
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
    if variant == "omega-alt":
        if x == Z1:
            return not m
        return True
    raise ValueError("unknown basis variant %r" % (variant,))


def _multisets(atoms, max_pos_degree, e_budget):
    """All multisets over `atoms` (sorted ascending) whose positive-degree
    part stays within max_pos_degree and whose e-count stays within
    e_budget.  Yields sorted tuples."""

    def rec(idx, pos_room, e_room):
        if idx == len(atoms):
            yield ()
            return
        a = atoms[idx]
        d = atom_degree(a)
        if d < 0:
            top = e_room
        else:
            top = pos_room // d
        for count in range(top + 1):
            head = (a,) * count
            for tail in rec(
                idx + 1,
                pos_room - (d * count if d > 0 else 0),
                e_room - (count if d < 0 else 0),
            ):
                yield head + tail

    return rec(0, max_pos_degree, e_budget)


def enumerate_basis(degree_bound: int, variant: str = "musf", truncation: int = 4):
    """All candidate basis monomials of degree <= degree_bound whose
    Euler/operator complexity fits the truncation bound."""
    n = truncation
    is_musf = variant.startswith("musf")
    max_pos = degree_bound + (2 * n if is_musf else 0)
    atoms = _variant_atoms(variant, max_pos)
    out = [UNIT]
    seen = {UNIT}
    for i in range(n + 1):
        for j in range(n + 1 - i):
            for x_idx, x in enumerate(atoms):
                base_cost = i + j + (1 if x[0] == "e" else 0)
                if base_cost > n:
                    continue
                word = (i, j) != (0, 0)
                for m in _multisets(
                    atoms[x_idx:], max_pos, n - base_cost if is_musf else n
                ):
                    bm = (i, j, x, m)
                    if bm_degree(bm) > degree_bound:
                        continue
                    if word and not _word_ok(variant, i, j, x, m):
                        continue
                    if bm not in seen:
                        seen.add(bm)
                        out.append(bm)
    out.sort(key=lambda bm: (bm_degree(bm), bm_sort_key(bm)))
    return out


ORDERS = {"z_maxnorm": "z", "neg_lex": "x"}


def _leading(lam: PhiElement, order: str):
    if order == "z_maxnorm":
        z = to_z_basis(lam)
        if not z.terms:
            return None
        m = max(z.terms, key=z_maxnorm_key)
        return ("z", m), z.terms[m]
    if order == "neg_lex":
        lead = leading_term(lam, neg_lex_key)
        if lead is None:
            return None
        return ("x", lead[0]), lead[1]
    raise ValueError("unknown monomial order %r" % (order,))


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
    if inject_duplicate and len(candidates) > 1:
        candidates = candidates + [candidates[-1]]
    by_degree = {}
    for bm in candidates:
        by_degree.setdefault(bm_degree(bm), []).append(bm)
    count_checked = variant.startswith("omega")
    degrees_report = []
    ok = True
    for d in sorted(by_degree):
        entries = by_degree[d]
        failures = []
        leads = {}
        unit_leads = True
        for bm in entries:
            lam = lambda_term(bm_term(bm), convention)
            led = _leading(lam, order)
            if led is None:
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


def verify_relations(samples: int = 200, seed: int = 0, convention: str = "same") -> dict:
    """Check the defining identities under the localization map on random
    instances.  The reordering identity is checked with both flavors of
    the scalar coefficient; only the s-flavored choice vanishes."""
    rng = random.Random(seed)
    p_term = t_gamma("r", t_gamma("s", t_euler("r")))
    checks = {
        "divide_multiply": 0,
        "exchange": 0,
        "multiply_divide": 0,
        "euler_vanishes": 0,
        "product_formula": 0,
        "flavor_swap": 0,
        "reorder_corrected": 0,
    }
    failures = []
    literal_nonzero = 0
    literal_zero = 0
    for k in range(samples):
        x = random_term(rng, depth=3, max_z=5)
        y = random_term(rng, depth=2, max_z=5)
        lam_x = lambda_term(x, convention)
        lam_y = lambda_term(y, convention)
        xbar = PhiElement.const(AUG.aug(x))
        ybar = PhiElement.const(AUG.aug(y))
        for flavor in ("r", "s"):
            e = PhiElement.euler(flavor, 1)
            gx = lambda_term(t_gamma(flavor, x), convention)
            gy = lambda_term(t_gamma(flavor, y), convention)
            # e_V * G_V(x) = x - bar x
            if (e * gx - (lam_x - xbar)).is_zero():
                checks["divide_multiply"] += 1
            else:
                failures.append(("divide_multiply", flavor, k))
            # G_V(x)(y - bar y) = (x - bar x) G_V(y)
            if (gx * (lam_y - ybar) - (lam_x - xbar) * gy).is_zero():
                checks["exchange"] += 1
            else:
                failures.append(("exchange", flavor, k))
            # G_V(e_V x) = x
            gex = lambda_term(t_gamma(flavor, t_prod(t_euler(flavor), x)), convention)
            if (gex - lam_x).is_zero():
                checks["multiply_divide"] += 1
            else:
                failures.append(("multiply_divide", flavor, k))
            # bar(e_V) = 0
            if AUG.aug(t_euler(flavor)).is_zero():
                checks["euler_vanishes"] += 1
            else:
                failures.append(("euler_vanishes", flavor, k))
            # G_V(xy) = G_V(x) y + bar(x) G_V(y)
            gxy = lambda_term(t_gamma(flavor, t_prod(x, y)), convention)
            if (gxy - (gx * lam_y + gy.scale(AUG.aug(x)))).is_zero():
                checks["product_formula"] += 1
            else:
                failures.append(("product_formula", flavor, k))
        # G_s(y) = P (y - bar y) - G_r(y)
        lhs = lambda_term(t_gamma("s", y), convention)
        rhs = lambda_term(p_term, convention) * (lam_y - ybar) - lambda_term(
            t_gamma("r", y), convention
        )
        if (lhs - rhs).is_zero():
            checks["flavor_swap"] += 1
        else:
            failures.append(("flavor_swap", None, k))
        # reordering: G_s G_r(x) = G_r G_s(x) + bar(G_s x) P
        lam_p = lambda_term(p_term, convention)
        sr = lambda_term(t_gamma("s", t_gamma("r", x)), convention)
        rs = lambda_term(t_gamma("r", t_gamma("s", x)), convention)
        corrected = sr - rs - lam_p.scale(AUG.aug(t_gamma("s", x)))
        if corrected.is_zero():
            checks["reorder_corrected"] += 1
        else:
            failures.append(("reorder_corrected", None, k))
        literal = sr - rs - lam_p.scale(AUG.aug(t_gamma("r", x)))
        if literal.is_zero():
            literal_zero += 1
        else:
            literal_nonzero += 1
    # fixed witness: the r-flavored coefficient fails already on x = e_s
    e_s = t_euler("s")
    sr = lambda_term(t_gamma("s", t_gamma("r", e_s)), convention)
    rs = lambda_term(t_gamma("r", t_gamma("s", e_s)), convention)
    lam_p = lambda_term(p_term, convention)
    witness_literal = sr - rs - lam_p.scale(AUG.aug(t_gamma("r", e_s)))
    witness_corrected = sr - rs - lam_p.scale(AUG.aug(t_gamma("s", e_s)))
    return {
        "samples": samples,
        "seed": seed,
        "checks": checks,
        "failures": failures,
        "reorder_literal": {
            "zero_instances": literal_zero,
            "nonzero_instances": literal_nonzero,
            "witness_x_es_nonzero": not witness_literal.is_zero(),
            "witness_x_es_residue": str(witness_literal),
            "corrected_witness_vanishes": witness_corrected.is_zero(),
        },
        "ok": not failures and not witness_literal.is_zero(),
    }
