"""Normalization engine for the operator calculus.

Values are rewritten to coefficient combinations of basis monomials
(i, j, x, m): i applications of the r-flavored extension operator over
j s-flavored ones, applied to a single generator x, times a multiset m
of generators.  A generator is its own term (``("euler", V)`` or
``("zgen", n, V)``), and the unit's x is ``()``; since "euler" < "zgen",
plain tuple order is the generator order e_r < e_s < Z(2,r) < Z(2,s) < ...
and a basis monomial sorts as itself.

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

import itertools
import os
import random

from .coeff import CoeffElement, ONE, ZERO, aug_symbol_name, cp
from .phi import (
    Combination,
    PhiElement,
    leading_term,
    mono_json,
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
from .aug import AUG

DEFAULT_STEP_BUDGET = 10 ** 6


class StepBudgetExceeded(RuntimeError):
    pass


class LambdaMismatch(RuntimeError):
    """Normalization produced a different localized image than the input."""


# --- generator atoms ------------------------------------------------------

E_R = t_euler("r")
E_S = t_euler("s")


def z_atom(n: int, flavor: str) -> tuple:
    if n < 2:
        raise ValueError("stored Z-generators start at index 2")
    return t_zgen(n, flavor)


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

    def lambda_image(self, convention: str = "same") -> PhiElement:
        """Sum of c * lambda(bm), over images built once per call."""
        image = bm_images(convention)
        acc = PhiElement()
        for bm, c in self.terms.items():
            acc.add_scaled(image(bm), c)
        return acc

    def aug(self) -> CoeffElement:
        acc = ZERO
        for bm, c in self.terms.items():
            acc = acc + c * AUG.aug(bm_term(bm))
        return acc


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


def _outer(word: tuple) -> tuple:
    """(flavor, inner bare word) of a word's outermost operator."""
    i, j, x = word[:3]
    return ("r", (i - 1, j, x, ())) if i else ("s", (0, j - 1, x, ()))


def bm_images(convention: str = "same", present=None):
    """bm -> lambda(bm), or present(lambda(bm)) for a ring map `present`
    such as to_z_basis.  lambda is multiplicative, so an image is its
    bare word's image times its atoms'.  Each word's lambda is built from
    its inner word's, `present` runs once per word and once per atom (the
    plain word (0, 0, a, ())), and each multiset product is built from
    its prefix, in memos that live as long as the returned function."""
    lam, shown, products = {}, {}, {}

    def word_lambda(word):
        image = lam.get(word)
        if image is None:
            if word[:2] == (0, 0):
                image = lambda_term(bm_term(word), convention)
            else:
                flavor, inner = _outer(word)
                image = _lambda_gamma(flavor, word_lambda(inner), bm_term(inner))
            lam[word] = image
        return image

    def word_image(word):
        image = shown.get(word)
        if image is None:
            image = word_lambda(word)
            if present is not None:
                image = present(image)
            shown[word] = image
        return image

    def product(m):
        image = products.get(m)
        if image is None:
            for k in range(len(m)):
                prefix = m[:k + 1]
                hit = products.get(prefix)
                if hit is None:
                    atom = word_image((0, 0, m[k], ()))
                    hit = products[prefix] = image * atom if k else atom
                image = hit
        return image

    def image(bm):
        i, j, x, m = bm
        word = word_image((i, j, x, ()))
        return word * product(m) if m else word

    return image


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

    def normalize(self, term: tuple, check_lambda: bool = True) -> NormalForm:
        self._steps = 0
        nf = self._eval(term)
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

    def _eval(self, t: tuple) -> NormalForm:
        tag = t[0]
        if tag == "coeff":
            return NormalForm.unit(t[1])
        if tag == "zgen" and t[1] == 1:
            return NormalForm.of(P_BM)
        if tag in ("euler", "zgen"):
            return NormalForm.of(mk_plain([t]))
        if tag == "gamma":
            return self.nf_gamma_elem(t[1], self._eval(t[2]))
        if tag == "bar":
            return NormalForm.unit(AUG.aug(t[1]))
        if tag == "sum":
            acc = NormalForm()
            for s in t[1]:
                acc.add_scaled(self._eval(s), ONE)
            return acc
        if tag == "prod":
            acc = NormalForm.unit()
            for s in t[1]:
                acc = self.nf_product(acc, self._eval(s))
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
            out = self.nf_product(self.nf_gamma(flavor, head), NormalForm.of(y))
            a = AUG.aug(bm_term(head))
            if not a.is_zero():
                out = out + self.nf_gamma(flavor, y).scale(a)
            return out
        if not word:
            return self._gamma_atom(flavor, x)
        if flavor == "r":
            return NormalForm.of((i + 1, j, x, ()))
        if i == 0:
            return NormalForm.of((0, j + 1, x, ()))
        # s after r: commute with the sphere-class correction
        _, inner = _outer(bm)
        out = self.nf_gamma_elem("r", self.nf_gamma("s", inner))
        c = AUG.aug_power(1, bm_term(inner))
        if not c.is_zero():
            out = out + NormalForm.of(P_BM, c)
        return out

    def _gamma_atom(self, flavor: str, atom: tuple) -> NormalForm:
        if atom == t_euler(flavor):
            return NormalForm.unit()
        if flavor == "r" and atom == E_S:
            return NormalForm.of((1, 0, E_S, ()))
        if flavor == "s" and atom == E_R:
            return NormalForm.of((0, 1, E_R, ()))
        if atom[0] != "zgen":
            raise ValueError("operator applied to unknown atom %r" % (atom,))
        if flavor == "s":
            return NormalForm.of((0, 1, atom, ()))
        # r-flavor on a Z-generator: route through the sphere class,
        # G_r(y) = P*(y - bar y) - G_s(y)
        g = AUG.aug(atom)
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
        a, b = sorted((bm1, bm2))
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
            acc = NormalForm()
            for bm, c in nf.terms.items():
                acc.add_scaled(self._mul_bm_atom(bm, a), c)
            nf = acc
        return nf

    def _mul_bm_atom(self, bm: tuple, atom: tuple) -> NormalForm:
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
        out = self.nf_gamma_elem(flavor, self.nf_mul(inner, other))
        a = AUG.aug(bm_term(inner))
        if not a.is_zero():
            out = out - self.nf_gamma(flavor, other).scale(a)
        return out


def aug_symbol_texts(phi: PhiElement) -> set:
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
    atoms = [E_R, E_S] if variant.startswith("musf") else [Z1]
    for n in range(2, max_z_degree // 2 + 1):
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


def _multisets(atoms, room, e_budget):
    """All multisets over `atoms` of degree at most `room` and with at
    most e_budget e-atoms, as sorted tuples.  `atoms` is sorted
    ascending: the e-atoms (degree -2) come first, each one taken widens
    the room, and the positive atoms follow in nondecreasing degree, so
    the first one that does not fit ends the search."""
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
            out.append(head)

    rec(0, room, e_budget, ())
    return out


def enumerate_basis(degree_bound: int, variant: str = "musf", truncation: int = 4):
    """All candidate basis monomials of degree <= degree_bound whose
    Euler/operator complexity fits the truncation bound."""
    n = truncation
    is_musf = variant.startswith("musf")
    atoms = _variant_atoms(variant, degree_bound + (2 * n if is_musf else 0))
    out = [UNIT]
    for i in range(n + 1):
        for j in range(n + 1 - i):
            for x_idx, x in enumerate(atoms):
                base_cost = i + j + (1 if x[0] == "euler" else 0)
                if base_cost > n:
                    continue
                word = (i, j) != (0, 0)
                room = degree_bound - 2 * (i + j) - atom_degree(x)
                for m in _multisets(
                    atoms[x_idx:], room, n - base_cost if is_musf else n
                ):
                    if not word or _word_ok(variant, i, j, x, m):
                        out.append((i, j, x, m))
    out.sort(key=lambda bm: (bm_degree(bm), bm))
    return out


def _leading(image, order: str):
    """(tagged leading monomial, coefficient) of a certify image, or None."""
    if order == "z_maxnorm":
        tag, key = "z", z_maxnorm_key
    elif order == "neg_lex":
        tag, key = "x", neg_lex_key
    else:
        raise ValueError("unknown monomial order %r" % (order,))
    lead = leading_term(image, key)
    if lead is None:
        return None
    return (tag, lead[0]), lead[1]


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
    # the image in the presentation `order` reads: Z for z_maxnorm, X for neg_lex
    image = bm_images(convention, to_z_basis if order == "z_maxnorm" else None)
    if inject_duplicate and len(candidates) > 1:
        candidates = candidates + [candidates[-1]]
    count_checked = variant.startswith("omega")
    degrees_report = []
    ok = True
    for d, group in itertools.groupby(candidates, bm_degree):
        entries = list(group)
        failures = []
        leads = {}
        unit_leads = True
        for bm in entries:
            led = _leading(image(bm), order)
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
