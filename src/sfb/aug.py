"""Augmentation: the scalar part of a term, with operator towers.

``aug_power(j, t)`` computes the scalar part of the j-fold s-flavored
extension operator applied to t; j = 0 is the plain augmentation.  One
recursion covers both because the r-flavored operator can be eliminated:

    aug(G_s^j G_r y) = sum_{t=0}^{j-1} p_t * aug(G_s^(j-t) y)
                       - aug(G_s^(j+1) y)

where p_0 = g1 and p_t (t >= 1) is the opaque symbol A(t;P), the scalar
part of the t-fold tower over the degree-2 projective class.  At j = 0
the sum is empty and the rule degenerates to the sign flip
aug(G_r y) = -aug(G_s y).

Towers over irreducible generators stay symbolic: A(j;P) for the
degree-2 class, A(j;Z(n,V)) for the higher ones.  Towers over e_r
close up through the same p-coefficients; towers over e_s terminate.
Products follow a convolution rule with unit coefficients:

    aug(G_s^j (w*z)) = sum_{t=0}^{j} aug(G_s^t w) * aug(G_s^(j-t) z)
"""

from __future__ import annotations

from functools import cache

from .coeff import CoeffElement, ONE, ZERO, aug_symbol, cp
from .terms import t_prod


@cache
def p_coeff(t: int) -> CoeffElement:
    """Scalar part of the t-fold tower over the degree-2 class, t >= 0."""
    if t == 0:
        return cp(1)
    return aug_symbol(t, "P")


class AugEnv:
    """Augmentation memoized on each term as the caller built it.  A
    `leaf` map, such as a ``coeff.Point``, carries every scalar the rules
    bring in into its own ring, and the values are sums of products
    there: the augmentation evaluated under that map."""

    def __init__(self, leaf=None):
        self._memo = {}
        self._leaf = leaf or (lambda c: c)
        self._total = CoeffElement.total if leaf is None else (
            lambda pairs: sum(v * c for v, c in pairs))
        self._zero, self._one = self._leaf(ZERO), self._leaf(ONE)

    def aug(self, term: tuple) -> CoeffElement:
        return self.aug_power(0, term)

    def aug_power(self, j: int, term: tuple) -> CoeffElement:
        if j < 0:
            raise ValueError("tower index must be >= 0")
        key = (j, term)
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = self._aug_power(j, term)
        return value

    def _aug_power(self, j: int, t: tuple) -> CoeffElement:
        tag, leaf, zero = t[0], self._leaf, self._zero
        if tag == "coeff":
            return leaf(t[1]) if j == 0 else zero
        if tag == "bar":
            return self.aug_power(0, t[1]) if j == 0 else zero
        if tag == "euler":
            return self._aug_euler_tower(j, t[1])
        if tag == "zgen":
            n = t[1]
            if j == 0:
                return leaf(cp(n))
            return leaf(aug_symbol(j, "Z(%d,%s)" % (n, t[2])))
        if tag == "gamma":
            if t[1] == "s":
                return self.aug_power(j + 1, t[2])
            y = t[2]
            pairs = [(self.aug_power(j + 1, y), -1)]
            pairs += ((self.aug_power(j - k, y), leaf(p_coeff(k))) for k in range(j))
            return self._total(pairs)
        if tag == "sum":
            return self._total((self.aug_power(j, s), 1) for s in t[1])
        if tag == "prod":
            if not t[1]:
                return self._one if j == 0 else zero
            # the rule holds for any split; halving keeps the recursion
            # depth logarithmic in the number of factors, and t_prod turns
            # a one-factor half into its factor, where the recursion ends
            h = len(t[1]) // 2
            w, z = t_prod(*t[1][:h]), t_prod(*t[1][h:])
            # a zero left factor skips its right factor's tower
            return self._total(
                (self.aug_power(j - k, z), left)
                for k in range(j + 1) if (left := self.aug_power(k, w)))
        raise ValueError("unknown term tag %r" % (tag,))

    def _aug_euler_tower(self, j: int, flavor: str) -> CoeffElement:
        if j == 0:
            return self._zero
        if flavor == "s":
            return self._one if j == 1 else self._zero
        # T(1) = -1, T(n) = sum_{k<n-1} p_k T(n-1-k), filled bottom-up into
        # the memo: O(j^2) ring operations instead of 2^(j-1) calls
        memo = self._memo
        e_r = ("euler", "r")
        for n in range(1, j + 1):
            if (n, e_r) not in memo:
                # ring operators, not CoeffElement.total: the bench tracer's
                # self-check needs CoeffElement's + and * to fire on both the
                # normalize and certify workloads; on certify this tower is
                # their only caller, and on normalize the only caller of +
                terms = (self._leaf(p_coeff(k)) * memo[(n - 1 - k, e_r)] for k in range(n - 1))
                memo[(n, e_r)] = sum(terms, -self._one if n == 1 else self._zero)
        return memo[(j, e_r)]


# one shared augmentation memo; it is a pure function of the term
AUG = AugEnv()
