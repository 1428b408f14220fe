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

from .coeff import CoeffElement, ONE, ZERO, aug_symbol, cp
from .terms import term_canon


def p_coeff(t: int) -> CoeffElement:
    """Scalar part of the t-fold tower over the degree-2 class."""
    if t < 0:
        raise ValueError("tower index must be >= 0")
    if t == 0:
        return cp(1)
    return aug_symbol(t, "P")


class AugEnv:
    """Memoized augmentation over canonical term keys."""

    def __init__(self):
        self._memo = {}

    def aug(self, term: tuple) -> CoeffElement:
        return self.aug_power(0, term)

    def aug_power(self, j: int, term: tuple) -> CoeffElement:
        if j < 0:
            raise ValueError("tower index must be >= 0")
        key = (j, term_canon(term))
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        value = self._aug_power(j, key[1])
        self._memo[key] = value
        return value

    def _aug_power(self, j: int, t: tuple) -> CoeffElement:
        tag = t[0]
        if tag == "coeff":
            return t[1] if j == 0 else ZERO
        if tag == "bar":
            return self.aug_power(0, t[1]) if j == 0 else ZERO
        if tag == "euler":
            return self._aug_euler_tower(j, t[1])
        if tag == "zgen":
            n = t[1]
            if j == 0:
                return cp(n)
            if n == 1:
                return p_coeff(j)
            return aug_symbol(j, "Z(%d,%s)" % (n, t[2]))
        if tag == "gamma":
            if t[1] == "s":
                return self.aug_power(j + 1, t[2])
            acc = -self.aug_power(j + 1, t[2])
            for k in range(j):
                acc = acc + p_coeff(k) * self.aug_power(j - k, t[2])
            return acc
        if tag == "sum":
            acc = ZERO
            for s in t[1]:
                acc = acc + self.aug_power(j, s)
            return acc
        if tag == "prod":
            if not t[1]:
                return ONE if j == 0 else ZERO
            # the rule holds for any split; halving keeps the recursion
            # depth logarithmic in the number of factors (aug_power
            # canonicalizes a one-factor product to its factor)
            h = len(t[1]) // 2
            w, z = ("prod", t[1][:h]), ("prod", t[1][h:])
            acc = ZERO
            for k in range(j + 1):
                left = self.aug_power(k, w)
                if left.is_zero():
                    continue
                acc = acc + left * self.aug_power(j - k, z)
            return acc
        raise ValueError("unknown term tag %r" % (tag,))

    def _aug_euler_tower(self, j: int, flavor: str) -> CoeffElement:
        if j == 0:
            return ZERO
        if flavor == "s":
            return ONE if j == 1 else ZERO
        # T(1) = -1, T(n) = sum_{k<n-1} p_k T(n-1-k), filled bottom-up into
        # the memo: O(j^2) ring operations instead of 2^(j-1) calls
        memo = self._memo
        e_r = ("euler", "r")
        for n in range(1, j + 1):
            if (n, e_r) not in memo:
                acc = -ONE if n == 1 else ZERO
                for k in range(n - 1):
                    acc = acc + p_coeff(k) * memo[(n - 1 - k, e_r)]
                memo[(n, e_r)] = acc
        return memo[(j, e_r)]


# one shared augmentation memo; it is a pure function of the term
AUG = AugEnv()
