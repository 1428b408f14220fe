import hashlib
import random

from sfb.aug import AugEnv
from sfb.coeff import CoeffElement, Point, aug_symbol, cp
from sfb.engine import bm_term, enumerate_basis, random_term
from sfb.terms import (
    t_bar,
    t_coeff,
    t_euler,
    t_gamma,
    t_int,
    t_prod,
    t_sum,
    t_zgen,
    term_degree,
)


def g_s(t, j=1):
    for _ in range(j):
        t = t_gamma("s", t)
    return t


def p_coeff(t):
    """The t-fold tower over the sphere class P: g1, then A(t;P)."""
    return cp(1) if t == 0 else aug_symbol(t, "P")


def test_sphere_class_has_one_tower():
    # G_r(G_s(e_r)), Z(1,r) and Z(1,s) are all the sphere class P
    point = Point("sphere")
    spheres = (t_gamma("r", g_s(t_euler("r"))), t_zgen(1, "r"), t_zgen(1, "s"))
    for env, leaf in ((AugEnv(), lambda c: c), (AugEnv(point), point)):
        for t in range(9):
            expected = leaf(p_coeff(t))
            assert [env.aug_power(t, s) for s in spheres] == [expected] * 3, t


def test_euler_and_first_layer():
    # G_V(e_V) = 1, whose tower vanishes above j = 0
    point = Point("euler")
    for env in (AugEnv(), AugEnv(point)):
        for fl in "rs":
            unit = t_gamma(fl, t_euler(fl))
            assert env.aug(unit) == 1
            for m in range(1, 21):
                assert env.aug_power(m, unit) == 0, (fl, m)
    env = AugEnv()
    assert env.aug(t_euler("r")) == 0
    assert env.aug(t_euler("s")) == 0
    assert env.aug(t_gamma("s", t_euler("s"))) == 1
    assert env.aug(t_gamma("r", t_euler("s"))) == -1
    assert env.aug(t_gamma("s", t_euler("r"))) == -1
    assert env.aug(t_gamma("r", t_euler("r"))) == 1


def test_towers_over_e_s():
    env = AugEnv()
    for j in (2, 3, 4):
        assert env.aug(g_s(t_euler("s"), j)) == 0


def test_towers_over_e_r():
    env = AugEnv()
    g1 = cp(1)
    a1 = aug_symbol(1, "P")
    a2 = aug_symbol(2, "P")
    assert env.aug(g_s(t_euler("r"), 2)) == -g1
    assert env.aug(g_s(t_euler("r"), 3)) == -(g1 ** 2) - a1
    assert env.aug(g_s(t_euler("r"), 4)) == -(g1 ** 3) - 2 * g1 * a1 - a2


def test_linear_classes():
    env = AugEnv()
    for n in range(1, 6):
        for fl in "rs":
            assert env.aug(t_zgen(n, fl)) == cp(n)
    # forgetting after one division: the P-based symbols for n = 1,
    # class-tagged symbols for n >= 2
    assert env.aug(t_gamma("s", t_zgen(1, "r"))) == aug_symbol(1, "P")
    assert env.aug(t_gamma("s", t_zgen(2, "r"))) == aug_symbol(1, "Z(2,r)")
    assert env.aug(g_s(t_zgen(3, "s"), 2)) == aug_symbol(2, "Z(3,s)")


def test_rotation_sphere_forgets_to_cp1():
    env = AugEnv()
    p = t_gamma("r", t_gamma("s", t_euler("r")))
    assert env.aug(p) == cp(1)


def test_scalars_and_bar():
    env = AugEnv()
    c = 3 * cp(2) - 1
    assert env.aug(t_coeff(c)) == c
    assert env.aug_power(1, t_coeff(c)) == 0
    t = t_gamma("s", t_euler("r"))
    assert env.aug(t_bar(t)) == env.aug(t)
    assert env.aug_power(2, t_bar(t)) == 0


def test_parity_on_random_terms():
    env = AugEnv()
    rng = random.Random(5)
    for _ in range(80):
        y = random_term(rng, depth=2, max_z=4)
        assert env.aug(t_gamma("r", y)) == -env.aug(t_gamma("s", y))


def test_flavor_elimination_consistency():
    # aug_j(G_r y) = sum_{t<j} p_t aug_{j-t}(y) - aug_{j+1}(y)
    env = AugEnv()
    rng = random.Random(6)
    for _ in range(40):
        y = random_term(rng, depth=2, max_z=4)
        for j in range(4):
            lhs = env.aug_power(j, t_gamma("r", y))
            rhs = -env.aug_power(j + 1, y)
            for t in range(j):
                rhs = rhs + p_coeff(t) * env.aug_power(j - t, y)
            assert lhs == rhs


def test_product_convolution():
    env = AugEnv()
    rng = random.Random(7)
    for _ in range(40):
        w = random_term(rng, depth=2, max_z=4)
        z = random_term(rng, depth=2, max_z=4)
        assert env.aug(t_prod(w, z)) == env.aug(w) * env.aug(z)
        for j in (1, 2, 3):
            lhs = env.aug_power(j, t_prod(w, z))
            rhs = CoeffElement.zero()
            for t in range(j + 1):
                rhs = rhs + env.aug_power(t, w) * env.aug_power(j - t, z)
            assert lhs == rhs


def test_grading_of_aug_values():
    env = AugEnv()
    homogeneous = [
        t_euler("r"),
        t_zgen(3, "s"),
        t_prod(t_zgen(2, "r"), t_zgen(2, "s")),
        t_gamma("r", t_zgen(2, "r")),
    ]
    for t in homogeneous:
        d = term_degree(t)
        for j in range(4):
            v = env.aug_power(j, t)
            if not v.is_zero():
                assert v.degree() == d + 2 * j


def test_memo_is_by_shape():
    env = AugEnv()
    a = t_prod(t_int(2), t_euler("r"))
    b = t_prod(t_euler("r"), t_int(2))
    assert env.aug(t_gamma("s", a)) == env.aug(t_gamma("s", b))
    # equal values reached through different shapes, including hand-built
    # products that no constructor makes
    x, y, z = t_zgen(1, "r"), t_gamma("r", t_euler("s")), t_zgen(2, "s")
    pairs = [
        (t_prod(t_int(3), t_prod(x, t_prod(y, z))), t_prod(t_int(3), x, y, z)),
        (t_sum(x, t_sum(y, t_sum(z, t_int(5)))), t_sum(x, y, z, t_int(5))),
        (("prod", (y,)), y),
        (("prod", ()), t_int(1)),
    ]
    for shaped, flat in pairs:
        for t, u in ((shaped, flat), (t_gamma("s", shaped), t_gamma("s", flat))):
            for j in range(3):
                assert AugEnv().aug_power(j, t) == AugEnv().aug_power(j, u)
                assert env.aug_power(j, t) == env.aug_power(j, u)


def test_deep_euler_towers_are_memoized():
    # aug(G_s^j e_r) has one monomial per partition of j - 1, so j = 28
    # (3010 monomials) stays small while 2^27 unmemoized calls would not
    j = 28
    env = AugEnv()
    # partial-sum recurrence: T(1) = -1, T(n) = sum_{k<n-1} p_k T(n-1-k)
    tower = [CoeffElement.zero(), CoeffElement.integer(-1)]
    for n in range(2, j + 1):
        acc = CoeffElement.zero()
        for k in range(n - 1):
            acc = acc + p_coeff(k) * tower[n - 1 - k]
        tower.append(acc)
    assert env.aug_power(j, t_euler("r")) == tower[j]
    assert env.aug(g_s(t_euler("r"), j)) == tower[j]
    assert len(tower[j].terms) == 3010
    # one memo entry per tower height, plus the j + 1 nested G_s terms;
    # the sphere-class entries that supply p_t are not counted
    towers = [key for key in env._memo if key[1][0] in ("euler", "gamma")]
    assert len(towers) <= 2 * j + 2
    assert env.aug_power(60, t_euler("s")) == 0
    assert env.aug(g_s(t_euler("s"), 60)) == 0
    assert env.aug_power(1, t_euler("s")) == 1


def test_deep_euler_tower_at_a_point():
    # each tower height over e_r is a few stack frames deep
    point = Point("deep")
    j, modulus = 300, point.modulus
    tower = [0, modulus - 1]
    for n in range(2, j + 1):
        tower.append(
            sum(point(p_coeff(k)) * tower[n - 1 - k] for k in range(n - 1)) % modulus)
    assert AugEnv(point).aug_power(j, t_euler("r")) == tower[j]


# sha256 of the newline-joined str(aug_power(j, t)) over the corpus below,
# recorded with the pairwise recurrences that the coefficient kernel
# replaced; the text is independent of the hash seed
PINNED_AUG_POWERS = {
    0: "626bd11744896d417dd29f5161e157732df800ef108fa9b94c864c8007b42fc0",
    1: "9f196128ae7bc7ad4c6078b9b998dce3034e30e69ea9aee355dbbd3e8e652e80",
    2: "704eaf82c6fce50a0d0692d8a1bc49accbdde1ff0b528f12410f21720c511ae4",
    3: "a945b56d66dd0984146a6fef557c4607dfb94126ed68966f3c0b639160bcd72c",
}


def _aug_corpus():
    """Every basis word of degree <= 12, seeded random terms, products of
    those with a polynomial coefficient, and sums that cancel."""
    terms = [bm_term(bm) for _, bm in enumerate_basis(12, "musf-work", 4)]
    rng = random.Random(23)
    terms += [random_term(rng, depth=5, max_z=4) for _ in range(200)]
    a = t_coeff(aug_symbol(1, "P") - 2 * cp(1))
    terms += [t_gamma("r", t_prod(a, t)) for t in terms[-40:]]
    terms += [t_sum(t, t_prod(t_int(-1), t)) for t in terms[-20:]]
    return terms


def test_pinned_aug_powers():
    terms = _aug_corpus()
    assert len(terms) == 2466
    for j, digest in PINNED_AUG_POWERS.items():
        env = AugEnv()
        text = "\n".join(str(env.aug_power(j, t)) for t in terms)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, j
