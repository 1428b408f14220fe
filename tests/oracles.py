"""Independent routes to the localized image of manifold data, and the
manifold printer.  The ``sfb`` commands need none of these; the tests
hold the package's own routes to them.  pytest does not collect this
module: tests import it by name."""

from sfb.coeff import CoeffElement, signed_join, weighted
from sfb.manifold import aug_manifold, lambda_manifold
from sfb.phi import PhiElement, z_gen


def gamma_fixed_semantics(m: tuple, star: bool = False) -> dict:
    """The three fixed-set contributions of the twisted-bundle
    construction: the original manifold with one extra normal line, the
    underlying manifold on the other side, and the correction copy of
    the sphere.  Their sum is the localized image of gamma(M)."""
    fl, co = ("s", "r") if star else ("r", "s")
    lam = lambda_manifold(m)
    abar = aug_manifold(m)
    fixed = PhiElement.euler(fl, -1) * lam
    free = PhiElement.euler(co, -1).scale(abar)
    correction = z_gen(1, "r").scale(-abar)
    return {
        "fixed_component": fixed,
        "free_quotient": free,
        "correction": correction,
        "total": fixed + free + correction,
    }


def lambda_fixed(data: dict) -> PhiElement:
    """Localized image of isolated data: sum of w * e_r^-k e_s^-l."""
    return PhiElement(
        {(-k, -l, ()): CoeffElement.integer(w) for (k, l), w in data.items()}
    )


def decomposition_lambda(decomposition: list) -> PhiElement:
    sphere = z_gen(1, "r")
    return PhiElement.total(
        (sphere ** entry["power"], entry["multiplicity"]) for entry in decomposition
    )


def manifold_text(m: tuple) -> str:
    return _mtext(m, 0)


def _mtext(m: tuple, level: int) -> str:
    tag = m[0]
    if tag == "pc":
        return "P(%d,%s)" % (m[1], m[2])
    if tag == "pt":
        return "pt"
    if tag == "gamma":
        return "gamma(%s)" % _mtext(m[1], 0)
    if tag == "gammastar":
        return "gammas(%s)" % _mtext(m[1], 0)
    if tag == "prod":
        parts = [_mtext(sub, 1) for sub in m[1]]
        body = " x ".join(parts)
        return "(%s)" % body if level == 1 else body
    if tag == "union":
        out = signed_join([weighted(w, _mtext(sub, 1)) for w, sub in m[1]])
        return "(%s)" % out if level == 1 else out
    raise ValueError("unknown manifold tag %r" % (tag,))
