"""Request pools, per-seed decks and answer checks for the benchmark.

Each workload has a fixed pool of ``sfb`` command lines, generated here
from ``POOL_SEED``.  ``reference.json`` holds, for every pool entry, the
sha256 of its stdout, its exit code and its cost when it was recorded.
A run's ``--seed`` picks a deck of ``DECK_SIZE`` distinct entries from
the pool, stratified by the recorded cost.  The costliest ``TAKE_ALL``
share of the pool is in every deck: a handful of entries carries a large
part of a batch's cost, so sampling them would make the throughput
depend more on the seed than on the program.  The rest is sorted by cost
and cut into contiguous bins, and the seed picks one entry per bin and
the order.  So every deck spans the whole cost range of the pool in the
same proportions, while the seed still changes most of the inputs.

This module does not import ``sfb``: the answers it checks are computed
without the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

DECK_SIZE = 100
TAKE_ALL = 0.05
POOL_SEED = 20030303

WHY = {
    "normalize": (
        "rewriter, coefficient ring and Laurent cross-check on seeded "
        "G_r/G_s towers of total degree <= 32; the manifold layer is idle"
    ),
    "certify": (
        "basis enumeration, lambda_term and to_z_basis over musf, musf-work "
        "and omega; many small coefficient ops and no rewriter calls"
    ),
    "realize": (
        "realize_iterative oracle on degrees 20-300, half perturbed; coeff, phi, "
        "aug, rewriter idle; degree >=~990 crashes (RecursionError, ~5 s), left "
        "out for length"
    ),
}

# --- normalize ---------------------------------------------------------

GENERATORS = ("e_r", "e_s") + tuple(
    "Z(%d,%s)" % (n, flavor) for n in range(1, 5) for flavor in "rs"
)
DEGREE_CAP = 32


def _generator_degree(gen: str) -> int:
    return -2 if gen.startswith("e_") else 2 * int(gen[2])


def _tower(rng: random.Random, body: str, depth: int) -> str:
    for _ in range(depth):
        body = "G_%s(%s)" % (rng.choice("rs"), body)
    return body


def normalize_pool(rng: random.Random, size: int = 300) -> list:
    """Towers of depth 1-4 over a product of 1-3 generators, raised to a
    power 1-3, total degree at most DEGREE_CAP; 30 % get an added
    cross-term and 25 % use the mixed Z-convention."""
    pool, seen = [], set()
    while len(pool) < size:
        depth = rng.randint(1, 4)
        factors = [rng.choice(GENERATORS) for _ in range(rng.randint(1, 3))]
        power = rng.randint(1, 3)
        degree = power * (sum(map(_generator_degree, factors)) + 2 * depth)
        if degree > DEGREE_CAP:
            continue
        expr = _tower(rng, "*".join(factors), depth)
        if power > 1:
            expr += "^%d" % power
        if rng.random() < 0.3:
            expr += " + " + _tower(rng, rng.choice(GENERATORS), rng.randint(1, 2))
        mixed = rng.random() < 0.25
        argv = (["--z-convention", "mixed"] if mixed else []) + ["normalize", expr]
        if tuple(argv) in seen:
            continue
        seen.add(tuple(argv))
        pool.append({"argv": argv})
    return pool


# --- certify -------------------------------------------------------------


def certify_pool(rng: random.Random) -> list:
    """The whole grid: musf and musf-work at degrees 2-10 with truncation
    2-4, omega at degrees 2-16 with truncation 2-6, each under both
    orders and both conventions."""
    grid = [
        (variant, degree, truncation)
        for variant in ("musf", "musf-work")
        for degree in range(2, 11, 2)
        for truncation in (2, 3, 4)
    ] + [
        ("omega", degree, truncation)
        for degree in range(2, 17, 2)
        for truncation in range(2, 7)
    ]
    pool = []
    for variant, degree, truncation in grid:
        for order in ("z_maxnorm", "neg_lex"):
            for convention in ("same", "mixed"):
                argv = [
                    "--z-convention", convention, "certify",
                    "--variant", variant, "--degree", str(degree),
                    "--truncation", str(truncation), "--order", order,
                ]
                pool.append({"argv": argv})
    rng.shuffle(pool)
    return pool


def _partition_numbers(n: int) -> list:
    """p(0..n) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= m:
            sign = 1 if k % 2 else -1
            total += sign * p[m - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= m:
                total += sign * p[m - k * (3 * k + 1) // 2]
            k += 1
        p[m] = total
    return p


def two_colored_count(k: int) -> int:
    """Partitions of k in two colors, as a convolution of p(n)."""
    p = _partition_numbers(k)
    return sum(p[j] * p[k - j] for j in range(k + 1))


def _check_certify(request: dict, code: int, doc) -> list:
    problems = []
    failed_any = False
    variant = request["argv"][request["argv"].index("--variant") + 1]
    for entry in doc["degrees"]:
        kinds = {f["kind"] for f in entry["failures"]}
        failed_any = failed_any or bool(kinds)
        if variant == "omega" and entry["degree"] > 0:
            # the report counts all two-colored partitions but one per degree
            expected = two_colored_count(entry["degree"] // 2) - 1
            if entry.get("expected_count") != expected:
                problems.append("degree %d: expected_count %r, partition count gives %d"
                                % (entry["degree"], entry.get("expected_count"), expected))
            if ("count-mismatch" in kinds) != (entry["count"] != expected):
                problems.append("degree %d: count %d against %d but count-mismatch %s"
                                % (entry["degree"], entry["count"], expected,
                                   "reported" if "count-mismatch" in kinds else "missing"))
    if doc["ok"] == failed_any:
        problems.append("ok=%r contradicts the listed failures" % doc["ok"])
    if code != (0 if doc["ok"] else 1):
        problems.append("exit %r for ok=%r" % (code, doc["ok"]))
    return problems


# --- realize -------------------------------------------------------------


def _realize_argv(rng: random.Random, weights: dict) -> list:
    points = [
        {"weight": w, "rho": k, "rho_star": l}
        for (k, l), w in sorted(weights.items())
        if w
    ]
    rng.shuffle(points)
    return ["realize", json.dumps({"points": points}, separators=(",", ":"))]


def realize_pool(rng: random.Random, size: int = 300) -> list:
    """Disjoint unions of 1-3 sphere powers with top degree 20-300, summed
    here as a0*C(n, i) rows; each is paired with a copy whose one slot is
    moved by +-1 or +-2, which no union of sphere powers realizes.

    Degrees of about 990 and more make ``sfb realize`` fail with a
    RecursionError after about 5 s.  They are left out because one such
    request would outlast a whole pass, not to hide the failure."""
    pool = []
    for _ in range(size // 2):
        top = rng.randint(20, 300)
        powers = {top}
        target = rng.randint(1, 3)
        while len(powers) < target:
            powers.add(rng.randint(max(1, top // 4), top - 1))
        parts = [(n, rng.choice((-3, -2, -1, 1, 2, 3, 5, 9))) for n in sorted(powers)]
        weights = {}
        for n, a0 in parts:
            for i in range(n + 1):
                weights[(n - i, i)] = a0 * math.comb(n, i)
        decomposition = [{"multiplicity": a0, "power": n} for n, a0 in parts]
        pool.append({
            "argv": _realize_argv(rng, weights),
            "expect": {"realizable": True, "decomposition": decomposition},
        })
        n, _ = rng.choice(parts)
        i = rng.randint(0, n)
        perturbed = dict(weights)
        perturbed[(n - i, i)] += rng.choice((-2, -1, 1, 2))
        pool.append({
            "argv": _realize_argv(rng, perturbed),
            "expect": {"realizable": False, "degree": n},
        })
    return pool


def _check_realize(request: dict, code: int, doc) -> list:
    expect = request["expect"]
    problems = []
    if doc.get("realizable") is not expect["realizable"]:
        problems.append("realizable=%r, built to be %r"
                        % (doc.get("realizable"), expect["realizable"]))
    elif expect["realizable"]:
        if doc.get("decomposition") != expect["decomposition"]:
            problems.append("decomposition %r, built from %r"
                            % (doc.get("decomposition"), expect["decomposition"]))
    elif doc.get("witness", {}).get("degree") != expect["degree"]:
        problems.append("witness %r, perturbed degree %d"
                        % (doc.get("witness"), expect["degree"]))
    if code != (0 if expect["realizable"] else 1):
        problems.append("exit %r for realizable=%r" % (code, expect["realizable"]))
    return problems


# --- pools, decks, checks ----------------------------------------------------

POOLS = {
    "normalize": normalize_pool,
    "certify": certify_pool,
    "realize": realize_pool,
}


def pool(workload: str) -> list:
    """The fixed pool of a workload, each entry keyed by its argv."""
    entries = POOLS[workload](random.Random("%s:%d" % (workload, POOL_SEED)))
    for entry in entries:
        entry["key"] = argv_key(entry["argv"])
    return entries


def argv_key(argv: list) -> str:
    return hashlib.sha256(json.dumps(argv).encode()).hexdigest()[:16]


def deck(entries: list, costs: dict, seed: int, size: int = DECK_SIZE) -> list:
    """The costliest TAKE_ALL of the pool, then one entry per cost bin."""
    rng = random.Random("deck:%d" % seed)
    members = sorted(entries, key=lambda e: (costs[e["key"]], e["key"]))
    heavy = round(TAKE_ALL * len(members))
    chosen = members[len(members) - heavy:]
    members = members[:len(members) - heavy]
    bins = size - heavy
    for b in range(bins):
        lo = b * len(members) // bins
        hi = (b + 1) * len(members) // bins
        chosen.append(rng.choice(members[lo:hi]))
    rng.shuffle(chosen)
    return chosen


def check(workload: str, request: dict, code, stdout: str) -> list:
    """Problems with one answer that can be found without sfb."""
    if workload == "normalize":
        if code != 0:
            return ["exit %r, expected 0" % (code,)]
        if not isinstance(json.loads(stdout), str):
            return ["stdout is not a JSON string"]
        return []
    if code not in (0, 1):
        return ["exit %r, expected 0 or 1" % (code,)]
    doc = json.loads(stdout)
    if workload == "certify":
        return _check_certify(request, code, doc)
    return _check_realize(request, code, doc)
