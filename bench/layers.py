"""Per-layer tracing of sfb, installed from outside the program.

``install()`` runs in a request's forked child, before the request
starts.  It replaces entry points of the sfb modules with wrappers:

* spans, at the public entry points in ``SPANS``: each call records
  (id, parent id, name, start, end, self time);
* leaves, the arithmetic operators of ``CoeffElement`` and
  ``PhiElement``: no span per call, but a call count and self time
  aggregated per (operator, enclosing span);
* counters, in ``COUNTERS``: a call count only.

A wrapper replaces every binding of the original object, in its class
or in any sfb module that imported it by name, so calls through
``from .x import f`` are traced too.  Self time is a call's duration
minus the time of the traced calls directly inside it; code that is not
wrapped counts towards the nearest wrapped caller.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

PACKAGE = "sfb"
perf = time.perf_counter

# (module, attribute path, result hook giving (counter, amount))
SPANS = (
    ("cli", "main", None),
    ("terms", "parse_term", None),
    ("terms", "term_text", None),
    ("engine", "GammaEngine.normalize",
     lambda args, nf: ("engine.memo_keys",
                       len(args[0]._gamma_memo) + len(args[0]._mul_memo))),
    ("engine", "NormalForm.lambda_image", None),
    ("engine", "lambda_term", None),
    ("engine", "certify_basis", None),
    ("engine", "enumerate_basis", lambda args, out: ("engine.candidates", len(out))),
    ("engine", "_leading", None),
    ("phi", "to_z_basis", None),
    ("aug", "AugEnv.aug_power", None),
    ("manifold", "fixed_data_from_json", None),
    ("manifold", "realize", None),
    ("manifold", "realize_iterative", None),
)
LEAVES = (
    ("coeff", "CoeffElement",
     ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__")),
    ("phi", "PhiElement", ("__add__", "__sub__", "__mul__", "__neg__", "__pow__", "scale")),
)
COUNTERS = (
    ("engine", "GammaEngine.nf_gamma"),
    ("engine", "GammaEngine.nf_mul"),
)

# per_layer metrics: name -> unit; "ms/req" and "count/req" are means per request
UNITS = {
    "coeff.mul_calls": "count/req",
    "coeff.add_calls": "count/req",
    "coeff.ms": "ms/req",
    "phi.mul_calls": "count/req",
    "phi.add_calls": "count/req",
    "phi.ms": "ms/req",
    "phi.to_z_basis_ms": "ms/req",
    "aug.calls": "count/req",
    "aug.ms": "ms/req",
    "engine.self_ms": "ms/req",
    "engine.rewrite_ms": "ms/req",
    "engine.nf_gamma_calls": "count/req",
    "engine.nf_mul_calls": "count/req",
    "engine.memo_keys": "count/req",
    "engine.memo_hit_ratio": "ratio",
    "engine.crosscheck_ms": "ms/req",
    "engine.crosscheck_share": "ratio",
    "engine.enumerate_ms": "ms/req",
    "engine.candidates": "count/req",
    "engine.lambda_ms": "ms/req",
    "engine.certify_lead_ms": "ms/req",
    "manifold.self_ms": "ms/req",
    "manifold.parse_ms": "ms/req",
    "manifold.realize_ms": "ms/req",
    "manifold.oracle_ms": "ms/req",
    "manifold.oracle_share": "ratio",
    "terms.parse_ms": "ms/req",
    "terms.print_ms": "ms/req",
    "cli.self_ms": "ms/req",
    "trace.overhead": "ratio",
}

# The end-to-end metric each layer should move, and where it must not:
#   coeff.*          normalize p90 > p50, throughput (cost is superlinear in
#                    degree); certify; zero on realize
#   phi.*            certify, and normalize through the cross-check
#   aug.*            normalize, certify
#   engine.rewrite_ms, nf_*_calls, memo_*, crosscheck_*   normalize only
#   engine.enumerate_ms, candidates, lambda_ms, certify_lead_ms   certify only
#   manifold.*       realize only
#   cli.self_ms      realize p50 (argument and JSON handling dominate it)
#   terms.*          normalize p50; terms is idle on certify and realize

# what each workload must call, and which layers it must leave idle
EXPECT = {
    "normalize": {
        "fires": ("cli.main", "terms.parse_term", "terms.term_text",
                  "engine.GammaEngine.normalize", "engine.NormalForm.lambda_image",
                  "engine.lambda_term", "engine.GammaEngine.nf_gamma",
                  "engine.GammaEngine.nf_mul", "aug.AugEnv.aug_power",
                  "coeff.CoeffElement.__mul__", "coeff.CoeffElement.__add__",
                  "phi.PhiElement.__mul__", "phi.PhiElement.__add__"),
        "idle": ("manifold.", "engine.certify_basis", "engine.enumerate_basis",
                 "engine._leading", "phi.to_z_basis"),
    },
    "certify": {
        "fires": ("cli.main", "engine.certify_basis", "engine.enumerate_basis",
                  "engine.lambda_term", "engine._leading", "phi.to_z_basis",
                  "aug.AugEnv.aug_power", "coeff.CoeffElement.__mul__",
                  "coeff.CoeffElement.__add__", "phi.PhiElement.__mul__",
                  "phi.PhiElement.__add__"),
        "idle": ("manifold.", "terms.", "engine.GammaEngine.", "engine.NormalForm."),
    },
    "realize": {
        "fires": ("cli.main", "manifold.fixed_data_from_json", "manifold.realize",
                  "manifold.realize_iterative"),
        "idle": ("coeff.", "phi.", "aug.", "engine.", "terms."),
    },
}


class Tracer:
    def __init__(self):
        # a frame is [seconds of traced calls inside it, name, span id]
        self.stack = [[0.0, "root", 0]]
        self.spans = []
        self.leaves = defaultdict(lambda: [0, 0.0])
        self.counts = defaultdict(int)
        self.last_id = 0

    def span(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            stack = self.stack
            parent = stack[-1]
            self.last_id += 1
            frame = [0.0, name, self.last_id]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                parent[0] += end - start
                self.spans.append((frame[2], parent[2], name, start, end, end - start - frame[0]))
            if hook is not None:
                counter, amount = hook(args, result)
                self.counts[counter] += amount
            return result
        return wrapper

    def leaf(self, name, fn):
        leaves = self.leaves

        def wrapper(*args, **kwargs):
            stack = self.stack
            parent = stack[-1]
            frame = [0.0, name, parent[2]]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                parent[0] += elapsed
                cell = leaves[(name, parent[1])]
                cell[0] += 1
                cell[1] += elapsed - frame[0]
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def summary(self) -> dict:
        """Sums for one request, and how often each traced name fired."""
        names = {0: "root"}
        for sid, _, name, *_ in self.spans:
            names[sid] = name
        fired = defaultdict(int)
        layer_ms = defaultdict(float)
        top_ms = defaultdict(float)      # spans not nested in a span of the same name
        under_ms = defaultdict(float)    # (name, parent name)
        for _, pid, name, start, end, own in self.spans:
            parent = names[pid]
            fired[name] += 1
            layer_ms[name.split(".")[0]] += own * 1e3
            under_ms[(name, parent)] += (end - start) * 1e3
            if parent != name:
                top_ms[name] += (end - start) * 1e3
        calls = defaultdict(int)
        for (name, _), (count, own) in self.leaves.items():
            fired[name] += count
            calls[name] += count
            layer_ms[name.split(".")[0]] += own * 1e3
        for name, count in self.counts.items():
            fired[name] += count
        normalize_ms = top_ms["engine.GammaEngine.normalize"]
        crosscheck_ms = sum(under_ms[(name, "engine.GammaEngine.normalize")]
                            for name in ("engine.NormalForm.lambda_image", "engine.lambda_term"))
        sums = {
            "coeff.mul_calls": calls["coeff.CoeffElement.__mul__"],
            "coeff.add_calls": calls["coeff.CoeffElement.__add__"],
            "coeff.ms": layer_ms["coeff"],
            "phi.mul_calls": calls["phi.PhiElement.__mul__"],
            "phi.add_calls": calls["phi.PhiElement.__add__"],
            "phi.ms": layer_ms["phi"],
            "phi.to_z_basis_ms": top_ms["phi.to_z_basis"],
            "aug.calls": fired["aug.AugEnv.aug_power"],
            "aug.ms": layer_ms["aug"],
            "engine.self_ms": layer_ms["engine"],
            "engine.rewrite_ms": normalize_ms - crosscheck_ms,
            "engine.nf_gamma_calls": self.counts["engine.GammaEngine.nf_gamma"],
            "engine.nf_mul_calls": self.counts["engine.GammaEngine.nf_mul"],
            "engine.memo_keys": self.counts["engine.memo_keys"],
            "engine.crosscheck_ms": crosscheck_ms,
            "engine.normalize_ms": normalize_ms,
            "engine.enumerate_ms": top_ms["engine.enumerate_basis"],
            "engine.candidates": self.counts["engine.candidates"],
            "engine.lambda_ms": under_ms[("engine.lambda_term", "engine.certify_basis")],
            "engine.certify_lead_ms": top_ms["engine._leading"],
            "manifold.self_ms": layer_ms["manifold"],
            "manifold.parse_ms": top_ms["manifold.fixed_data_from_json"],
            "manifold.realize_ms": top_ms["manifold.realize"],
            "manifold.oracle_ms": top_ms["manifold.realize_iterative"],
            "terms.parse_ms": top_ms["terms.parse_term"],
            "terms.print_ms": top_ms["terms.term_text"],
            "cli.self_ms": layer_ms["cli"],
            "cli.request_ms": top_ms["cli.main"],
        }
        return {"sums": sums, "fired": dict(fired)}


def _rebind(scopes, original, replacement) -> int:
    """Point every binding of `original` in `scopes` at `replacement`."""
    patched = 0
    for scope in scopes:
        for attr, value in list(vars(scope).items()):
            if value is original:
                setattr(scope, attr, replacement)
                patched += 1
    return patched


def install() -> Tracer:
    """Wrap the sfb entry points of this process; returns the recorder."""
    tracer = Tracer()
    modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]

    def resolve(module, path):
        owner = sys.modules["%s.%s" % (PACKAGE, module)]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        return owner, vars(owner)[attr]

    def patch(module, path, make):
        owner, original = resolve(module, path)
        scopes = [owner] if isinstance(owner, type) else modules
        if not _rebind(scopes, original, make("%s.%s" % (module, path), original)):
            raise RuntimeError("no binding of %s.%s to trace" % (module, path))

    for module, path, hook in SPANS:
        patch(module, path, lambda name, fn: tracer.span(name, fn, hook))
    for module, path in COUNTERS:
        patch(module, path, tracer.counter)
    for module, cls, methods in LEAVES:
        owner = getattr(sys.modules["%s.%s" % (PACKAGE, module)], cls)
        wrapped = {}
        for method in methods:
            original = vars(owner)[method]
            if original not in wrapped:
                # aliases such as __radd__ = __add__ share one name and count
                name = "%s.%s.%s" % (module, cls, original.__name__)
                wrapped[original] = tracer.leaf(name, original)
            setattr(owner, method, wrapped[original])
    return tracer


def layer_metrics(sums: dict, requests: int, overhead: float) -> dict:
    """Per-request means and ratios from sums over `requests` requests."""
    out = {}
    for name, unit in UNITS.items():
        if unit != "ratio":
            out[name] = sums.get(name, 0) / requests
    lookups = sums.get("engine.nf_gamma_calls", 0) + sums.get("engine.nf_mul_calls", 0)
    out["engine.memo_hit_ratio"] = (
        1 - sums.get("engine.memo_keys", 0) / lookups if lookups else 0.0
    )
    normalize_ms = sums.get("engine.normalize_ms", 0)
    out["engine.crosscheck_share"] = (
        sums.get("engine.crosscheck_ms", 0) / normalize_ms if normalize_ms else 0.0
    )
    request_ms = sums.get("cli.request_ms", 0)
    out["manifold.oracle_share"] = (
        sums.get("manifold.oracle_ms", 0) / request_ms if request_ms else 0.0
    )
    out["trace.overhead"] = overhead
    return out


def self_check(workload: str, fired: dict) -> list:
    """Broken predictions: expected spans that never fired, idle layers that did."""
    expect = EXPECT[workload]
    problems = ["%s never fired" % name for name in expect["fires"] if not fired.get(name)]
    for prefix in expect["idle"]:
        for name, count in sorted(fired.items()):
            if name.startswith(prefix) and count:
                problems.append("%s fired %d times; %s should be idle" % (name, count, prefix))
    return problems
