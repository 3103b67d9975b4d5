"""Layer spans recorded from outside the package.

:func:`install` replaces a fixed set of public ``liehermitian`` functions
by timing wrappers.  It rebinds every module-level name that refers to
one of them, so the names that modules import directly (``cli`` and
``verify`` import ``aa_report``, ``c2_report`` and ``classify_btp``;
most modules import ``make_algebra``) are caught as well as the module
attributes.  Each span records its name, its parent span, its start and
end, and one count.  Spans stay in memory; :meth:`Recorder.dump` writes
them out once the run is over, and :func:`layer_metrics` turns them into
the per-layer figures.
"""

import contextlib
import json
import sys
from time import perf_counter

# (module, function, span name).  The span name is the metric prefix.
WRAPPED = (
    ("algebra", "make_algebra", "algebra.make_algebra"),
    ("forms", "exterior_d", "forms.exterior_d"),
    ("forms", "del_delbar_residual", "forms.ddbar"),
    ("hermitian", "property_report", "hermitian.property_report"),
    ("almost_abelian", "aa_report", "almost_abelian.aa_report"),
    ("codim2", "c2_report", "codim2.c2_report"),
    ("codim2", "classify_btp", "codim2.classify_btp"),
    ("serial", "load_spec", "serial.load_spec"),
    ("serial", "jsonable", "serial.jsonable"),
    ("serial", "canonical_json", "serial.canonical_json"),
    ("cli", "cmd_check", "cli.check"),
    ("cli", "cmd_classify", "cli.classify"),
    ("cli", "cmd_tensors", "cli.tensors"),
)


def _ddbar_count(args, kwargs, result):
    """0, 1 or 2 for the pluriclosed (k=1), astheno (k=n-2) and
    Gauduchon (k=n-1) residuals; k = 1 wins where the degrees coincide."""
    alg, k = args[0], args[1]
    if k == 1:
        return 0
    return 1 if k == alg.n - 2 else 2


_COUNTS = {
    "forms.exterior_d": lambda args, kwargs, result: len(args[1]),
    "forms.ddbar": _ddbar_count,
    "serial.canonical_json": lambda args, kwargs, result: len(result),
}

# Recursive functions: an inner call made while the same span is open
# goes straight through, so one span covers the whole encoding.
_NO_REENTRY = {"serial.jsonable"}


class Span:
    __slots__ = ("name", "parent", "start", "end", "count")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.count = 0

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """Spans in call order; ``stack`` holds the indices of open spans."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        span = Span(name, parent)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def close(self, span):
        span.end = perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, name, fn):
        count = _COUNTS.get(name)
        no_reentry = name in _NO_REENTRY
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if no_reentry and stack and spans[stack[-1]].name == name:
                return fn(*args, **kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                span.count = count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent,
                    "start": s.start, "end": s.end, "count": s.count,
                }) + "\n")


def install(recorder):
    """Wrap the functions in :data:`WRAPPED` wherever a ``liehermitian``
    module binds them.  Returns a function that puts the originals back."""
    import liehermitian
    import liehermitian.cli  # not imported by the package itself

    modules = [m for name, m in sys.modules.items()
               if name == "liehermitian" or name.startswith("liehermitian.")]
    swaps = []
    for modname, attr, span_name in WRAPPED:
        original = getattr(getattr(liehermitian, modname), attr)
        wrapper = recorder.wrap(span_name, original)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapper)
                    swaps.append((mod, key, original))

    def uninstall():
        for mod, key, original in reversed(swaps):
            setattr(mod, key, original)

    return uninstall


# ---------------------------------------------------------------- metrics

_DDBAR_NAMES = ("pluriclosed", "astheno", "gauduchon")
# exterior_d under these spans is not a d-squared structure check: the
# residuals differentiate powers of omega, the report its Ricci forms,
# and set-up fills the generator cache.
_NOT_D_SQUARED = {"forms.ddbar", "hermitian.property_report", "setup"}


def _has_ancestor(spans, i, names):
    p = spans[i].parent
    while p >= 0:
        if spans[p].name in names:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans, op_names):
    """Per-layer totals from a list of spans.

    Self time of a span is its duration minus the durations of its
    direct children.  Returns ``{metric: value}`` for every per-layer
    metric the spans can give, and the coverage: the share of the
    operation spans' time (spans named in ``op_names``) spent inside
    the layer spans under them.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    total, self_t, calls = {}, {}, {}
    for i, s in enumerate(spans):
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_t[s.name] = self_t.get(s.name, 0.0) + s.duration - child[i]
        calls[s.name] = calls.get(s.name, 0) + 1

    def t(name):
        return total.get(name, 0.0)

    m = {
        "algebra.make_algebra_s": t("algebra.make_algebra"),
        "algebra.make_algebra_calls": calls.get("algebra.make_algebra", 0),
        "forms.ddbar_calls": calls.get("forms.ddbar", 0),
        "forms.exterior_d_calls": calls.get("forms.exterior_d", 0),
        "forms.exterior_d_terms": 0,
        "forms.d_squared_s": 0.0,
        "hermitian.property_report_s": t("hermitian.property_report"),
        "hermitian.property_report_calls": calls.get("hermitian.property_report", 0),
        "hermitian.property_report_self_s": self_t.get("hermitian.property_report", 0.0),
        "almost_abelian.aa_report_self_s": self_t.get("almost_abelian.aa_report", 0.0),
        "almost_abelian.aa_report_calls": calls.get("almost_abelian.aa_report", 0),
        "codim2.c2_report_self_s": self_t.get("codim2.c2_report", 0.0),
        "codim2.classify_btp_self_s": self_t.get("codim2.classify_btp", 0.0),
        "codim2.classify_btp_calls": calls.get("codim2.classify_btp", 0),
        "codim2.classify_property_reports": 0,
        "serial.load_spec_s": t("serial.load_spec"),
        "serial.encode_s": t("serial.jsonable") + t("serial.canonical_json"),
        "serial.report_bytes": 0,
        "cli.check_s": t("cli.check"),
        "cli.classify_s": t("cli.classify"),
        "cli.tensors_s": t("cli.tensors"),
        "sampling.inputs_s": t("sampling.inputs"),
    }
    for which in _DDBAR_NAMES:
        m["forms.ddbar_%s_s" % which] = 0.0
    for number in range(1, 14):
        m["verify.criterion_%d_s" % number] = t("verify.criterion_%d" % number)

    op_time = covered = 0.0
    for i, s in enumerate(spans):
        if s.name == "forms.ddbar":
            m["forms.ddbar_%s_s" % _DDBAR_NAMES[s.count]] += s.duration
        elif s.name == "forms.exterior_d":
            m["forms.exterior_d_terms"] += s.count
            if not _has_ancestor(spans, i, _NOT_D_SQUARED):
                m["forms.d_squared_s"] += s.duration
        elif s.name == "serial.canonical_json":
            m["serial.report_bytes"] += s.count
        elif s.name == "hermitian.property_report":
            if _has_ancestor(spans, i, {"codim2.classify_btp"}):
                m["codim2.classify_property_reports"] += 1
        if s.name in op_names:
            op_time += s.duration
            covered += child[i]
    m["trace.coverage_pct"] = 100.0 * covered / op_time if op_time else 0.0
    return m


def layer_units():
    """Unit of every per-layer metric, by the suffix of its name."""
    names = list(layer_metrics([], set())) + [
        "cli.import_s", "cli.import_scipy_s", "trace.overhead_pct"]
    suffix_units = (("_s", "s"), ("_pct", "%"), ("_bytes", "bytes"))
    return {n: next((u for suf, u in suffix_units if n.endswith(suf)), "count")
            for n in names}
