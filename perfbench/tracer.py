"""Span recorder for the traced run, and the per-layer metrics it yields.

The recorder wraps public functions of each ``autoseries`` module from the
outside: every ``autoseries.*`` namespace that binds a wrapped function is
patched (``identities`` and ``cli`` import them by name), and methods are
patched on their classes.  Each call becomes a span (name, start, end,
parent span, request id, work done), kept in flat in-memory arrays and
written out when the run ends.  A span's self time is its duration minus
the durations of its child spans; summing self times by module gives the
per-layer split of the traced pass.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

import numpy as np

#: (module, attribute path, span name); a span's layer is its module
TARGETS = (
    ("sequences", "CoefficientSequence.block", "sequences.block"),
    ("evaluator", "SeriesSpec.term_block", "evaluator.term_block"),
    ("evaluator", "SeriesSpec.required_counters", "evaluator.required_counters"),
    ("evaluator", "chunked_kahan_sum", "evaluator.kahan"),
    ("evaluator", "eval_naive", "evaluator.naive"),
    ("evaluator", "depth_for", "evaluator.depth_for"),
    ("evaluator", "eval_functional_equation", "evaluator.fe"),
    ("evaluator", "eval_phi_gamma", "evaluator.phi_gamma"),
    ("special_functions", "riemann_zeta", "special_functions.riemann_zeta"),
    ("special_functions", "hurwitz_zeta", "special_functions.hurwitz_zeta"),
    ("special_functions", "dirichlet_eta", "special_functions.dirichlet_eta"),
    ("identities", "verify", "identities.verify"),
    ("identities", "eval_series_spec", "identities.eval_series_spec"),
    ("identities", "_EvalCache.get_or_eval", "identities.cache"),
    ("solver", "solve_case", "solver.solve_case"),
    ("solver", "mint_identity", "solver.mint_identity"),
    ("report", "ReportDocument.render", "report.render"),
    ("cli", "main", "cli.main"),
)
#: every ``Expr`` subclass's own ``bracket`` becomes an ``identities.bracket`` span
BRACKET = "identities.bracket"

LAYERS = ("sequences", "evaluator", "special_functions", "identities", "solver", "report", "cli")
ZETA = ("special_functions.riemann_zeta", "special_functions.hurwitz_zeta",
        "special_functions.dirichlet_eta")

# span status
OK, REFUSED, ERROR = 0, 1, 2


def _arg(args: tuple, kwargs: dict, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _span_work(name: str, args: tuple, kwargs: dict, out) -> tuple[int, int]:
    """(work, flag) of a finished span; flag marks the mp path or a cache hit."""
    if name in ("sequences.block", "evaluator.term_block"):
        return _arg(args, kwargs, 2, "hi") - _arg(args, kwargs, 1, "lo"), 0
    if name == "evaluator.kahan":
        return _arg(args, kwargs, 2, "count"), 0
    if name == "evaluator.naive" and out is not None:
        return out.terms_used, int(not isinstance(out.value, float))
    return 0, 0


class Recorder:
    """Flat arrays of spans; ``request`` is the id stamped on new spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.t0 = array("q")
        self.t1 = array("q")
        self.parent = array("i")
        self.req = array("i")
        self.work = array("q")
        self.flag = array("b")
        self.status = array("b")
        self.stack: list[int] = []
        self.request = -1
        self._refusals: list[BaseException] = []
        self._cache_hit = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn, refusal_type):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.t0)
            rec.name.append(nid)
            rec.parent.append(rec.stack[-1] if rec.stack else -1)
            rec.req.append(rec.request)
            rec.t0.append(0)
            rec.t1.append(0)
            rec.work.append(0)
            rec.flag.append(0)
            rec.status.append(ERROR)
            rec.stack.append(idx)
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                rec.status[idx] = OK
                return out
            except refusal_type as exc:
                # count each refusal once, where it is first raised
                if not any(e is exc for e in rec._refusals):
                    rec._refusals.append(exc)
                    rec.status[idx] = REFUSED
                raise
            finally:
                t1 = clock()
                rec.stack.pop()
                rec.t0[idx] = t0
                rec.t1[idx] = t1
                work, flag = _span_work(name, args, kwargs, out)
                if name == "identities.cache":
                    flag = rec._cache_hit
                rec.work[idx] = work
                rec.flag[idx] = flag

        return traced

    def _cache_probe(self, get_or_eval):
        """get_or_eval that notes whether it answered from the cache."""
        rec = self

        @functools.wraps(get_or_eval)
        def probe(cache, key, eps, fn):
            missed = []

            def compute(e):
                missed.append(True)
                return fn(e)

            out = get_or_eval(cache, key, eps, compute)
            rec._cache_hit = int(not missed)
            return out

        return probe

    def _set(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Patch every target in every autoseries namespace that binds it."""
        import autoseries
        from autoseries.errors import ResourceLimitError
        from autoseries.identities import Expr

        modules = [m for n, m in sys.modules.items()
                   if (n == "autoseries" or n.startswith("autoseries.")) and m is not None]
        for mod_name, path, name in TARGETS:
            owner = getattr(autoseries, mod_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[attr]
                if name == "identities.cache":
                    fn = self._cache_probe(fn)
                self._set(cls, attr, self._wrap(name, fn, ResourceLimitError))
                continue
            fn = getattr(owner, path)
            traced = self._wrap(name, fn, ResourceLimitError)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, attr, traced)
        todo = list(Expr.__subclasses__())
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if "bracket" in cls.__dict__:
                self._set(cls, "bracket", self._wrap(BRACKET, cls.__dict__["bracket"],
                                                     ResourceLimitError))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        """All spans as gzip'd tab-separated text, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\trequest\twork\tflag\tstatus\n")
            for i in range(len(self.t0)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.t0[i]}\t{self.t1[i]}\t"
                         f"{self.parent[i]}\t{self.req[i]}\t{self.work[i]}\t{self.flag[i]}\t"
                         f"{self.status[i]}\n")


class Spans:
    """Numpy view of a recorder's spans with self times."""

    def __init__(self, rec: Recorder) -> None:
        self.names = rec.names
        self.name = np.frombuffer(rec.name, dtype=np.int32)
        self.parent = np.frombuffer(rec.parent, dtype=np.int32)
        self.req = np.frombuffer(rec.req, dtype=np.int32)
        self.work = np.frombuffer(rec.work, dtype=np.int64)
        self.flag = np.frombuffer(rec.flag, dtype=np.int8)
        self.status = np.frombuffer(rec.status, dtype=np.int8)
        self.dur = (np.frombuffer(rec.t1, dtype=np.int64)
                    - np.frombuffer(rec.t0, dtype=np.int64)).astype(np.float64)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(self.dur))
        self.self_ns = self.dur - child

    def mask(self, *names: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n in names]
        return np.isin(self.name, ids)

    def layer_mask(self, layer: str) -> np.ndarray:
        return self.mask(*(n for n in self.names if n.split(".")[0] == layer))

    def fe_inner(self) -> np.ndarray:
        """eval_naive spans called directly by eval_functional_equation."""
        fe_ids = np.flatnonzero(self.mask("evaluator.fe"))
        return self.mask("evaluator.naive") & np.isin(self.parent, fe_ids)


def layer_metrics(sp: Spans, passes: int, traced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run of ``passes`` passes."""
    ms = 1e-6  # ns -> ms

    def calls(*names):
        return int(sp.mask(*names).sum())

    def self_ns(m):
        return float(sp.self_ns[m].sum())

    def rate(m, scale):
        t = self_ns(m)
        return float(sp.work[m].sum()) / t * 1e9 / scale if t > 0 else 0.0

    def per_call_us(m):
        n = int(m.sum())
        return self_ns(m) / n / 1e3 if n else 0.0

    block, term, kahan = sp.mask("sequences.block"), sp.mask("evaluator.term_block"), \
        sp.mask("evaluator.kahan")
    naive = sp.mask("evaluator.naive")
    mp_naive = naive & (sp.flag == 1)
    fe = sp.mask("evaluator.fe")
    zeta = sp.mask(*ZETA)
    cache = sp.mask("identities.cache")
    roots = sp.parent < 0
    out = {
        "sequences.block.mcoef_per_s": (rate(block, 1e6), "Mcoef/s"),
        "sequences.block.coeffs": (float(sp.work[block].sum()) / passes, "count/pass"),
        "evaluator.term_block.mterms_per_s": (rate(term, 1e6), "Mterms/s"),
        "evaluator.kahan.self_ms": (self_ns(kahan) * ms / passes, "ms/pass"),
        "evaluator.terms": (float(sp.work[naive].sum()) / passes, "count/pass"),
        "evaluator.naive.calls": (calls("evaluator.naive") / passes, "count/pass"),
        "evaluator.naive.mp_kterms_per_s": (rate(mp_naive, 1e3), "kterms/s"),
        "evaluator.truncation.us_per_call": (
            per_call_us(sp.mask("evaluator.required_counters", "evaluator.depth_for")), "us"),
        "evaluator.fe.calls": (calls("evaluator.fe") / passes, "count/pass"),
        "evaluator.fe.inner_evals": (float(sp.fe_inner().sum()) / passes, "count/pass"),
        "evaluator.fe.self_ms": (self_ns(fe) * ms / passes, "ms/pass"),
        "evaluator.refusals": (float((sp.status == REFUSED).sum()) / passes, "count/pass"),
        "special_functions.calls": (float(zeta.sum()) / passes, "count/pass"),
        "special_functions.us_per_call": (per_call_us(zeta), "us"),
        "identities.verify.self_ms": (self_ns(sp.mask("identities.verify")) * ms / passes,
                                      "ms/pass"),
        "identities.bracket.us_per_call": (per_call_us(sp.mask(BRACKET)), "us"),
        "identities.cache.hit_ratio": (
            float(sp.flag[cache].sum()) / int(cache.sum()) if cache.any() else 0.0, "ratio"),
        "solver.solve_case.us_per_call": (per_call_us(sp.mask("solver.solve_case")), "us"),
        "solver.mint_identity.us_per_call": (per_call_us(sp.mask("solver.mint_identity")), "us"),
        "report.render_ms": (self_ns(sp.mask("report.render")) * ms / passes, "ms/pass"),
        "cli.main.self_ms": (per_call_us(sp.mask("cli.main")) / 1e3, "ms/request"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (self_ns(sp.layer_mask(layer)) * ms / passes, "ms/pass")
    wall_ms = traced_wall_s * 1e3 / passes
    out["trace.pass_ms"] = (wall_ms, "ms/pass")
    out["trace.remainder_ms"] = (wall_ms - float(sp.dur[roots].sum()) * ms / passes, "ms/pass")
    return out


def request_counts(sp: Spans, n_requests: int) -> list[list[int]]:
    """Exact work counts of each request: terms, naive calls, FE inner
    evaluations, zeta calls, cache hits, cache lookups, coefficients."""
    naive = sp.mask("evaluator.naive")
    cache = sp.mask("identities.cache")
    block = sp.mask("sequences.block")

    def per_request(m, weights=None):
        m = m & (sp.req >= 0)
        r = sp.req[m]
        w = None if weights is None else weights[m].astype(np.float64)
        return np.bincount(r, weights=w, minlength=n_requests)[:n_requests].astype(np.int64)

    cols = [
        per_request(naive, sp.work),
        per_request(naive),
        per_request(sp.fe_inner()),
        per_request(sp.mask(*ZETA)),
        per_request(cache, sp.flag),
        per_request(cache),
        per_request(block, sp.work),
    ]
    return np.stack(cols, axis=1).tolist()
