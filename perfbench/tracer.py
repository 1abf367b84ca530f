"""In-memory span tracer that wraps the public functions of the masc layers.

The tracer patches every public function defined in a layer module under
every module name it is reachable from (``masc.evaluate.kl_gaussian`` and
``masc.statdist.kl_gaussian`` get the same wrapper), plus the fixtures'
``make_instance`` and ``gallery`` entry points. Nothing under ``src/`` is
edited; ``uninstall`` restores every original attribute.

Each span records name, start, end, parent span and query id. Self time is a
span's duration minus the part of it covered by its child spans. Counters
for a few calls are computed from their arguments and results inside a
``trace.counters`` child span, so their cost is not charged to any layer.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict

import numpy as np

from workloads import digest

LAYERS = ("data", "fixtures", "graph", "smoothing", "labelprop", "subspace",
          "statdist", "evaluate")
FIXTURE_METHODS = ("make_instance", "gallery")

# Targets the per-layer metrics read; a missing one is reported as absent.
EXPECTED = (
    "data.rotation_set", "data.load_gallery", "data.save_gallery",
    "fixtures.make_instance", "graph.build_knn_graph", "graph.estimate_sigma",
    "graph.normalize_similarity", "smoothing.masc_classify", "labelprop.lp_solve",
    "subspace.pca_subspace", "subspace.msm_similarity", "subspace.kpca_subspace",
    "subspace.kmsm_similarity", "statdist.fit_gaussian", "statdist.kl_gaussian",
)

COUNTER_SPAN = "trace.counters"
CLASSIFY_SPAN = "evaluate.classify"


class Tracer:
    """Spans and counters of one traced run, kept in memory until written."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, query)
        self.absent: list[str] = []
        self.active = False
        self._ids = itertools.count(1)
        self._queries = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._sums: dict[str, float] = defaultdict(float)
        self._counts: dict[str, int] = defaultdict(int)
        self._maxima: dict[str, float] = {}
        self._seen: dict[str, set] = defaultdict(set)
        self._hooks = {
            "graph.build_knn_graph": self._graph_counters,
            "labelprop.lp_solve": self._lp_counters,
            "subspace.pca_subspace": self._pca_counters,
            "subspace.kpca_subspace": self._kpca_counters,
            "statdist.fit_gaussian": self._statdist_counters,
        }

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"masc.{layer}")
            except ImportError:
                self._note_absent(f"{layer} (module)")
        namespaces = list(modules.values()) + [importlib.import_module("masc")]
        wrappers: dict[int, object] = {}
        found = set()
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if obj.__module__ != f"masc.{layer}" or layer not in modules:
                    continue
                name = f"{layer}.{obj.__name__}"
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(name, obj)
                self._patch(ns, attr, wrappers[id(obj)])
                found.add(name)
        fixtures = modules.get("fixtures")
        if fixtures is not None:
            for cls in vars(fixtures).values():
                if not (inspect.isclass(cls) and cls.__module__ == fixtures.__name__):
                    continue
                for meth in FIXTURE_METHODS:
                    fn = cls.__dict__.get(meth)
                    if inspect.isfunction(fn):
                        self._patch(cls, meth, self._wrap(f"fixtures.{meth}", fn))
                        found.add(f"fixtures.{meth}")
        for name in EXPECTED:
            if name not in found:
                self._note_absent(name)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _note_absent(self, name: str) -> None:
        if name not in self.absent:
            self.absent.append(name)

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, name, fn):
        hook = self._hooks.get(name)
        signature = inspect.signature(fn) if hook else None
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            token = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(token)
            if hook is not None:
                tracer._run_hook(name, hook, signature, args, kwargs, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- spans ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        token = (next(self._ids), parent, name, time.perf_counter())
        stack.append(token)
        return token

    def _close(self, token) -> None:
        end = time.perf_counter()
        self._stack().pop()
        sid, parent, name, start = token
        self.spans.append((sid, parent, name, start, end, getattr(self._local, "query", 0)))

    def set_query(self, qid: int | None = None) -> None:
        """Tag the spans this thread records next with ``qid`` (None: a new id)."""
        self._local.query = next(self._queries) if qid is None else qid

    def classify(self, train_sets, call):
        """Run ``call()`` inside an evaluate.classify span for these train sets."""
        if not self.active:
            return call()
        self._local.labelled = sum(len(ts) for ts in train_sets)
        token = self._open(CLASSIFY_SPAN)
        try:
            return call()
        finally:
            self._close(token)
            self._local.labelled = None

    # -- counters -------------------------------------------------------

    def _run_hook(self, name, hook, signature, args, kwargs, result) -> None:
        token = self._open(COUNTER_SPAN)
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(bound.arguments, result)
        except (AttributeError, KeyError, TypeError, ValueError, IndexError):
            self._note_absent(f"{name} (counters)")
        finally:
            self._close(token)

    def _add(self, key, value) -> None:
        with self._lock:
            self._sums[key] += float(value)
            self._counts[key] += 1

    def _max(self, key, value) -> None:
        with self._lock:
            self._maxima[key] = max(self._maxima.get(key, float(value)), float(value))

    def _repeat(self, layer, key) -> None:
        with self._lock:
            seen = key in self._seen[layer]
            self._seen[layer].add(key)
        self._add(f"{layer}.repeat_frac", 1.0 if seen else 0.0)

    def _graph_counters(self, args, graph) -> None:
        X = np.asarray(args["X"], dtype=float)
        n = X.shape[0]
        self._add("graph.pairs_computed", n * n)
        self._max("graph.d2_mb_max", 8.0 * n * n / 1e6)
        self._add("graph.edges", graph.H.nnz // 2)
        labelled = getattr(self._local, "labelled", None)
        if labelled:
            self._add("graph.interface_edges", graph.S[:labelled, labelled:].nnz)
            self._repeat("graph", digest(X[:labelled]))

    def _lp_counters(self, args, _result) -> None:
        n = args["S"].shape[0]
        c = np.asarray(args["Y"]).shape[1]
        self._add("labelprop.lp_solve.flops", 2.0 * n ** 3 / 3.0 + 2.0 * n * n * c)

    def _pca_counters(self, args, _result) -> None:
        self._repeat("subspace", digest("pca", np.asarray(args["X"], dtype=float), args["q"]))

    def _kpca_counters(self, args, _result) -> None:
        self._repeat("subspace", digest("kpca", np.asarray(args["X"], dtype=float), args["q"]))

    def _statdist_counters(self, args, model) -> None:
        self._add("statdist.fit_gaussian.retained_mean", model.retained)
        self._repeat("statdist", digest(np.asarray(args["X"], dtype=float), args["energy_cutoff"]))

    # -- results --------------------------------------------------------

    def self_times(self) -> dict[str, list[float]]:
        """Self time in seconds of every span, grouped by span name."""
        children = defaultdict(list)
        for _sid, parent, _name, start, end, _q in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = defaultdict(list)
        for sid, _parent, name, start, end, _q in self.spans:
            covered, reach = 0.0, start
            for cs, ce in sorted(children.get(sid, ())):
                cs, ce = max(cs, reach), min(ce, end)
                if ce > cs:
                    covered += ce - cs
                    reach = ce
            out[name].append(end - start - covered)
        return out

    def mean(self, key) -> float:
        count = self._counts.get(key, 0)
        return self._sums[key] / count if count else 0.0

    def maximum(self, key) -> float:
        return self._maxima.get(key, 0.0)

    def to_json(self) -> dict:
        return {
            "absent": list(self.absent),
            "span_fields": ["id", "parent", "name", "start", "end", "query"],
            "spans": [list(s) for s in self.spans],
        }
