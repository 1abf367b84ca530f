"""The benchmark's workloads and the checks applied to every classify call.

Every workload builds its inputs from the seed alone, enrols its gallery
through ``save_gallery``/``load_gallery``, warms up each classifier once and
then runs whole cycles. A cycle gives every classifier the same number of
sets at each of its three observation counts m, so pooled statistics weigh
the m values alike. ``run_cycle`` returns the seconds the cycle spent on
the clock.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import statistics
import threading
import time
from pathlib import Path

import numpy as np

import masc
from masc.fixtures import RotatedRasterConfig, RotatedRasterFixture

# Fixed here rather than read from masc so that the metric names stay put.
CLASSIFIERS = ("masc", "lp", "msm", "kmsm", "kld")
MINIMISED = ("masc", "kld")  # decision is the argmin of the scores, else the argmax
TAIL_BEYOND = 10             # samples a tail percentile must leave above it
TRIM = 0.1                   # share of the samples a trimmed mean drops at each end

# Keys of the named random streams derived from the seed.
GALLERY, WARMUP, CYCLE, QUERY = 1, 2, 3, 4
# The fixture's classes (raster base patterns) are one fixed problem; the
# seed draws the galleries and sets. Runs on different seeds then
# differ in their samples, not in the problem, which keeps costs comparable.
FIXTURE_SEED = 0


def stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def digest(*parts) -> str:
    """Short hex digest of decisions (JSON values) and arrays."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr(part.shape).encode())
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())
        else:
            h.update(json.dumps(part).encode())
    return h.hexdigest()[:16]


def check_decision(name: str, dec, c: int) -> str | None:
    """Why one classify output is wrong, or None if it passes every check."""
    d = dec.decision
    if not isinstance(d, numbers.Integral) or isinstance(d, bool) or not 1 <= d <= c:
        return f"decision {d!r} outside 1..{c}"
    scores = [float(s) for s in dec.scores]
    if len(scores) != c:
        return f"{len(scores)} scores for {c} classes"
    if not all(math.isfinite(s) for s in scores):
        return "non-finite score"
    best = min(scores) if name in MINIMISED else max(scores)
    if d != scores.index(best) + 1:
        return f"decision {d} is not the first best score"
    if bool(dec.tie) != (scores.count(best) > 1):
        return f"tie={dec.tie!r} disagrees with the scores"
    return None


def tail(samples) -> tuple[float, int]:
    """(value, percentile) of the highest whole percentile with 10 samples beyond it.

    Nearest-rank percentile P takes the ceil(P n / 100)-th smallest sample,
    leaving n - ceil(P n / 100) samples above it.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    pct = 100 * (n - TAIL_BEYOND) // n
    rank = -(-pct * n // 100)
    return sorted(samples)[rank - 1], pct


def trimmed_mean(samples) -> float:
    """Mean of the samples left after dropping the lowest and highest tenth.

    The host's speed shifts by a fifth or more for seconds at a time. The
    median of samples pooled over three m values then jumps between modes
    with the share of slow seconds in a run; the trimmed mean moves in
    proportion to it and, unlike the mean, ignores single stalls.
    """
    ordered = sorted(samples)
    k = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[k:len(ordered) - k])


class Recorder:
    """Times and checks classify calls; safe to share between threads."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latency = {name: [] for name in CLASSIFIERS}
        self.attempted = 0
        self.failures: list[str] = []
        self._lock = threading.Lock()

    def call(self, name, classify, train_sets, observations, keep=True):
        """Run one classify call; a raise or a failed check counts as failed."""
        start = time.perf_counter()
        try:
            if self.tracer is None:
                dec = classify(train_sets, observations)
            else:
                dec = self.tracer.classify(train_sets, lambda: classify(train_sets, observations))
            elapsed = time.perf_counter() - start
            reason = check_decision(name, dec, len(train_sets))
        except Exception as exc:  # the run goes on and reports the failure
            elapsed = time.perf_counter() - start
            dec, reason = masc.Decision(0, (), False), f"{type(exc).__name__}: {exc}"
        with self._lock:
            self.attempted += 1
            if keep:
                self.latency[name].append(elapsed)
            if reason is not None:
                self.failures.append(f"{name}: {reason}")
        return dec

    def wrap(self, name, classify):
        def timed(train_sets, observations):
            return self.call(name, classify, train_sets, observations)

        return timed

    def fail(self, what: str) -> None:
        with self._lock:
            self.attempted += 1
            self.failures.append(what)


class Workload:
    """Shared set-up: enrolment through CSV, classifiers and warm-up calls."""

    name = ""
    m_values: tuple[int, ...] = ()

    def __init__(self, seed: int, *, scratch: Path, tracer=None):
        self.seed = seed
        self.tracer = tracer
        self.recorder = Recorder(tracer)
        self.sets = 0
        self.wrong = 0
        self.cycle_digests: list[str] = []
        self._raw = {name: masc.make_classifier(name) for name in CLASSIFIERS}
        self.classifiers = {name: self.recorder.wrap(name, fn) for name, fn in self._raw.items()}
        self._scratch = scratch

    def enrol(self, sets) -> list[np.ndarray]:
        """Write the gallery as CSV and read it back, as a user would enrol it."""
        self._scratch.mkdir(parents=True, exist_ok=True)
        path = self._scratch / f"gallery-{self.name}-{os.getpid()}-{threading.get_ident()}.csv"
        try:
            masc.save_gallery(sets, path)
            loaded = masc.load_gallery(path)
        finally:
            path.unlink(missing_ok=True)
        same = len(loaded) == len(sets) and all(
            np.array_equal(a, np.asarray(b)) for a, b in zip(loaded, sets))
        if not same:
            self.recorder.fail("enrol: the gallery changed in its CSV round trip")
        return loaded

    def warm_up(self, train_sets, observations) -> None:
        self._query(0)
        for name, classify in self._raw.items():
            self.recorder.call(name, classify, train_sets, observations, keep=False)

    def _query(self, qid=None) -> None:
        if self.tracer is not None:
            self.tracer.set_query(qid)

    def _finish_cycle(self, decisions, truths) -> None:
        self.sets += len(decisions)
        self.wrong += sum(int(d != t) for d, t in zip(decisions, truths))
        self.cycle_digests.append(digest(decisions))


def rotated(names, by: int) -> tuple[str, ...]:
    """Round-robin order shifted by ``by``, so no classifier always runs after
    the same one (a BLAS-heavy call slows the call that follows it)."""
    by %= len(names)
    return tuple(names[by:]) + tuple(names[:by])


def raster_fixture() -> RotatedRasterFixture:
    return RotatedRasterFixture(RotatedRasterConfig(seed=FIXTURE_SEED))


class RasterSweep(Workload):
    """The digit experiment: d=256 rasters, fixed 60-row gallery, 10 classes.

    Serial ``observation_sweep`` calls of one trial each (10 sets), with
    ``threads=1``. A kld call costs about 30 times a call of the others, so
    per m a cycle makes ``rounds`` calls for each of masc, lp, msm and kmsm,
    in rotated order, and one kld call halfway through. The cheap
    classifiers' calls then fill more than half of the loop instead of a
    tenth in short bursts between kld calls, which left their medians more
    unsteady from run to run than kld's. With the auto
    thread count, overlapping calls wait on each other for the interpreter
    lock, and a pool with one task per call starts a fresh thread whose
    first calls are slow; both made per-call latency too unsteady to bound.
    """

    name = "raster-sweep"
    m_values = (10, 50, 150)
    rounds = 4
    cheap = tuple(name for name in CLASSIFIERS if name != "kld")

    def __init__(self, seed: int, *, scratch: Path, tracer=None):
        super().__init__(seed, scratch=scratch, tracer=tracer)
        self.fixture = raster_fixture()
        self.classes = self.fixture.classes
        gallery = self.enrol(self.fixture.train_sets())
        _, warm_obs = self.fixture.make_instance(1, self.m_values[0], stream(seed, WARMUP))
        self.warm_up(gallery, warm_obs)
        # the first set of each m in cycle 0, drawn exactly as observation_sweep draws it
        first = [self.fixture.make_instance(1, m, np.random.default_rng(
                     np.random.SeedSequence([self.sweep_seed(0, i, self.cheap[0], 0), m, 0, 1])))[1]
                 for i, m in enumerate(self.m_values)]
        self.input_digest = digest(*gallery, warm_obs, *first)

    def sweep_seed(self, index: int, m_pos: int, name: str, rep: int) -> int:
        """Seed of one observation_sweep call; no two calls share their sets."""
        key = [self.seed, CYCLE, index, m_pos, CLASSIFIERS.index(name), rep]
        return int(np.random.SeedSequence(key).generate_state(1)[0])

    def calls(self, index: int):
        """(m position, m, classifier, repeat) of each sweep call of a cycle."""
        for i, m in enumerate(self.m_values):
            shift = index * len(self.m_values) + i
            for rep in range(self.rounds):
                if rep == self.rounds // 2:
                    yield i, m, "kld", 0
                for name in rotated(self.cheap, shift + rep):
                    yield i, m, name, rep

    def _factory(self, class_id, m, rng):
        self._query()
        return self.fixture.make_instance(class_id, m, rng)

    def run_cycle(self, index: int) -> float:
        start = time.perf_counter()
        decisions, truths = [], []
        for i, m, name, rep in self.calls(index):
            reports = masc.observation_sweep(
                self._factory, self.classifiers[name], self.classes, [m], 1,
                self.sweep_seed(index, i, name, rep), classifier_name=name, threads=1)
            for trial in reports[0].decisions:
                decisions.extend(int(d) for d, _ in trial)
                truths.extend(t for _, t in trial)
        elapsed = time.perf_counter() - start
        self._finish_cycle(decisions, truths)
        return elapsed


class GalleryStream(Workload):
    """One closed-loop client querying a fixed l=1000, d=256 raster gallery.

    Round r = q // 5 sends queries 5r..5r+4 to the five classifiers in the
    order rotated by r, with m = M[r mod 3] and true class r mod 10 + 1, so a
    cycle of 15 queries gives every classifier each m once. The next cycle's
    sets are drawn off the clock.
    """

    name = "gallery-stream"
    m_values = (10, 50, 150)
    per_class = 100
    per_cycle = len(CLASSIFIERS) * 3

    def __init__(self, seed: int, *, scratch: Path, tracer=None):
        super().__init__(seed, scratch=scratch, tracer=tracer)
        self.fixture = raster_fixture()
        self.classes = self.fixture.classes
        self.gallery = self.enrol(self.fixture.gallery(self.per_class, stream(seed, GALLERY)))
        _, warm_obs = self.fixture.make_instance(1, self.m_values[0], stream(seed, WARMUP))
        self.warm_up(self.gallery, warm_obs)
        self._pending = (0, self._inputs(0))
        self.input_digest = digest(*self.gallery, warm_obs, *(obs for *_, obs in self._pending[1]))

    def _inputs(self, index: int) -> list[tuple[int, str, int, np.ndarray]]:
        queries = []
        for q in range(index * self.per_cycle, (index + 1) * self.per_cycle):
            r = q // len(CLASSIFIERS)
            name = rotated(CLASSIFIERS, r)[q % len(CLASSIFIERS)]
            m = self.m_values[r % len(self.m_values)]
            cls = r % self.classes + 1
            self._query(q + 1)
            _, obs = self.fixture.make_instance(cls, m, stream(self.seed, QUERY, q))
            queries.append((q, name, cls, obs))
        return queries

    def run_cycle(self, index: int) -> float:
        pending_index, queries = self._pending
        if pending_index != index:
            queries = self._inputs(index)
        decisions, truths = [], []
        start = time.perf_counter()
        for q, name, cls, obs in queries:
            self._query(q + 1)
            decisions.append(int(self.classifiers[name](self.gallery, obs).decision))
            truths.append(cls)
        elapsed = time.perf_counter() - start
        self._finish_cycle(decisions, truths)
        return elapsed


WORKLOADS = {w.name: w for w in (RasterSweep, GalleryStream)}
