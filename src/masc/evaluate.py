"""Experiment protocols: classifier dispatch, sweeps, session metrics, reports."""

from __future__ import annotations

import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .data import DataError, resample_set
from .graph import GalleryIndex, GraphConfig, build_knn_graph
from .labelprop import lp_votes
from .smoothing import masc_classify, one_hot_labels
from .statdist import GaussianModel, fit_gaussian, symmetric_kl
from .statdist import kl_gaussian  # noqa: F401  perfbench's tracer tests patch it here
from .subspace import (
    PCAFit,
    gaussian_weights,
    gram_kmsm_similarity,
    kpca_gram,
    msm_similarity,
    pca_fit,
)

CLASSIFIERS = ("masc", "lp", "msm", "kmsm", "kld")


@dataclass(frozen=True)
class Decision:
    """Outcome of classifying one observation set.

    ``scores`` has one entry per class: smoothness values for masc (lower is
    better), vote fractions for lp, similarities for msm/kmsm (higher is
    better) and divergences for kld (lower is better).
    """

    decision: int
    scores: tuple[float, ...]
    tie: bool


def resolve_threads(threads: int | None = None) -> int:
    """Worker count; None reads MSC_THREADS (0 or unset means auto)."""
    if threads is None:
        raw = os.environ.get("MSC_THREADS", "0")
        try:
            threads = int(raw)
        except ValueError:
            raise ValueError(f"MSC_THREADS must be an integer, got {raw!r}") from None
    if threads < 0:
        raise ValueError("thread count must be >= 0")
    if threads == 0:
        return min(8, os.cpu_count() or 1)
    return threads


def _check_sets(sets, obs, min_rows: int = 1, scan_classes: bool = True) -> None:
    """Raise DataError unless the float arrays ``sets`` and ``obs`` make a
    query.

    ``min_rows`` is the fewest samples a set may have: the classifiers that
    fit a subspace or a covariance to every set need two. Without
    ``scan_classes`` the class sets are not scanned for non-finite values,
    for a caller that already knows them equal to sets that were.
    """
    if not sets:
        raise DataError("no classes given")
    named = [(f"class {p}", ts, scan_classes) for p, ts in enumerate(sets, start=1)]
    for what, xs, scan in named + [("observation set", obs, True)]:
        if xs.ndim != 2:
            raise DataError(f"{what} must be a 2-D (samples, features) array, got {xs.ndim}-D")
        if xs.shape[0] < 1:
            raise DataError(f"{what} has no samples")
        if xs.shape[0] < min_rows:
            raise DataError(f"{what} needs at least {min_rows} samples, has {xs.shape[0]}")
        if xs.shape[1] < 1:
            raise DataError(f"{what} has no features")
        if scan and not np.isfinite(xs).all():
            raise DataError(f"{what} has a non-finite value")
    d = obs.shape[1]
    for what, ts, _ in named:
        if ts.shape[1] != d:
            raise DataError(f"{what} dimension {ts.shape[1]} != {d}")


def _all_identical(xs) -> bool:
    return bool((xs == xs[0]).all())


class _Gallery:
    """One labelled block and what the classifiers derive from it alone.

    Holds a read-only copy of the class sets, stacked in class order. The
    graph index, the per-class distances and the per-class fits are built
    on first use and never change after that.
    """

    def __init__(self, sets):
        self.X = np.vstack(sets)
        self.X.setflags(write=False)
        self.sets, start = [], 0
        for ts in sets:
            self.sets.append(self.X[start:start + len(ts)])
            start += len(ts)
        self._parts = {}
        self._lock = threading.Lock()

    def matches(self, sets) -> bool:
        return (len(sets) == len(self.sets)
                and all(a.shape == b.shape for a, b in zip(sets, self.sets))
                and all(np.array_equal(a, b) for a, b in zip(sets, self.sets)))

    def _part(self, key, build):
        with self._lock:
            if key not in self._parts:
                self._parts[key] = build()
            return self._parts[key]

    def labels(self) -> np.ndarray:
        """One-hot class labels of the stacked rows."""
        c = len(self.sets)
        return self._part("labels", lambda: one_hot_labels(
            np.repeat(np.arange(1, c + 1), [len(ts) for ts in self.sets]), c))

    def constant_class(self) -> int | None:
        """The first class whose samples are all identical, if any."""
        return self._part("constant", lambda: next(
            (p for p, ts in enumerate(self.sets, start=1) if _all_identical(ts)), None))

    def index(self) -> GalleryIndex:
        return self._part("index", lambda: GalleryIndex(self.X))

    def pca_fits(self, q: int) -> list[PCAFit]:
        """Each class's leading q principal directions."""
        return self._part(("pca", q), lambda: [pca_fit(ts, q) for ts in self.sets])

    def class_distances(self) -> list[np.ndarray]:
        """Each class's condensed squared distances (``pdist``)."""
        return self._part("pdist", lambda: [pdist(ts, "sqeuclidean") for ts in self.sets])

    def gaussians(self, energy_cutoff: float) -> list[GaussianModel]:
        """Each class's Gaussian fit in spectral form."""
        return self._part(("kld", energy_cutoff), lambda: [
            fit_gaussian(ts, energy_cutoff) for ts in self.sets])

    def graph(self, obs, config: GraphConfig):
        """The k-NN graph over the gallery rows followed by ``obs``."""
        return build_knn_graph(np.vstack([self.X, obs]), config, self.index())


class _LatestGallery:
    """One slot holding the gallery of the most recent query.

    The slot is shared by every classifier in the process, so the five
    classifiers of one protocol reuse one gallery's work. A query finds the
    slot's gallery only if its class sets have the same shapes and values,
    compared against the slot's own copy, so changing an array in place
    between calls can never return stale fits. Only class sets that passed
    :func:`_check_sets` are stored, so the slot never holds a NaN or an inf.
    """

    def __init__(self):
        self._gallery = None
        self._lock = threading.Lock()

    def find(self, sets) -> _Gallery | None:
        """The slot's gallery if it equals ``sets``, else None."""
        with self._lock:
            gallery = self._gallery
        return gallery if gallery is not None and gallery.matches(sets) else None

    def store(self, sets) -> _Gallery:
        """A new gallery of the checked ``sets``, now in the slot."""
        gallery = _Gallery(sets)
        with self._lock:
            self._gallery = gallery
        return gallery


_LATEST = _LatestGallery()


def _query(train_sets, observations, fits_sets: bool = False):
    """The gallery of the class sets and the observations, both checked.

    The class sets are looked up in the slot before they are checked. On a
    miss they get every check and only then are stored. On a hit they equal
    the stored copy, which holds only finite values, and ``np.array_equal``
    is False wherever a NaN sits, so they are not scanned again: a hit
    checks only what can differ from the stored gallery, that is the
    observations, the class sizes against ``min_rows`` and the dimension.
    Either way the first failing check and its message are the same.

    ``fits_sets`` marks the classifiers that fit a subspace or a Gaussian
    to every set, which needs two samples that differ. The class sets are
    scanned for that once per gallery, the observations on every query.
    """
    sets = [np.asarray(ts, dtype=float) for ts in train_sets]
    obs = np.asarray(observations, dtype=float)
    gallery = _LATEST.find(sets)
    _check_sets(sets, obs, min_rows=2 if fits_sets else 1, scan_classes=gallery is None)
    if gallery is None:
        gallery = _LATEST.store(sets)
    if fits_sets:
        p = gallery.constant_class()
        if p is not None or _all_identical(obs):
            what = "observation set" if p is None else f"class {p}"
            raise DataError(f"{what} has no spread: all its samples are identical")
    return gallery, obs


def _decide(scores, pick) -> tuple[int, bool]:
    """The 1-based class ``pick`` (np.argmax or np.argmin) selects, and
    whether another class has the same score."""
    scores = np.asarray(scores, dtype=float)
    best = int(pick(scores))
    return best + 1, int(np.count_nonzero(scores == scores[best])) > 1


def _subspace_q(q, sets, obs):
    smallest = min(min(ts.shape[0] for ts in sets), obs.shape[0])
    return max(1, min(int(q), smallest - 1, obs.shape[1]))


def _kernel_fit(what, K, q):
    try:
        return kpca_gram(K, q)
    except DataError as exc:
        raise DataError(f"{what} has too few distinct samples: {exc}") from None


def make_classifier(name: str, *, k: int = 5, sigma: float | None = None,
                    sigma_sample_cap: int = 1000, sigma_seed: int = 0,
                    mu: float = 1.0, q: int = 9, sigma_kernel: float | None = None,
                    energy_cutoff: float = 0.96):
    """Callable (train_sets, observations) -> Decision for one classifier id.

    For the graph methods the samples are stacked labelled-first. Work that
    depends on the class sets alone (gallery k-NN lists and sigma windows,
    each class's distances, PCA subspaces, Gaussian fits) is done once per
    gallery and reused while queries keep arriving with the same sets; see
    :class:`_LatestGallery`. A kmsm query computes its distances to the
    gallery rows once, as one exact block that both sigma and every class's
    cross kernel read.
    The subspace dimension is capped at (smallest set size - 1) so thin sets
    stay usable; msm further caps each set's subspace at that set's
    numerical rank, the observation subspace below d and each class subspace
    at d minus the observation subspace's dimension, and kmsm rejects a set
    whose kernel matrix is too thin.
    msm and kmsm score by the squared largest canonical correlation, kld by
    the symmetrized KL divergence.
    """
    if name not in CLASSIFIERS:
        raise ValueError(f"unknown classifier {name!r} (choose from {CLASSIFIERS})")
    graph_config = GraphConfig(k=k, sigma=sigma, sigma_sample_cap=sigma_sample_cap,
                               sigma_seed=sigma_seed)

    if name == "masc":
        def classify(train_sets, observations):
            gallery, obs = _query(train_sets, observations)
            g = gallery.graph(obs, graph_config)
            res = masc_classify(g.S, gallery.labels(), obs.shape[0])
            return Decision(res.decision, tuple(float(v) for v in res.scores), res.tie)

    elif name == "lp":
        def classify(train_sets, observations):
            gallery, obs = _query(train_sets, observations)
            m = obs.shape[0]
            g = gallery.graph(obs, graph_config)
            counts = lp_votes(g.S, gallery.labels(), m, mu)
            decision, tie = _decide(counts, np.argmax)
            return Decision(decision, tuple(float(v) / m for v in counts), tie)

    elif name == "msm":
        def classify(train_sets, observations):
            gallery, obs = _query(train_sets, observations, fits_sets=True)
            q_eff, d = _subspace_q(q, gallery.sets, obs), obs.shape[1]
            test_fit = pca_fit(obs)
            # subspaces of dimensions a and b in R^d share a direction once
            # a + b > d, and every score would be 1: the classes get the room
            # the observation subspace leaves
            q_test = max(1, min(q_eff, test_fit.rank, d - 1))
            test = test_fit.subspace(q_test)
            sims = [msm_similarity(fit.subspace(min(q_eff, fit.rank, max(1, d - q_test))), test)
                    for fit in gallery.pca_fits(max(1, int(q)))]
            decision, tie = _decide(sims, np.argmax)
            return Decision(decision, tuple(sims), tie)

    elif name == "kmsm":
        def classify(train_sets, observations):
            gallery, obs = _query(train_sets, observations, fits_sets=True)
            q_eff = _subspace_q(q, gallery.sets, obs)
            # one m x l block of exact distances serves sigma and every
            # class's cross kernel
            C = cdist(obs, gallery.X, "sqeuclidean")
            Pc = pdist(obs, "sqeuclidean")
            skern = sigma_kernel
            if skern is None:
                skern = gallery.index().sigma(C, Pc, graph_config)
            weights = gaussian_weights(skern)
            test = _kernel_fit("observation set", weights(squareform(Pc)), q_eff)
            sims, a = [], 0
            for p, (ts, P) in enumerate(zip(gallery.sets, gallery.class_distances()), start=1):
                fit = _kernel_fit(f"class {p}", weights(squareform(P)), q_eff)
                # made contiguous, the slice is cdist(class, obs) bit for
                # bit, in the memory layout its row and column means need
                Kab = weights(np.ascontiguousarray(C[:, a:a + len(ts)].T))
                sims.append(gram_kmsm_similarity(Kab, fit, test))
                a += len(ts)
            decision, tie = _decide(sims, np.argmax)
            return Decision(decision, tuple(sims), tie)

    else:  # kld
        def classify(train_sets, observations):
            gallery, obs = _query(train_sets, observations, fits_sets=True)
            test = fit_gaussian(obs, energy_cutoff)
            scores = [symmetric_kl(test, mdl) for mdl in gallery.gaussians(energy_cutoff)]
            decision, tie = _decide(scores, np.argmin)
            return Decision(decision, tuple(scores), tie)

    return classify


def error_rate(decisions) -> float:
    """Fraction of (predicted, true) pairs that disagree."""
    pairs = list(decisions)
    if not pairs:
        raise ValueError("decisions nonempty required")
    wrong = sum(1 for pred, true in pairs if pred != true)
    return wrong / len(pairs)


def session_metric(errors, sessions: int = 3) -> float:
    """Mean error over all ordered (train session, test session) pairs."""
    pairs = [(i, j) for i in range(1, sessions + 1)
             for j in range(1, sessions + 1) if i != j]
    missing = [p for p in pairs if p not in errors]
    if missing:
        raise ValueError(f"missing error entries for session pairs {missing}")
    return sum(float(errors[p]) for p in pairs) / len(pairs)


@dataclass(frozen=True)
class TrialReport:
    """Per-m sweep outcome across seeded trials."""

    m: int
    classifier: str
    trials: int
    seed: int
    errors: tuple[float, ...]
    decisions: tuple[tuple[tuple[int, int], ...], ...]
    mean_error: float
    std_error: float


def observation_sweep(factory, classifier, classes: int, m_values, trials: int,
                      seed: int, classifier_name: str = "",
                      threads: int | None = None) -> list[TrialReport]:
    """For each m, classify ``trials`` fresh observation sets per class.

    ``factory(class_id, m, rng)`` returns (train_sets, observations). Each
    (m, trial, class) task gets its own generator split off the master seed,
    so parallel runs reproduce serial ones; errors are accumulated as integer
    counts before dividing.
    """
    m_values = [int(m) for m in m_values]
    if not m_values:
        raise ValueError("m_values nonempty required")
    if trials < 1:
        raise ValueError("trials >= 1 required")
    workers = resolve_threads(threads)
    reports = []
    for m in m_values:
        def run_trial(t, m=m):
            wrong = 0
            decs = []
            for cls in range(1, classes + 1):
                rng = np.random.default_rng(np.random.SeedSequence([seed, m, t, cls]))
                train_sets, obs = factory(cls, m, rng)
                dec = classifier(train_sets, obs)
                decs.append((dec.decision, cls))
                wrong += int(dec.decision != cls)
            return wrong, tuple(decs)

        if workers <= 1:
            results = [run_trial(t) for t in range(trials)]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(run_trial, range(trials)))
        wrongs = [r[0] for r in results]
        errors = tuple(w / classes for w in wrongs)
        mean = sum(wrongs) / (classes * trials)
        std = float(np.std(np.asarray(errors)))
        reports.append(TrialReport(
            m=m, classifier=classifier_name, trials=trials, seed=seed,
            errors=errors, decisions=tuple(r[1] for r in results),
            mean_error=float(mean), std_error=std,
        ))
    return reports


SWEEP_CSV_HEADER = "m,classifier,mean_error,std_error,trials,seed"


def sweep_to_csv(reports) -> str:
    lines = [SWEEP_CSV_HEADER]
    for r in reports:
        lines.append(
            f"{r.m},{r.classifier},{r.mean_error!r},{r.std_error!r},{r.trials},{r.seed}"
        )
    return "\n".join(lines) + "\n"


def sweep_to_json(reports) -> str:
    payload = [
        {
            "m": r.m,
            "classifier": r.classifier,
            "mean_error": r.mean_error,
            "std_error": r.std_error,
            "trials": r.trials,
            "seed": r.seed,
            "errors": list(r.errors),
        }
        for r in reports
    ]
    return json.dumps(payload) + "\n"


def session_pair_errors(sessions, classifier, r: int = 1) -> dict[tuple[int, int], float]:
    """e(i, j): error with session i as training and session j as test.

    Both sides are thinned with step r before use; each class's test-session
    set is classified as one observation set.
    """
    if len(sessions) < 2:
        raise ValueError("need at least 2 sessions")
    classes = len(sessions[0])
    for s, gallery in enumerate(sessions, start=1):
        if len(gallery) != classes:
            raise DataError(f"session {s} has {len(gallery)} classes, expected {classes}")
    errors = {}
    for i, train_gallery in enumerate(sessions, start=1):
        train_sets = [resample_set(np.asarray(xs, dtype=float), r) for xs in train_gallery]
        for j, test_gallery in enumerate(sessions, start=1):
            if i == j:
                continue
            wrong = 0
            for cls in range(1, classes + 1):
                obs = resample_set(np.asarray(test_gallery[cls - 1], dtype=float), r)
                wrong += int(classifier(train_sets, obs).decision != cls)
            errors[(i, j)] = wrong / classes
    return errors


@dataclass(frozen=True)
class SplitReport:
    """Random train/test split protocol outcome."""

    train_count: int
    trials: int
    seed: int
    r: int
    errors: tuple[float, ...]
    mean_error: float
    std_error: float


def random_split_errors(gallery, classifier, train_count: int, trials: int,
                        seed: int, r: int = 1) -> SplitReport:
    """Split each class's set into train/test at random, ``trials`` times.

    The held-out part of each class is classified as one observation set;
    both sides are thinned with step r after the split.
    """
    sets = [np.asarray(xs, dtype=float) for xs in gallery]
    classes = len(sets)
    if train_count < 1:
        raise ValueError("train_count >= 1 required")
    for p, xs in enumerate(sets, start=1):
        if xs.shape[0] <= train_count:
            raise ValueError(
                f"class {p} has {xs.shape[0]} samples, needs more than {train_count}"
            )
    wrongs = []
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        train_sets, test_sets = [], []
        for xs in sets:
            perm = rng.permutation(xs.shape[0])
            train_sets.append(resample_set(xs[perm[:train_count]], r))
            test_sets.append(resample_set(xs[perm[train_count:]], r))
        wrong = 0
        for cls in range(1, classes + 1):
            wrong += int(classifier(train_sets, test_sets[cls - 1]).decision != cls)
        wrongs.append(wrong)
    errors = tuple(w / classes for w in wrongs)
    mean = sum(wrongs) / (classes * trials)
    return SplitReport(train_count=train_count, trials=trials, seed=seed, r=r,
                       errors=errors, mean_error=float(mean),
                       std_error=float(np.std(np.asarray(errors))))
