"""Experiment protocols: classifier dispatch, sweeps, session metrics, reports."""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .data import DataError, resample_set
from .graph import GalleryIndex, GraphConfig, _check_width, _underflow, build_knn_graph
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


class _Gallery(GalleryIndex):
    """One labelled block and what the classifiers derive from it alone.

    The :class:`GalleryIndex` of a read-only copy of the class sets, stacked
    in class order; ``sets`` are views of those rows. The labels, the
    per-class distances and the per-class fits are parts of the index's
    memo, built on first use and never changed after that.
    """

    def __init__(self, sets):
        X = np.vstack(sets)
        X.setflags(write=False)
        super().__init__(X)
        self.sets = np.split(X, np.cumsum([len(ts) for ts in sets])[:-1])

    def matches(self, sets) -> bool:
        return (len(sets) == len(self.sets)
                and all(np.array_equal(a, b) for a, b in zip(sets, self.sets)))

    def labels(self) -> np.ndarray:
        """One-hot class labels of the stacked rows."""
        c = len(self.sets)
        return self._part("labels", lambda: one_hot_labels(
            np.repeat(np.arange(1, c + 1), [len(ts) for ts in self.sets]), c))

    def constant_class(self) -> int | None:
        """The first class whose samples are all identical, if any."""
        return self._part("constant", lambda: next(
            (p for p, ts in enumerate(self.sets, start=1) if _all_identical(ts)), None))

    def pca_fits(self, q: int) -> list[PCAFit]:
        """Each class's leading q principal directions."""
        return self._part(("pca", q), lambda: [pca_fit(ts, q) for ts in self.sets])

    def class_distances(self) -> list[np.ndarray]:
        """Each class's condensed squared distances (``pdist``)."""
        return self._part("pdist", lambda: [pdist(ts, "sqeuclidean") for ts in self.sets])

    def gaussians(self, energy_cutoff: float) -> list[GaussianModel]:
        """Each class's Gaussian fit in spectral form."""
        return self._part(("kld", energy_cutoff), lambda: [
            _gaussian_fit(f"class {p}", ts, energy_cutoff)
            for p, ts in enumerate(self.sets, start=1)])

    def graph(self, obs, config: GraphConfig):
        """The k-NN graph over the gallery rows followed by ``obs``."""
        return build_knn_graph(np.vstack([self.X, obs]), config, self)


_latest: _Gallery | None = None  # the gallery of the most recent query


def _query(train_sets, observations, fits_sets: bool = False):
    """The gallery of the class sets and the observations, both checked.

    Every classifier in the process shares ``_latest``, the most recent
    query's gallery, so the five classifiers of one protocol reuse one
    gallery's work. The class sets find it only if they have the shapes and
    values of its own read-only copy, so changing an array in place between
    calls never returns stale fits. On a miss they get every check and only
    then are stored, so ``_latest`` never holds a NaN or an inf. On a hit
    they equal that copy, and ``np.array_equal`` is False wherever a NaN
    sits, so a hit checks only what can differ: the observations, the class
    sizes against ``min_rows`` and the dimension. Either way the first
    failing check and its message are the same. No lock is needed: a
    gallery is complete before it is stored, and rebinding a name is atomic.

    ``fits_sets`` marks the classifiers that fit a subspace or a Gaussian
    to every set, which needs two samples that differ. The class sets are
    scanned for that once per gallery, the observations on every query.
    """
    global _latest
    sets = [np.asarray(ts, dtype=float) for ts in train_sets]
    obs = np.asarray(observations, dtype=float)
    gallery = _latest
    hit = gallery is not None and gallery.matches(sets)
    _check_sets(sets, obs, min_rows=2 if fits_sets else 1, scan_classes=not hit)
    if not hit:
        gallery = _latest = _Gallery(sets)
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


def _gaussian_fit(what, X, energy_cutoff):
    try:
        return fit_gaussian(X, energy_cutoff)
    except DataError as exc:
        raise DataError(f"{what} has no Gaussian fit: {exc}") from None


def make_classifier(name: str, *, k: int = 5, sigma: float | None = None,
                    sigma_sample_cap: int = 1000, sigma_seed: int = 0,
                    mu: float = 1.0, q: int = 9, sigma_kernel: float | None = None,
                    energy_cutoff: float = 0.96):
    """Callable (train_sets, observations) -> Decision for one classifier id.

    For the graph methods the samples are stacked labelled-first. Work that
    depends on the class sets alone (gallery k-NN lists and sigma windows,
    each class's distances, PCA subspaces, Gaussian fits) is done once per
    gallery and reused while queries keep arriving with the same sets; see
    :func:`_query`. A kmsm query computes its distances to the gallery rows
    once, as one exact block that both sigma and every class's cross kernel
    read.
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
    if sigma_kernel is not None:
        _check_width("sigma_kernel", sigma_kernel)

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
                skern = gallery.sigma(C, Pc, graph_config)
            weights = gaussian_weights(skern)
            test = _kernel_fit("observation set", weights(squareform(Pc)), q_eff)
            sims, a, reached = [], 0, np.zeros(obs.shape[0], dtype=bool)
            for p, (ts, P) in enumerate(zip(gallery.sets, gallery.class_distances()), start=1):
                fit = _kernel_fit(f"class {p}", weights(squareform(P)), q_eff)
                # made contiguous, the slice is cdist(class, obs) bit for
                # bit, in the memory layout its row and column means need
                Kab = weights(np.ascontiguousarray(C[:, a:a + len(ts)].T))
                reached |= Kab.any(axis=0)
                sims.append(gram_kmsm_similarity(Kab, fit, test))
                a += len(ts)
            lost = np.flatnonzero(~reached)
            if lost.size:  # no gallery row's kernel reaches this observation
                i = lost[0]
                raise _underflow(f"kernel value between observation {i + 1} and a gallery row",
                                 "sigma_kernel", skern, C[i].min(), sigma_kernel is not None)
            decision, tie = _decide(sims, np.argmax)
            return Decision(decision, tuple(sims), tie)

    else:  # kld
        def classify(train_sets, observations):
            gallery, obs = _query(train_sets, observations, fits_sets=True)
            test = _gaussian_fit("observation set", obs, energy_cutoff)
            models = gallery.gaussians(energy_cutoff)
            # a divergence that overflows reads inf, or NaN from inf - inf
            with np.errstate(over="ignore", invalid="ignore"):
                scores = [symmetric_kl(test, mdl) for mdl in models]
            far = np.flatnonzero(~np.isfinite(scores))
            if far.size:
                raise DataError(f"class {far[0] + 1}'s divergence from the observation set"
                                " leaves the floating-point range")
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


def _score(classifier, queries) -> tuple[tuple[int, int], ...]:
    """(decision, class) for each (train_sets, observations) query, the p-th
    holding class p's set. ``queries`` may be a generator: each query is
    drawn just before it is classified."""
    return tuple((classifier(train_sets, obs).decision, cls)
                 for cls, (train_sets, obs) in enumerate(queries, start=1))


def _error_stats(decisions) -> tuple[tuple[float, ...], float, float]:
    """Per-trial errors of the trials' (decision, class) pairs, their mean
    as total wrong over all decisions, and the errors' std."""
    errors = tuple(error_rate(trial) for trial in decisions)
    return errors, error_rate(chain.from_iterable(decisions)), float(np.std(np.asarray(errors)))


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
                      threads: int = 1) -> list[TrialReport]:
    """For each m, classify ``trials`` fresh observation sets per class.

    ``factory(class_id, m, rng)`` returns (train_sets, observations). Each
    (m, trial, class) task gets its own generator split off the master seed,
    so the trials of ``threads`` >= 2 pool threads reproduce a serial run;
    one thread runs them in the caller's thread.
    """
    m_values = [int(m) for m in m_values]
    if not m_values:
        raise ValueError("m_values nonempty required")
    if trials < 1:
        raise ValueError("trials >= 1 required")
    if threads < 1:
        raise ValueError("threads >= 1 required")
    reports = []
    for m in m_values:
        def run_trial(t, m=m):
            return _score(classifier, (
                factory(cls, m, np.random.default_rng(np.random.SeedSequence([seed, m, t, cls])))
                for cls in range(1, classes + 1)))

        if threads == 1:
            decisions = tuple(map(run_trial, range(trials)))
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                decisions = tuple(pool.map(run_trial, range(trials)))
        errors, mean, std = _error_stats(decisions)
        reports.append(TrialReport(
            m=m, classifier=classifier_name, trials=trials, seed=seed,
            errors=errors, decisions=decisions, mean_error=mean, std_error=std,
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
            if i != j:
                errors[(i, j)] = error_rate(_score(classifier, (
                    (train_sets, resample_set(np.asarray(xs, dtype=float), r))
                    for xs in test_gallery)))
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
    if train_count < 1:
        raise ValueError("train_count >= 1 required")
    for p, xs in enumerate(sets, start=1):
        if xs.shape[0] <= train_count:
            raise ValueError(
                f"class {p} has {xs.shape[0]} samples, needs more than {train_count}"
            )
    decisions = []
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        train_sets, test_sets = [], []
        for xs in sets:
            perm = rng.permutation(xs.shape[0])
            train_sets.append(resample_set(xs[perm[:train_count]], r))
            test_sets.append(resample_set(xs[perm[train_count:]], r))
        decisions.append(_score(classifier, ((train_sets, ts) for ts in test_sets)))
    errors, mean, std = _error_stats(decisions)
    return SplitReport(train_count=train_count, trials=trials, seed=seed, r=r,
                       errors=errors, mean_error=mean, std_error=std)
