import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from masc import graph, labelprop
from masc.data import DataError
from masc.evaluate import (
    CLASSIFIERS,
    Decision,
    error_rate,
    make_classifier,
    observation_sweep,
    random_split_errors,
    session_metric,
    session_pair_errors,
    sweep_to_csv,
)
from masc.fixtures import FIXTURES, make_fixture
from masc.graph import GraphConfig
from masc.smoothing import masc_classify, one_hot_labels
from masc.subspace import pca_subspace
from oracles import reference_knn_graph, reference_lp_votes


class TestErrorRate:
    def test_all_correct(self):
        assert error_rate([(1, 1), (2, 2)]) == 0.0

    def test_all_wrong(self):
        assert error_rate([(1, 2), (2, 1)]) == 1.0

    def test_three_of_ten(self):
        pairs = [(1, 1)] * 7 + [(2, 1)] * 3
        assert error_rate(pairs) == pytest.approx(0.3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            error_rate([])

    @given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=40))
    @settings(max_examples=50)
    def test_bounds(self, pairs):
        assert 0.0 <= error_rate(pairs) <= 1.0


class TestSessionMetric:
    def test_constant_table(self):
        errors = {(i, j): 0.1 for i in (1, 2, 3) for j in (1, 2, 3) if i != j}
        assert session_metric(errors) == pytest.approx(0.1)

    def test_arithmetic(self):
        pairs = [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]
        errors = dict.fromkeys(pairs, 0.0)
        errors[(3, 2)] = 0.6
        assert session_metric(errors) == pytest.approx(0.1)

    def test_exactly_six_terms(self):
        errors = {(i, j): 1.0 for i in (1, 2, 3) for j in (1, 2, 3) if i != j}
        assert len(errors) == 6
        assert session_metric(errors, sessions=3) == 1.0

    def test_missing_pair_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            session_metric({(1, 2): 0.0}, sessions=3)


def blob_factory(cls, m, rng):
    """Trivially separable instance: far-apart class blobs."""
    centers = [np.zeros(3), 10.0 * np.ones(3), -10.0 * np.ones(3)]
    train = [c + 0.2 * rng.normal(size=(6, 3)) for c in centers]
    obs = centers[cls - 1] + 0.2 * rng.normal(size=(m, 3))
    return train, obs


class TestObservationSweep:
    def test_separable_error_zero(self):
        reports = observation_sweep(
            blob_factory, make_classifier("masc", k=3), classes=3,
            m_values=[4, 8], trials=2, seed=0, classifier_name="masc",
        )
        assert [r.mean_error for r in reports] == [0.0, 0.0]
        assert all(len(r.errors) == 2 for r in reports)

    def test_deterministic(self):
        kwargs = dict(classes=3, m_values=[5], trials=3, seed=42,
                      classifier_name="masc")
        clf = make_classifier("masc", k=3)
        a = observation_sweep(blob_factory, clf, **kwargs)
        b = observation_sweep(blob_factory, clf, **kwargs)
        assert a == b

    def test_thread_count_does_not_change_results(self):
        clf = make_classifier("masc", k=3)
        kwargs = dict(classes=3, m_values=[5, 7], trials=4, seed=7,
                      classifier_name="masc")
        serial = observation_sweep(blob_factory, clf, threads=1, **kwargs)
        parallel = observation_sweep(blob_factory, clf, threads=4, **kwargs)
        assert serial == parallel
        assert sweep_to_csv(serial) == sweep_to_csv(parallel)

    def test_csv_shape(self):
        reports = observation_sweep(
            blob_factory, make_classifier("kld"), classes=3,
            m_values=[6], trials=2, seed=1, classifier_name="kld",
        )
        lines = sweep_to_csv(reports).strip().splitlines()
        assert lines[0] == "m,classifier,mean_error,std_error,trials,seed"
        assert lines[1].startswith("6,kld,")

    def test_rejects_empty_m_values(self):
        with pytest.raises(ValueError):
            observation_sweep(blob_factory, make_classifier("masc"), 3, [], 1, 0)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_rejects_fewer_than_one_thread(self, threads):
        with pytest.raises(ValueError, match="threads >= 1"):
            observation_sweep(blob_factory, make_classifier("masc"), 3, [4], 1, 0,
                              threads=threads)


class TestSessionProtocols:
    def make_sessions(self, seed, classes=3, per_class=12):
        rng = np.random.default_rng(seed)
        centers = [8.0 * np.eye(4)[c] for c in range(classes)]
        def one():
            return [c + 0.3 * rng.normal(size=(per_class, 4)) for c in centers]
        return [one(), one(), one()]

    def test_pairs_on_separable_data(self):
        sessions = self.make_sessions(0)
        errors = session_pair_errors(sessions, make_classifier("masc", k=3), r=2)
        assert set(errors) == {(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j}
        assert session_metric(errors, sessions=3) == 0.0

    def test_resampling_thins_both_sides(self):
        sessions = self.make_sessions(1, per_class=9)
        seen = {}

        def spy(train_sets, obs):
            seen["train"] = [len(ts) for ts in train_sets]
            seen["obs"] = len(obs)
            return Decision(1, (0.0,) * 3, False)

        session_pair_errors(sessions[:2], spy, r=4)
        assert seen["train"] == [3, 3, 3]
        assert seen["obs"] == 3

    def test_random_split_protocol(self):
        rng = np.random.default_rng(2)
        centers = [6.0 * np.eye(3)[c] for c in range(3)]
        gallery = [c + 0.3 * rng.normal(size=(20, 3)) for c in centers]
        report = random_split_errors(gallery, make_classifier("masc", k=3),
                                     train_count=10, trials=4, seed=0)
        assert report.mean_error == 0.0
        assert len(report.errors) == 4
        again = random_split_errors(gallery, make_classifier("masc", k=3),
                                    train_count=10, trials=4, seed=0)
        assert report == again

    def test_split_needs_spare_samples(self):
        gallery = [np.zeros((5, 2)), np.ones((5, 2))]
        with pytest.raises(ValueError, match="needs more than"):
            random_split_errors(gallery, make_classifier("kld"), 5, 1, 0)

    def test_split_needs_a_trial(self):
        # the protocols' one message, not error_rate's about no decisions
        gallery = [np.zeros((5, 2)), np.ones((5, 2))]
        for trials in (0, -1):
            with pytest.raises(ValueError, match=r"trials >= 1 required"):
                random_split_errors(gallery, make_classifier("kld"), 4, trials, 0)


_CLEAN = [np.random.default_rng(0).normal(size=(6, 3)) + 4.0 * p for p in range(3)]


def _prime_slot(train, warm):
    """Leave the gallery slot cold for ``train``, or warm: holding ``train``
    after a good masc query, or, where ``train`` itself fails the checks,
    the clean sets of the same shapes that ``_bad_inputs`` spoils."""
    rng = np.random.default_rng(5)
    masc = make_classifier("masc", k=3)
    if not warm:
        masc([rng.normal(size=(5, 3)) for _ in range(2)], rng.normal(size=(4, 3)))
        return
    try:
        masc(train, rng.normal(size=(6, 3)))
    except DataError:
        masc(_CLEAN, rng.normal(size=(6, 3)))


def _bad_inputs():
    rng = np.random.default_rng(0)
    train = [rng.normal(size=(6, 3)) + 4.0 * p for p in range(3)]
    obs = rng.normal(size=(6, 3))
    cases = []
    for where in ("gallery", "observations"):
        for bad in (np.nan, np.inf):
            t, o = [ts.copy() for ts in train], obs.copy()
            (t[1] if where == "gallery" else o)[2, 1] = bad
            what = "class 2" if where == "gallery" else "observation set"
            cases.append(pytest.param(t, o, f"{what} has a non-finite value",
                                      id=f"{bad}-in-{where}"))
    nan_class_3 = [ts.copy() for ts in train]
    nan_class_3[2][0, 0] = np.nan
    nan_obs = obs.copy()
    nan_obs[0, 0] = np.nan
    two_d = "must be a 2-D (samples, features) array, got 1-D"
    cases += [
        pytest.param(train, obs[0], f"observation set {two_d}", id="1-D-observations"),
        pytest.param([train[0][0]] + train[1:], obs, f"class 1 {two_d}", id="1-D-class-set"),
        pytest.param(train, np.empty((0, 3)), "observation set has no samples",
                     id="empty-observations"),
        pytest.param([train[0], np.empty((0, 3)), train[2]], obs, "class 2 has no samples",
                     id="empty-class-set"),
        pytest.param([ts[:, :0] for ts in train], obs[:, :0], "class 1 has no features",
                     id="no-features"),
        pytest.param([], obs, "no classes given", id="no-classes"),
        pytest.param(train, obs[:, :2], "class 1 dimension 3 != 2", id="dimension-mismatch"),
        # which check fails first: the classes before the observations, and
        # every set's own checks before the dimensions
        pytest.param(nan_class_3, obs[0], "class 3 has a non-finite value",
                     id="non-finite-class-before-1-D-observations"),
        pytest.param(train, nan_obs[:, :2], "observation set has a non-finite value",
                     id="non-finite-observations-before-dimension"),
    ]
    return cases


@pytest.mark.parametrize("name", CLASSIFIERS)
@pytest.mark.parametrize("train,obs,message", _bad_inputs())
def test_bad_inputs_are_data_errors(name, train, obs, message):
    classify = make_classifier(name, k=3, q=2)
    for warm in (False, True):
        _prime_slot(train, warm)
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            classify(train, obs)


def _one_row_inputs():
    rng = np.random.default_rng(1)
    train = [rng.normal(size=(6, 3)) + 4.0 * p for p in range(3)]
    obs = rng.normal(size=(6, 3)) + 4.0
    same = np.repeat(obs[:1], 6, axis=0)
    inf_obs = obs.copy()
    inf_obs[1, 2] = np.inf
    one_row = "needs at least 2 samples, has 1"
    no_spread = "has no spread: all its samples are identical"
    return [
        pytest.param(train, obs[:1], f"observation set {one_row}", id="one-row-observations"),
        pytest.param([train[0], train[1][:1], train[2]], obs, f"class 2 {one_row}",
                     id="one-row-class-set"),
        pytest.param([train[0], train[1][:1], train[2]], inf_obs, f"class 2 {one_row}",
                     id="one-row-class-set-before-non-finite-observations"),
        pytest.param(train, same, f"observation set {no_spread}", id="identical-observations"),
        pytest.param([train[0], same + 4.0, train[2]], obs, f"class 2 {no_spread}",
                     id="identical-class-set"),
    ]


@pytest.mark.parametrize("train,obs,message", _one_row_inputs())
@pytest.mark.parametrize("name", CLASSIFIERS)
def test_one_row_sets(name, train, obs, message):
    # warm, the slot holds class sets that masc accepted and cached, which
    # msm, kmsm and kld must still reject
    classify = make_classifier(name, k=3, q=2)
    if name in ("masc", "lp") and np.isfinite(obs).all():
        message = None  # the graph methods need no fit per set
    elif name in ("masc", "lp"):
        message = "observation set has a non-finite value"
    for warm in (False, True):
        _prime_slot(train, warm)
        if message is None:
            assert classify(train, obs).decision in (1, 2, 3)
        else:
            with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                classify(train, obs)


def _two_distinct_rows(where):
    """Three 6-row classes in d = 3 and 6 observations, where the named set
    holds two distinct rows three times each: rank 1 once centered."""
    rng = np.random.default_rng(1)
    train = [rng.normal(size=(6, 3)) + 4.0 * p for p in range(3)]
    obs = rng.normal(size=(6, 3)) + 4.0
    if where == "observation set":
        return train, np.repeat(obs[:2], 3, axis=0)
    return [train[0], np.repeat(train[1][:2], 3, axis=0), train[2]], obs


def _squared_cosine(line_set, plane_set):
    """Squared cosine between the line through the two distinct rows of
    ``line_set`` and the 2-D principal subspace of ``plane_set``."""
    a, b = np.unique(line_set, axis=0)
    u = b - a
    u = u / np.linalg.norm(u)
    return float(np.sum((pca_subspace(plane_set, 2).basis.T @ u) ** 2))


def test_msm_caps_each_subspace_at_its_rank():
    # uncapped, a rank-1 set at q = 2 gets a second, arbitrary direction, and
    # two planes in d = 3 always share a line: every score would be 1, a tie
    train, obs = _two_distinct_rows("observation set")
    dec = make_classifier("msm", q=2)(train, obs)
    want = [_squared_cosine(obs, ts) for ts in train]
    np.testing.assert_allclose(dec.scores, want, rtol=1e-10)
    assert max(dec.scores) < 0.9 and not dec.tie
    assert dec.decision == int(np.argmax(want)) + 1

    train, obs = _two_distinct_rows("class 2")
    dec = make_classifier("msm", q=2)(train, obs)
    assert dec.scores[1] == pytest.approx(_squared_cosine(train[1], obs), rel=1e-10)


def test_msm_leaves_the_classes_the_room_the_observations_leave():
    # full-rank sets in d = 3 at q = 2: two planes in R^3 always share a
    # line, so uncapped every score was 1 and the tie went to class 1
    rng = np.random.default_rng(1)
    train = [rng.normal(size=(6, 3)) + 4.0 * p for p in range(3)]
    obs = rng.normal(size=(6, 3)) + 4.0
    dec = make_classifier("msm", q=2)(train, obs)
    plane = pca_subspace(obs, 2).basis
    want = [float(np.sum((plane.T @ pca_subspace(ts, 1).basis) ** 2)) for ts in train]
    np.testing.assert_allclose(dec.scores, want, rtol=1e-10)
    assert max(dec.scores) < 0.9 and not dec.tie
    assert dec.decision == int(np.argmax(want)) + 1


@pytest.mark.parametrize("where", ["observation set", "class 2"])
def test_kmsm_rejects_a_set_with_too_few_distinct_rows(where):
    train, obs = _two_distinct_rows(where)
    with pytest.raises(DataError, match=f"^{where} has too few distinct samples"):
        make_classifier("kmsm", q=2)(train, obs)


_FIXTURES = {name: make_fixture(name, seed=0) for name in FIXTURES}


@given(fixture=st.sampled_from(FIXTURES), j=st.integers(-3, 4),
       seed=st.integers(0, 2**32 - 1), m=st.integers(5, 40))
@settings(max_examples=30, deadline=None)
def test_power_of_two_scaling_keeps_scores(fixture, j, seed, m):
    # scaling by 2^j is exact in binary floating point and the median
    # heuristics scale along, so only the log-determinants of kld round
    fix = _FIXTURES[fixture]
    rng = np.random.default_rng(seed)
    train, obs = fix.make_instance(int(rng.integers(1, fix.classes + 1)), m, rng)
    for name in CLASSIFIERS:
        classify = make_classifier(name)
        base = classify(train, obs)
        scaled = classify([ts * 2.0**j for ts in train], obs * 2.0**j)
        assert (scaled.decision, scaled.tie) == (base.decision, base.tie)
        if name == "kld":
            np.testing.assert_allclose(scaled.scores, base.scores, rtol=1e-12, atol=0)
        else:
            assert scaled.scores == base.scores


def _gaussian_queries(per_class):
    """Three Gaussian classes of ``per_class`` rows in d = 8 and four
    20-row queries drawn around their centres."""
    rng = np.random.default_rng(per_class)
    centres = 1.5 * rng.normal(size=(3, 8))
    train = [rng.normal(size=(per_class, 8)) + c for c in centres]
    return train, [rng.normal(size=(20, 8)) + centres[cls] for cls in (0, 1, 2, 1)]


@pytest.mark.parametrize("per_class", [20, 100], ids=["l=60", "l=300"])
def test_graph_decisions_ignore_the_row_order_within_each_class(per_class):
    # l = 60 stays below the GEMM filter's and the CG solve's crossovers and
    # l = 300 (n = 320) is above both. Gaussian rows have no exact distance
    # ties, so only the order of sums changes with the node numbering
    m = 20
    assert 3 * 20 < graph._FILTER_MIN_L <= 3 * 100
    assert 3 * 20 + m < labelprop._CG_MIN_N <= 3 * 100 + m
    train, queries = _gaussian_queries(per_class)
    for name in ("masc", "lp"):
        classify = make_classifier(name)
        for obs in queries:
            base = classify(train, obs)
            for seed in (1, 2):
                perm = np.random.default_rng(seed)
                shuffled = [ts[perm.permutation(len(ts))] for ts in train]
                got = classify(shuffled, obs)
                assert (got.decision, got.tie) == (base.decision, base.tie), name
                np.testing.assert_allclose(got.scores, base.scores, rtol=1e-12, atol=0)


@pytest.mark.parametrize("per_class", [20, 100], ids=["l=60", "l=300"])
def test_graph_decisions_ignore_an_affine_map_of_the_rows(per_class):
    # x -> a x + b scales every distance by a and sigma with it, so the edge
    # weights, and with them the decisions, stay; only the rounding of the
    # distances and of the GEMM estimate's centring changes
    train, queries = _gaussian_queries(per_class)
    for name in ("masc", "lp"):
        classify = make_classifier(name)
        for obs in queries:
            base = classify(train, obs)
            for a, b in ((3.0, 0.0), (0.1, 0.0), (1e3, 0.0), (1.0, 1e3), (7.0, -250.0)):
                got = classify([ts * a + b for ts in train], obs * a + b)
                assert (got.decision, got.tie) == (base.decision, base.tie), (name, a, b)
                np.testing.assert_allclose(got.scores, base.scores, rtol=1e-12, atol=0)


def _duplicate_queries(per_class):
    """Three classes of ``per_class`` rows in d = 8, each drawn with
    repetition from its own rows and four rows every class holds, and four
    20-row queries that repeat their own rows and copy gallery rows."""
    rng = np.random.default_rng(per_class)
    centres = 1.5 * rng.normal(size=(3, 8))
    shared = rng.normal(size=(4, 8)) + centres.mean(axis=0)
    pools = [np.vstack([rng.normal(size=(per_class // 2, 8)) + c, shared]) for c in centres]
    train = [pool[rng.integers(0, len(pool), size=per_class)] for pool in pools]
    queries = []
    for cls in (0, 1, 2, 1):
        own = rng.normal(size=(6, 8)) + centres[cls]
        copies = train[cls][rng.integers(0, per_class, size=4)]
        rows = np.vstack([own, copies, shared[:2]])
        queries.append(rows[rng.integers(0, len(rows), size=20)])
    return train, queries


@pytest.mark.parametrize("per_class", [20, 70, 100], ids=["l=60", "l=210", "l=300"])
def test_graph_decisions_on_galleries_with_duplicate_rows_match_the_oracles(per_class):
    # l = 60 (n = 80) is below the GEMM filter's and the CG solve's
    # crossovers, l = 210 (n = 230) above the first only and l = 300
    # (n = 320) above both; rows repeat within a class, across classes and
    # between the gallery and the observations, so distances tie exactly
    m = 20
    assert 3 * 20 < graph._FILTER_MIN_L <= 3 * 70
    assert 3 * 70 + m < labelprop._CG_MIN_N <= 3 * 100 + m
    train, queries = _duplicate_queries(per_class)
    Y_l = one_hot_labels(np.repeat([1, 2, 3], per_class), 3)
    for obs in queries:
        g = reference_knn_graph(np.vstack(train + [obs]), GraphConfig())
        res = masc_classify(g.S, Y_l, m)
        votes = reference_lp_votes(g.S, Y_l, m)
        best = int(np.argmax(votes))
        want = {"masc": (res.decision, res.tie, tuple(float(v) for v in res.scores)),
                "lp": (best + 1, int(np.count_nonzero(votes == votes[best])) > 1,
                       tuple(float(v) / m for v in votes))}
        for name in ("masc", "lp"):
            classify = make_classifier(name)
            classify([ts + 0.5 for ts in train], obs)  # evicts train: the next call is cold
            for got in (classify(train, obs), classify(train, obs)):  # cold, then warm
                assert (got.decision, got.tie, got.scores) == want[name], name


def test_kld_energy_cutoff_one_on_sets_no_larger_than_d():
    # 20 rows in d = 37: the sample covariance has rank 19, so all of its
    # energy is reached by 19 directions and the fill keeps the model full rank
    rng = np.random.default_rng(2)
    train = [rng.normal(size=(20, 37)) + 3.0 * p for p in range(3)]
    classify = make_classifier("kld", energy_cutoff=1.0)
    for p in range(3):
        obs = rng.normal(size=(20, 37)) + 3.0 * p
        dec = classify(train, obs)
        assert dec.decision == p + 1
        assert all(np.isfinite(dec.scores))


def _decides_or_rejects(name, train, obs, **params):
    """Classify one query cold, then warm: either a Decision with one finite
    score per class, whose decision and tie follow from the scores, or a
    DataError or ValueError, the same both times. Any other exception, or
    a RuntimeWarning, fails."""
    best = min if name in ("masc", "kld") else max
    outcomes = []
    for _ in range(2):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                got = make_classifier(name, **params)(train, obs)
            except ValueError as exc:  # DataError included
                outcomes.append((type(exc), str(exc)))
                continue
        assert isinstance(got, Decision)
        scores = np.asarray(got.scores)
        assert scores.shape == (len(train),) and np.isfinite(scores).all(), name
        top = best(got.scores)
        assert got.scores[got.decision - 1] == top, name
        assert got.tie == (np.count_nonzero(scores == top) > 1), name
        outcomes.append(got)
    assert outcomes[0] == outcomes[1], name


# Rows a small degenerate gallery is made of: duplicates (the pool is small),
# values near the bottom and the top of the float range, whose squares or
# sums overflow, and an offset far larger than the spread.
_ODD_VALUES = st.sampled_from([0.0, 1.0, -1.0, 2.5, 1e-8, 1e-300, 5e-324, 1e150, -1e150,
                               1e154, 1e300, 1.7e308, -1.7e308, 3e-162, 1e8, 1e8 + 1.0])


@given(c=st.integers(2, 3), d=st.integers(1, 4), k=st.integers(1, 6),
       sigma=st.sampled_from([None, None, 1e-3, 0.5, 50.0]),
       sigma_kernel=st.sampled_from([None, None, 1e-3, 0.5, 50.0]), data=st.data())
@settings(max_examples=60, deadline=None)
def test_every_classifier_decides_or_rejects_small_degenerate_queries(c, d, k, sigma,
                                                                      sigma_kernel, data):
    # up to 11 rows, so kmsm builds Grams of n >= 8, where kpca_gram's
    # subset solve can come up short and the full eigh takes over
    rows = st.lists(st.lists(_ODD_VALUES, min_size=d, max_size=d), min_size=1, max_size=11)
    train = [np.array(data.draw(rows, label=f"class {p}")) for p in range(1, c + 1)]
    obs = np.array(data.draw(rows, label="observations"))
    for name in CLASSIFIERS:
        _decides_or_rejects(name, train, obs, k=k, sigma=sigma, sigma_kernel=sigma_kernel)


def _graph_outcome(name, train, obs, k, sigma, cap):
    """masc's or lp's (decision, tie, scores) from the dense oracles, or the
    (type, message) of the error they raise."""
    m = len(obs)
    Y_l = one_hot_labels(np.repeat(np.arange(1, len(train) + 1), [len(ts) for ts in train]),
                         len(train))
    try:
        g = reference_knn_graph(np.vstack(train + [obs]),
                                GraphConfig(k=k, sigma=sigma, sigma_sample_cap=cap))
    except ValueError as exc:  # DataError included
        return type(exc), str(exc)
    if name == "masc":
        res = masc_classify(g.S, Y_l, m)
        return res.decision, res.tie, tuple(float(v) for v in res.scores)
    votes = reference_lp_votes(g.S, Y_l, m)
    best = int(np.argmax(votes))
    return (best + 1, int(np.count_nonzero(votes == votes[best])) > 1,
            tuple(float(v) / m for v in votes))


@given(l=st.integers(200, 450), c=st.integers(2, 4), d=st.integers(2, 16),
       m=st.integers(2, 30), k=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
       duplicates=st.integers(0, 60), scaled=st.integers(0, 4),
       offset=st.sampled_from([0.0, 1e3, 1e6]),
       width=st.sampled_from([None, None, None, 0.05, 0.5, 4.0]),
       cap=st.sampled_from([1000, 1000, 150]))
@example(l=300, c=3, d=8, m=30, k=5, seed=0, duplicates=20, scaled=2, offset=1e3, width=None,
         cap=1000)
@settings(max_examples=50, deadline=None)
def test_every_classifier_on_galleries_where_the_fast_paths_run(l, c, d, m, k, seed, duplicates,
                                                                 scaled, offset, width, cap):
    # l >= 200 rows run the GEMM distance filter and n = l + m >= 272 nodes
    # lp's CG solve, at their own thresholds; clusters of Gaussian rows with
    # repeated rows, rows scaled by 2^j and an offset far larger than the
    # spread, under the median heuristic's width (from a subsample of all
    # n rows or of 150) or a fixed one
    rng = np.random.default_rng(seed)
    sizes = 2 + rng.multinomial(l - 2 * c, np.full(c, 1.0 / c))
    centres = 3.0 * rng.normal(size=(c + 1, d))
    X = np.vstack([rng.normal(size=(size, d)) + centre for size, centre in zip(sizes, centres)]
                  + [rng.normal(size=(m, d)) + centres[rng.integers(0, c + 1)]])
    X[rng.integers(0, l + m, size=duplicates)] = X[rng.integers(0, l + m, size=duplicates)]
    powers = rng.choice([-6, -3, -1, 1, 3, 6], size=(scaled, 1))
    X[rng.integers(0, l + m, size=scaled)] *= 2.0 ** powers
    X += offset
    train, obs = np.split(X, np.cumsum(sizes))[:-1], X[l:]
    for name in CLASSIFIERS:
        _decides_or_rejects(name, train, obs, k=k, sigma=width, sigma_kernel=width,
                            sigma_sample_cap=cap)
    for name in ("masc", "lp"):
        want = _graph_outcome(name, train, obs, k, width, cap)
        try:
            got = make_classifier(name, k=k, sigma=width, sigma_sample_cap=cap)(train, obs)
        except ValueError as exc:
            assert (type(exc), str(exc)) == want, name
        else:
            assert (got.decision, got.tie, got.scores) == want, name


@pytest.mark.parametrize("name", CLASSIFIERS)
@pytest.mark.parametrize("train,obs,k", [
    # a squared distance overflows: a gallery row's k-NN list came up short
    pytest.param([[[0.0]], [[0.0]]], [[0.0], [0.0], [1.0], [1e300]], 5, id="inf-distance"),
    # a finite squared distance over a tiny median width overflows to -inf
    pytest.param([[[0.0]], [[1e150]]], [[0.0], [0.0], [1e-8]], 1, id="weight-exponent"),
    # the observations' sum overflows in their mean
    pytest.param([[[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]] * 2,
                 [[0.0, 0.0, 0.0], [1.7e308, 0.0, 0.0], [1.7e308, 0.0, 0.0]], 1, id="mean"),
    # centring overflows although the mean does not
    pytest.param([[[0.0], [1.0]]] * 2, [[1.7e308], [-1.7e308], [-1.7e308]], 1, id="centring"),
    # half the median distance squares to a subnormal: no weight is exact
    pytest.param([[[0.0]], [[0.0]]], [[0.0], [3e-162]], 1, id="subnormal-width"),
    # a kernel exponent overflows to -inf
    pytest.param([[[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]] * 2,
                 [[0.0, 0.0, 0.0], [0.0, 0.0, 1e154]], 1, id="kernel-exponent"),
])
def test_queries_the_property_test_found(name, train, obs, k):
    _decides_or_rejects(name, [np.array(ts) for ts in train], np.array(obs), k=k)


def test_unknown_classifier_rejected():
    with pytest.raises(ValueError, match="unknown classifier"):
        make_classifier("svm")
