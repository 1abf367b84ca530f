import math

import numpy as np
import pytest

from masc.evaluate import make_classifier
from masc.fixtures import (
    CurvedManifoldConfig,
    CurvedManifoldFixture,
    RotatedRasterConfig,
    RotatedRasterFixture,
)
from masc.statdist import GaussianModel, fit_gaussian, kl_gaussian, symmetric_kl
from oracles import kl_monte_carlo, random_spd, reference_fit_gaussian, reference_kl_gaussian


def model(mean, cov, cutoff=0.96, retained=None):
    mean = np.asarray(mean, dtype=float)
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    return GaussianModel(mean=mean, cov=cov, energy_cutoff=cutoff,
                         retained=retained or len(mean))


class TestFitGaussian:
    def test_cutoff_one_keeps_covariance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 4))
        g = fit_gaussian(X, energy_cutoff=1.0)
        np.testing.assert_allclose(g.cov, np.cov(X, rowvar=False, ddof=1), atol=1e-10)
        assert g.retained == 4

    @pytest.mark.parametrize("cutoff,d,expected", [(0.96, 10, 10), (0.65, 10, 7), (0.3, 4, 2)])
    def test_isotropic_retained_count(self, cutoff, d, expected):
        # rows +-e_i give an exactly isotropic sample covariance
        X = np.vstack([np.eye(d), -np.eye(d)])
        g = fit_gaussian(X, energy_cutoff=cutoff)
        assert g.retained == expected == math.ceil(cutoff * d)

    def test_default_cutoff(self):
        rng = np.random.default_rng(1)
        g = fit_gaussian(rng.normal(size=(30, 3)))
        assert g.energy_cutoff == 0.96

    def test_trace_preserved_or_grown(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            X = rng.normal(size=(12, 8)) @ np.diag([3, 2, 1, 0.5, 0.1, 0.05, 0.01, 0.01])
            g = fit_gaussian(X, energy_cutoff=0.9)
            original = np.cov(X, rowvar=False, ddof=1)
            assert np.trace(g.cov) >= 0.9 * np.trace(original) - 1e-12

    def test_regularized_is_spd(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(6, 10))  # fewer samples than dimensions
        g = fit_gaussian(X, energy_cutoff=0.96)
        np.linalg.cholesky(g.cov)  # raises if not SPD

    def test_cutoff_one_retains_at_most_the_rank(self):
        # 20 rows in d = 37: the sample covariance has rank 19, and on this
        # set the rounded cumulative sum reaches the trace only at 20 terms
        X = np.random.default_rng(7).normal(size=(20, 37))
        g = fit_gaussian(X, energy_cutoff=1.0)
        assert g.retained == 19
        assert g.spectrum.fill == 1e-8 * g.spectrum.variances[0]
        np.linalg.cholesky(g.cov)  # raises if not SPD

    def test_singleton_errors(self):
        with pytest.raises(ValueError):
            fit_gaussian(np.zeros((1, 3)))


class TestKlGaussian:
    def test_identical_zero(self):
        rng = np.random.default_rng(4)
        cov = random_spd(rng, 4)
        g = model(rng.normal(size=4), cov)
        assert abs(kl_gaussian(g, g)) <= 1e-10

    def test_one_dimensional_mean_shift(self):
        for shift in (0.5, 1.0, 3.0):
            g1 = model([0.0], [[1.0]])
            g2 = model([shift], [[1.0]])
            assert kl_gaussian(g1, g2) == pytest.approx(shift**2 / 2.0, abs=1e-12)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(5)
        mean1 = rng.normal(size=3)
        mean2 = rng.normal(size=3)
        cov1 = random_spd(rng, 3, scale=0.5)
        cov2 = random_spd(rng, 3, scale=0.5)
        closed = kl_gaussian(model(mean1, cov1), model(mean2, cov2))
        estimate, se = kl_monte_carlo(mean1, cov1, mean2, cov2, n=200_000, seed=0)
        assert abs(closed - estimate) <= 3.0 * se

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            g1 = model(rng.normal(size=3), random_spd(rng, 3))
            g2 = model(rng.normal(size=3), random_spd(rng, 3))
            assert kl_gaussian(g1, g2) >= 0.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(7)
        mean1, mean2 = rng.normal(size=3), rng.normal(size=3)
        cov1, cov2 = random_spd(rng, 3), random_spd(rng, 3)
        base = kl_gaussian(model(mean1, cov1), model(mean2, cov2))
        for _ in range(5):
            A = rng.normal(size=(3, 3)) + 3 * np.eye(3)
            b = rng.normal(size=3)
            t1 = model(A @ mean1 + b, A @ cov1 @ A.T)
            t2 = model(A @ mean2 + b, A @ cov2 @ A.T)
            assert kl_gaussian(t1, t2) == pytest.approx(base, rel=1e-8)

    def test_not_spd_errors(self):
        g1 = model([0.0, 0.0], np.eye(2))
        g2 = model([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(ValueError, match="factorization"):
            kl_gaussian(g1, g2)


class TestKldClassify:
    def test_resampled_training_class(self):
        rng = np.random.default_rng(8)
        centers = [np.zeros(3), 5.0 * np.ones(3), -5.0 * np.ones(3)]
        train = [c + rng.normal(size=(60, 3)) for c in centers]
        for j, c in enumerate(centers, start=1):
            test = c + rng.normal(size=(60, 3))
            assert make_classifier("kld")(train, test).decision == j

    def test_mean_dominated(self):
        rng = np.random.default_rng(9)
        noise = rng.normal(size=(40, 2))
        train = [noise + [0.0, 0.0], noise + [6.0, 0.0]]
        test = rng.normal(size=(40, 2)) + [0.0, 0.0]
        assert make_classifier("kld")(train, test).decision == 1

    def test_sample_order_invariance(self):
        rng = np.random.default_rng(10)
        train = [rng.normal(size=(30, 3)) + 4 * c for c in range(3)]
        test = rng.normal(size=(30, 3)) + 4.0
        base = make_classifier("kld")(train, test).decision
        shuffled = [ts[rng.permutation(len(ts))] for ts in train]
        assert make_classifier("kld")(shuffled, test[rng.permutation(len(test))]).decision == base

    def test_symmetrized_definition(self):
        rng = np.random.default_rng(11)
        g1 = model(rng.normal(size=2), random_spd(rng, 2))
        g2 = model(rng.normal(size=2), random_spd(rng, 2))
        expected = 0.5 * (kl_gaussian(g1, g2) + kl_gaussian(g2, g1))
        assert symmetric_kl(g1, g2) == pytest.approx(expected, rel=1e-14)


def fixture_groups():
    """Class sets followed by the observation set, raster at m = 10, 50, 150
    and curved manifolds at m = 8, 16, 48."""
    raster = RotatedRasterFixture(RotatedRasterConfig(seed=0))
    manifold = CurvedManifoldFixture(CurvedManifoldConfig(seed=0))
    groups = []
    for m in (10, 50, 150):
        train, obs = raster.make_instance(m % 10 + 1, m, np.random.default_rng(m))
        groups.append(pytest.param(list(train) + [obs], id=f"raster-m{m}"))
    for cls, m in ((1, 8), (2, 16), (3, 48)):
        train, obs = manifold.make_instance(cls, m, np.random.default_rng([cls, m]))
        groups.append(pytest.param(list(train) + [obs], id=f"manifold-m{m}"))
    return groups


def worst_kl_gap(sets, cutoff=0.96):
    """Largest relative gap between the spectral and the dense KL over every
    ordered pair of sets, after checking that both fits retain as many
    directions."""
    fits = [(fit_gaussian(x, cutoff), reference_fit_gaussian(x, cutoff)) for x in sets]
    assert [g.retained for g, _ in fits] == [ref.retained for _, ref in fits]
    worst = 0.0
    for i, (g1, r1) in enumerate(fits):
        for j, (g2, r2) in enumerate(fits):
            if i != j:
                want = reference_kl_gaussian(r1, r2)
                worst = max(worst, abs(kl_gaussian(g1, g2) - want) / abs(want))
    return worst


class TestSpectralMatchesDense:
    """The spectral fit and KL against the dense eigh fit and Cholesky KL."""

    @pytest.mark.parametrize("sets", fixture_groups())
    def test_fixture_sets_to_1e_10(self, sets):
        assert worst_kl_gap(sets) <= 1e-10

    # Looser bound for random sets: when a set has fewer rows than dimensions
    # the fill can sit at its floor, 1e-8 of the largest variance, and the
    # dense Cholesky route then works on a covariance of condition number 1e8,
    # losing about eps * 1e8 = 2e-8 relative; 1e-6 leaves a factor of 50.
    @pytest.mark.parametrize("cutoff", [0.3, 0.9, 0.96])
    @pytest.mark.parametrize("n,d", [(4, 12), (13, 40), (12, 12), (40, 40), (36, 12), (120, 40)])
    def test_random_sets(self, n, d, cutoff):
        rng = np.random.default_rng([n, d, int(100 * cutoff)])
        scale = np.exp(1.5 * rng.normal(size=d))
        sets = [rng.normal(size=(n, d)) * scale + rng.normal(size=d),
                rng.normal(size=(n, d)) * scale[::-1] + rng.normal(size=d),
                rng.normal(size=(n, d)) + rng.normal(size=d)]
        assert worst_kl_gap(sets, cutoff) <= 1e-6

    def test_fill_floor(self):
        # rank-3 sets in d = 12: the three directions reach the cutoff only
        # together, and the nine discarded variances are zero
        rng = np.random.default_rng(12)
        Q = np.linalg.qr(rng.normal(size=(12, 3)))[0]
        sets = [rng.normal(size=(40, 3)) @ Q.T + rng.normal(size=12)
                for _ in range(3)]
        for x in sets:
            g = fit_gaussian(x)
            assert g.retained == 3
            assert g.spectrum.fill == 1e-8 * g.spectrum.variances[0]
        assert worst_kl_gap(sets) <= 1e-6

    def test_covariance_is_rebuilt_from_the_spectrum(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(9, 7)) * np.arange(1, 8)
        g, ref = fit_gaussian(X, 0.9), reference_fit_gaussian(X, 0.9)
        np.testing.assert_allclose(g.cov, ref.cov, rtol=0, atol=1e-12 * np.abs(ref.cov).max())
