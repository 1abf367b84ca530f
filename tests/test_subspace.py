import math

import numpy as np
import pytest
import scipy.linalg

from masc.evaluate import CLASSIFIERS, make_classifier
from masc.subspace import (
    gaussian_kernel,
    kernel_principal_angles,
    kpca_subspace,
    msm_similarity,
    pca_subspace,
    principal_angles,
)
from oracles import linear_kernel


def random_orthonormal(rng, d, q):
    A = rng.normal(size=(d, q))
    Q, _ = np.linalg.qr(A)
    return Q


def subspace_sets(rng, classes=3, d=10, q0=2, n=14, noise=0.05, spread=3.0):
    """Linearly separable sets: each class spans its own random plane."""
    sets = []
    for _ in range(classes):
        B = random_orthonormal(rng, d, q0)
        coefs = rng.normal(size=(n, q0)) * spread
        sets.append(coefs @ B.T + noise * rng.normal(size=(n, d)))
    return sets


def decide(name, sets, test, **params):
    """The decision of the classifier the CLI and the protocols run."""
    return make_classifier(name, **params)(sets, test).decision


class TestPcaSubspace:
    def test_line_with_offset(self):
        direction = np.array([3.0, 4.0, 0.0]) / 5.0
        ts = np.linspace(-2, 2, 9)[:, None]
        X = ts * direction + np.array([5.0, -1.0, 2.0])
        sub = pca_subspace(X, 1)
        assert abs(abs(sub.basis[:, 0] @ direction) - 1.0) <= 1e-12

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(0)
        sub = pca_subspace(rng.normal(size=(12, 6)), 4)
        np.testing.assert_allclose(sub.basis.T @ sub.basis, np.eye(4), atol=1e-10)

    def test_eigenvalues_match_dense_eigensolver(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            X = rng.normal(size=(10, 20))
            q = 5
            sub = pca_subspace(X, q)
            cov = np.cov(X, rowvar=False, ddof=1)
            oracle = scipy.linalg.eigh(cov, eigvals_only=True)[::-1][:q]
            np.testing.assert_allclose(sub.eigenvalues, oracle, atol=1e-8)

    def test_q_too_large(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError, match="q must be"):
            pca_subspace(rng.normal(size=(5, 3)), 5)

    def test_deterministic_sign(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(9, 4))
        a = pca_subspace(X, 3).basis
        b = pca_subspace(X.copy(), 3).basis
        np.testing.assert_array_equal(a, b)


class TestPrincipalAngles:
    def test_identical(self):
        rng = np.random.default_rng(4)
        A = random_orthonormal(rng, 6, 3)
        assert np.max(principal_angles(A, A)) <= 1e-10

    def test_orthogonal_axes(self):
        e1 = np.eye(4)[:, :1]
        e2 = np.eye(4)[:, 1:2]
        angles = principal_angles(e1, e2)
        assert abs(angles[0] - math.pi / 2) <= 1e-10

    def test_planes_sharing_a_line(self):
        # span{e1, e2} vs span{e1, cos(phi) e2 + sin(phi) e3}
        phi = 0.7
        A = np.eye(3)[:, :2]
        B = np.array([[1.0, 0.0], [0.0, math.cos(phi)], [0.0, math.sin(phi)]])
        angles = principal_angles(A, B)
        np.testing.assert_allclose(angles, [0.0, phi], atol=1e-10)
        # cross-check: cosines are exactly the singular values of A^T B
        svals = scipy.linalg.svd(A.T @ B, compute_uv=False)
        np.testing.assert_allclose(np.cos(angles), np.clip(svals, 0, 1), atol=1e-12)

    def test_count_and_order(self):
        rng = np.random.default_rng(5)
        A = random_orthonormal(rng, 8, 2)
        B = random_orthonormal(rng, 8, 5)
        angles = principal_angles(A, B)
        assert angles.shape == (2,)
        assert np.all(np.diff(angles) >= -1e-15)
        assert np.all((angles >= 0) & (angles <= math.pi / 2 + 1e-12))


class TestMsm:
    def test_identical_similarity_one(self):
        rng = np.random.default_rng(6)
        A = random_orthonormal(rng, 7, 3)
        assert msm_similarity(A, A) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_similarity_zero(self):
        assert msm_similarity(np.eye(4)[:, :2], np.eye(4)[:, 2:]) == pytest.approx(0.0, abs=1e-12)

    def test_reparameterization_invariance(self):
        rng = np.random.default_rng(7)
        A = random_orthonormal(rng, 9, 3)
        B = random_orthonormal(rng, 9, 3)
        base = msm_similarity(A, B)
        for _ in range(5):
            QA = random_orthonormal(rng, 3, 3)
            QB = random_orthonormal(rng, 3, 3)
            assert abs(msm_similarity(A @ QA, B @ QB) - base) <= 1e-10

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        A = random_orthonormal(rng, 9, 4)
        B = random_orthonormal(rng, 9, 4)
        assert abs(msm_similarity(A, B) - msm_similarity(B, A)) <= 1e-12

    def test_classify_own_training_set(self):
        rng = np.random.default_rng(9)
        sets = subspace_sets(rng)
        for j, ts in enumerate(sets, start=1):
            assert decide("msm", sets, ts, q=2) == j

    def test_orthogonal_planes(self):
        rng = np.random.default_rng(10)
        coefs = rng.normal(size=(10, 2)) * 2.0
        set1 = np.pad(coefs, ((0, 0), (0, 4)))           # spans e1, e2
        set2 = np.pad(coefs, ((0, 0), (2, 2)))           # spans e3, e4
        test = np.pad(rng.normal(size=(8, 2)), ((0, 0), (2, 2)))
        assert decide("msm", [set1, set2], test, q=2) == 2

    def test_class_permutation(self):
        rng = np.random.default_rng(11)
        sets = subspace_sets(rng)
        test = sets[2] + 0.01 * rng.normal(size=sets[2].shape)
        assert decide("msm", sets, test, q=2) == 3
        assert decide("msm", sets[::-1], test, q=2) == 1


class TestKernelMatrix:
    def test_unit_diagonal(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(9, 4))
        K = gaussian_kernel(1.3)(X, X)
        np.testing.assert_array_equal(np.diag(K), np.ones(9))

    def test_analytic_value(self):
        sigma = 2.0
        X = np.array([[0.0], [sigma * math.sqrt(2.0)]])
        K = gaussian_kernel(sigma)(X, X)
        assert K[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(13)
        for n in (10, 30, 50):
            X = rng.normal(size=(n, 5))
            K = gaussian_kernel(0.8)(X, X)
            assert scipy.linalg.eigh(K, eigvals_only=True).min() >= -1e-10
            np.testing.assert_array_equal(K, K.T)

    def test_power_of_two_scaling_keeps_every_bit(self):
        # sigma ** 2 through libm's pow rounds this sigma's square one ulp
        # away from sigma * sigma, but not sigma / 8's: the two Grams differed
        sigma = 1.2960701480108006
        X = np.random.default_rng(14).normal(size=(6, 3))
        K = gaussian_kernel(sigma)(X, X[:4])
        scaled = gaussian_kernel(sigma / 8)(X / 8, X[:4] / 8)
        assert scaled.tobytes() == K.tobytes()


class TestKpca:
    def test_feature_basis_orthonormal(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(15, 6))
        sub = kpca_subspace(X, 4, kernel=gaussian_kernel(1.5))
        K = gaussian_kernel(1.5)(X, X)
        n = K.shape[0]
        J = np.eye(n) - np.ones((n, n)) / n
        Kc = J @ K @ J
        gram = sub.coeffs.T @ Kc @ sub.coeffs
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-8)

    def test_centering_column_sums(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(12, 3))
        K = gaussian_kernel(1.0)(X, X)
        col_means = K.mean(axis=0)
        Kc = K - col_means[None, :] - col_means[:, None] + K.mean()
        assert np.max(np.abs(Kc.sum(axis=0))) <= 1e-10

    def test_linear_stub_matches_pca(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            X = rng.normal(size=(12, 7))
            q = 3
            pca = pca_subspace(X, q)
            pca_proj = (X - pca.mean) @ pca.basis
            Xc = X - X.mean(axis=0)
            ksub = kpca_subspace(Xc, q, kernel=linear_kernel)
            kproj = ksub.project(Xc)
            for j in range(q):
                delta = min(
                    np.max(np.abs(kproj[:, j] - pca_proj[:, j])),
                    np.max(np.abs(kproj[:, j] + pca_proj[:, j])),
                )
                assert delta <= 1e-8

    def test_nonpositive_eigenvalue_errors(self):
        # rank-1 data cannot support 3 kernel components under a linear kernel
        X = np.outer(np.arange(5.0), np.ones(4))
        with pytest.raises(ValueError, match="non-positive"):
            kpca_subspace(X, 3, kernel=linear_kernel)


class TestKmsm:
    def test_own_training_set(self):
        rng = np.random.default_rng(17)
        sets = subspace_sets(rng)
        for j, ts in enumerate(sets, start=1):
            assert decide("kmsm", sets, ts, q=2, sigma_kernel=2.0) == j

    def test_identical_sets_have_zero_angles(self):
        rng = np.random.default_rng(18)
        X = rng.normal(size=(10, 5))
        kernel = gaussian_kernel(1.2)
        a = kpca_subspace(X, 3, kernel=kernel)
        b = kpca_subspace(X.copy(), 3, kernel=kernel)
        assert np.max(kernel_principal_angles(a, b)) <= 1e-6

    def test_large_sigma_matches_msm(self):
        rng = np.random.default_rng(19)
        agree = 0
        for _ in range(20):
            sets = subspace_sets(rng, d=8, q0=2, n=12, noise=0.02)
            true = int(rng.integers(1, 4))
            test = sets[true - 1] + 0.02 * rng.normal(size=sets[true - 1].shape)
            msm_dec = decide("msm", sets, test, q=3)
            kmsm_dec = decide("kmsm", sets, test, q=3, sigma_kernel=1e3)
            agree += int(msm_dec == kmsm_dec)
        assert agree == 20


@pytest.mark.parametrize("name", CLASSIFIERS)
def test_sample_order_invariance(name):
    # every classifier scores sets, so the order of the rows within a set
    # may change rounding but never the decision
    rng = np.random.default_rng(20)
    sets = subspace_sets(rng)
    test = sets[1] + 0.05 * rng.normal(size=sets[1].shape)
    classify = make_classifier(name, q=2, sigma_kernel=1.5)
    base = classify(sets, test)
    shuffled_sets = [ts[rng.permutation(len(ts))] for ts in sets]
    shuffled_test = test[rng.permutation(len(test))]
    shuffled = classify(shuffled_sets, shuffled_test)
    assert shuffled.decision == base.decision
    np.testing.assert_allclose(shuffled.scores, base.scores, rtol=1e-9)
