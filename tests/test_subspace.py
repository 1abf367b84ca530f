import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from masc import subspace
from masc.data import DataError
from masc.evaluate import CLASSIFIERS, make_classifier
from scipy.spatial.distance import cdist, pdist, squareform

from masc.subspace import (
    gaussian_kernel,
    gaussian_weights,
    gram_kmsm_similarity,
    gram_principal_angles,
    kmsm_similarity,
    kpca_gram,
    kpca_subspace,
    msm_similarity,
    pca_subspace,
    principal_angles,
)
from oracles import linear_kernel, reference_kpca_gram


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


    def test_overlapping_views_of_one_buffer(self):
        # two same-shape views that share memory but hold different rows
        X = np.random.default_rng(15).normal(size=(6, 3))
        K = gaussian_kernel(1.0)(X[0:5], X[1:6])
        assert K.tobytes() == gaussian_kernel(1.0)(X[0:5].copy(), X[1:6].copy()).tobytes()
        loops = [[math.exp(-float(np.sum((a - b) ** 2)) / 2.0) for b in X[1:6]] for a in X[0:5]]
        np.testing.assert_allclose(K, loops, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("d", [1, 5, 256, 257])
    def test_cdist_of_a_set_with_itself_is_its_pdist(self, d):
        # the kernel of one set with itself takes cdist, kmsm's class Grams
        # the cached pdist: the two must give the same bits
        rng = np.random.default_rng(d)
        for n in (2, 3, 17, 100, 151):
            A = rng.normal(size=(n, d)) * 7.3 + 1e3
            assert cdist(A, A, "sqeuclidean").tobytes() == \
                squareform(pdist(A, "sqeuclidean")).tobytes()


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
        assert np.max(gram_principal_angles(kernel(a.samples, b.samples), a, b)) <= 1e-6

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


class TestGramCores:
    """kmsm's hot path fits and pairs subspaces from distance blocks; the
    results must be those of the sample-and-kernel references bit for bit."""

    def test_fit_and_similarity_equal_the_references(self):
        rng = np.random.default_rng(21)
        for n, m, d, q, sigma in ((12, 9, 4, 3, 1.3), (40, 25, 256, 9, 6.0), (2, 5, 3, 1, 0.8)):
            X, obs = rng.normal(size=(n, d)), rng.normal(size=(m, d)) + 0.3
            kernel, weights = gaussian_kernel(sigma), gaussian_weights(sigma)
            a, b = kpca_subspace(X, q, kernel), kpca_subspace(obs, q, kernel)
            fa = kpca_gram(weights(squareform(pdist(X, "sqeuclidean"))), q)
            fb = kpca_gram(weights(squareform(pdist(obs, "sqeuclidean"))), q)
            for got, want in ((fa, a), (fb, b)):
                assert got.coeffs.tobytes() == want.coeffs.tobytes()
                assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
                assert got.col_means.tobytes() == want.col_means.tobytes()
                assert got.grand_mean == want.grand_mean
            Kab = weights(np.ascontiguousarray(cdist(obs, X, "sqeuclidean").T))
            assert gram_kmsm_similarity(Kab, fa, fb) == kmsm_similarity(a, b)

    @pytest.mark.parametrize("d", [1, 5, 256, 257])
    def test_transposed_slices_of_one_block_are_the_class_blocks(self, d):
        rng = np.random.default_rng(22 + d)
        sizes = (2, 9, 30, 1, 17)
        X = rng.normal(size=(sum(sizes), d)) * 4.1 - 50.0
        obs = rng.normal(size=(13, d)) * 4.1 - 49.0
        C = cdist(obs, X, "sqeuclidean")
        a = 0
        for n in sizes:
            block = np.ascontiguousarray(C[:, a:a + n].T)
            assert block.tobytes() == cdist(X[a:a + n], obs, "sqeuclidean").tobytes()
            a += n

    @pytest.mark.parametrize("d", [1, 5, 256, 257])
    def test_row_blocks_of_one_block_are_the_class_blocks(self, d):
        # kmsm's l x m block: its row blocks are the classes' cross blocks,
        # C-contiguous, and its transpose is the m x l block sigma reads
        rng = np.random.default_rng(40 + d)
        sizes = (2, 9, 30, 1, 17)
        X = rng.normal(size=(sum(sizes), d)) * 4.1 - 50.0
        obs = rng.normal(size=(13, d)) * 4.1 - 49.0
        C = cdist(X, obs, "sqeuclidean")
        assert np.ascontiguousarray(C.T).tobytes() == cdist(obs, X, "sqeuclidean").tobytes()
        a = 0
        for n in sizes:
            assert C[a:a + n].flags.c_contiguous
            assert C[a:a + n].tobytes() == cdist(X[a:a + n], obs, "sqeuclidean").tobytes()
            a += n

    def test_too_thin_a_gram_is_a_data_error(self):
        X = np.repeat(np.random.default_rng(23).normal(size=(2, 3)), 3, axis=0)
        K = gaussian_weights(1.0)(squareform(pdist(X, "sqeuclidean")))
        with pytest.raises(DataError, match="non-positive retained kernel eigenvalue"):
            kpca_gram(K, 2)


class TestSubsetSolve:
    """kpca_gram solves for its q leading eigenpairs alone; the oracle
    decomposes the whole centred Gram and keeps q."""

    @pytest.mark.parametrize("n,q", [(2, 1), (12, 3), (100, 9), (151, 9), (40, 39)])
    def test_leading_pairs_match_the_full_solve(self, n, q):
        rng = np.random.default_rng(n + q)
        X = rng.normal(size=(n, 6)) * [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        K = gaussian_weights(3.0)(squareform(pdist(X, "sqeuclidean")))
        got, want = kpca_gram(K, q), reference_kpca_gram(K, q)
        assert got.col_means.tobytes() == want.col_means.tobytes()
        assert got.grand_mean == want.grand_mean
        np.testing.assert_allclose(got.eigenvalues, want.eigenvalues, rtol=1e-12, atol=0)
        # the basis up to rounding: scaled back to unit eigenvectors
        np.testing.assert_allclose(got.coeffs * np.sqrt(got.eigenvalues),
                                   want.coeffs * np.sqrt(want.eigenvalues), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n,q", [(8, 1), (21, 2), (26, 2), (34, 4), (40, 3)])
    def test_a_split_cluster_of_equal_eigenvalues_is_solved(self, n, q):
        # the centred identity, the Gram of a set whose kernel values all
        # underflow to 0, has n - 1 eigenvalues of exactly 1; at these
        # sizes LAPACK's selected solve has found fewer than q of them
        fit = kpca_gram(np.eye(n), q)
        np.testing.assert_allclose(fit.eigenvalues, np.ones(q), rtol=1e-14)
        np.testing.assert_allclose(fit.coeffs.T @ fit.coeffs, np.eye(q), atol=1e-14)

    @pytest.mark.parametrize("failure", ["short", "error"])
    def test_a_failed_selected_solve_gives_the_full_solve(self, monkeypatch, failure):
        real = scipy.linalg.eigh

        def failing(a, *args, **kwargs):
            if "subset_by_index" not in kwargs:
                return real(a, *args, **kwargs)
            if failure == "error":
                raise np.linalg.LinAlgError("Internal Error.")
            vals, vecs = real(a, *args, **kwargs)
            return vals[1:], vecs[:, 1:]

        monkeypatch.setattr(subspace.scipy.linalg, "eigh", failing)
        X = np.random.default_rng(24).normal(size=(20, 4))
        K = gaussian_weights(2.0)(squareform(pdist(X, "sqeuclidean")))
        got, want = kpca_gram(K, 5), reference_kpca_gram(K, 5)
        assert got.coeffs.tobytes() == want.coeffs.tobytes()
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()

    @staticmethod
    def repeated_rows_gram(r, extra, d, scale, offset, width, seed):
        """r distinct rows, repeated as ``extra`` lists, and their Gaussian
        Gram at half the median distance (``width`` None) or at 10**width
        times the largest distance; returns the distinct rows and the Gram."""
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(r, d)) * 10.0**scale + rng.normal(size=d) * 10.0**offset
        X = rows[rng.permutation(np.r_[np.arange(r), np.array(extra, dtype=int) % r])]
        d2 = pdist(X, "sqeuclidean")
        median = float(np.median(np.sqrt(d2)))
        if width is None and median > 0:
            sigma = median / 2.0
        else:
            sigma = math.sqrt(float(d2.max())) * 10.0 ** (width or 0.0) or 1.0
        return rows, gaussian_weights(sigma)(squareform(d2))

    @given(r=st.integers(1, 5), extra=st.lists(st.integers(0, 4), min_size=1, max_size=30),
           d=st.integers(1, 6), scale=st.floats(-3, 3), offset=st.floats(-3, 4),
           width=st.one_of(st.none(), st.floats(-1.5, 4)), above=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_repeated_rows_are_rejected_by_both_solves(self, r, extra, d, scale, offset,
                                                       width, above, seed):
        # r distinct rows span r - 1 dimensions once centred in feature
        # space, so at q >= r a retained eigenvalue is 0 in exact
        # arithmetic, whatever the width: a wide kernel makes every entry
        # near 1 and the centred matrix tiny, a narrow one near the identity
        _, K = self.repeated_rows_gram(r, extra, d, scale, offset, width, seed)
        q = min(r + above, len(K) - 1)  # at least r: the set repeats some row
        for fit in (kpca_gram, reference_kpca_gram):
            with pytest.raises(DataError, match="non-positive retained kernel eigenvalue"):
                fit(K, q)

    @given(r=st.integers(2, 8), extra=st.lists(st.integers(0, 7), max_size=30),
           d=st.integers(1, 6), scale=st.floats(-3, 3), offset=st.floats(-3, 4),
           width=st.one_of(st.none(), st.floats(-1.5, 4)), q=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_well_separated_rows_clear_the_floor_by_a_wide_margin(self, r, extra, d, scale,
                                                                  offset, width, q, seed):
        # the same sets and widths, but with q < r distinct rows whose
        # centred span is well conditioned in its q leading directions. Under
        # the widest kernel the q-th eigenvalue follows the linear term of
        # exp(-d²/2σ²), about s_q²/σ², and still lies more than 5000 times
        # above the floor in 20 000 random draws; a floor set a thousandfold
        # too high fails here
        rows, K = self.repeated_rows_gram(r, extra, d, scale, offset, width, seed)
        q = min(q, r - 1, d)
        s = np.linalg.svd(rows - rows.mean(axis=0), compute_uv=False)
        assume(s[q - 1] >= 0.3 * s[0])
        for fit in (kpca_gram(K, q), reference_kpca_gram(K, q)):
            assert fit.eigenvalues[-1] > 1000 * subspace._rank_floor(K, fit.eigenvalues[0])


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
