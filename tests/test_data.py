import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masc.data import (
    DataError,
    Dataset,
    DimensionError,
    LabelError,
    ParseError,
    augment_virtual_samples,
    dataset_to_csv,
    draw_distinct_angles,
    load_dataset,
    load_gallery,
    resample_set,
    rotate_pattern,
    rotation_set,
    save_dataset,
    save_gallery,
    vectorize,
)
from masc.fixtures import RotatedRasterConfig, RotatedRasterFixture
from oracles import reference_rotate_pattern, rotate_oversampled


def write(tmp_path, text, name="ds.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadDataset:
    def test_three_row_file(self, tmp_path):
        path = write(tmp_path, "#d=2,c=2\n1,0.5,1.5\n2,2.0,3.0\n0,1.0,1.0\n")
        ds = load_dataset(path)
        assert (ds.l, ds.m, ds.c, ds.n_virtual) == (2, 1, 2, 0)
        np.testing.assert_array_equal(ds.labeled_classes, [1, 2])
        np.testing.assert_allclose(ds.labeled, [[0.5, 1.5], [2.0, 3.0]])

    def test_virtual_rows(self, tmp_path):
        path = write(tmp_path, "#d=1,c=2\n1,0.0\n-1,1,0.25\n0,1.0\n")
        ds = load_dataset(path)
        assert ds.n_virtual == 1
        assert ds.virtual_classes[0] == 1
        assert ds.n == 3

    def test_wrong_width_names_row(self, tmp_path):
        path = write(tmp_path, "#d=2,c=1\n1,0.5\n0,1.0,2.0\n")
        with pytest.raises(DimensionError, match="line 2"):
            load_dataset(path)

    def test_empty_observations(self, tmp_path):
        path = write(tmp_path, "#d=1,c=1\n1,0.5\n")
        with pytest.raises(DataError, match="m >= 1 required"):
            load_dataset(path)

    def test_label_out_of_range(self, tmp_path):
        path = write(tmp_path, "#d=1,c=2\n3,0.5\n0,1.0\n")
        with pytest.raises(LabelError, match="line 2"):
            load_dataset(path)

    def test_non_numeric_is_parse_error(self, tmp_path):
        path = write(tmp_path, "#d=1,c=1\n1,abc\n0,1.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path)

    def test_missing_header(self, tmp_path):
        path = write(tmp_path, "1,0.5\n0,1.0\n")
        with pytest.raises(ParseError, match="header"):
            load_dataset(path)

    def test_round_trip(self, tmp_path):
        ds = Dataset(
            labeled=[[0.25, 1.5], [3.0, -0.125]],
            labeled_classes=[1, 2],
            observations=[[0.1, 0.2]],
            c=3,
            virtual=[[7.0, 8.0]],
            virtual_classes=[2],
        )
        path = tmp_path / "rt.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.labeled, ds.labeled)
        np.testing.assert_array_equal(back.virtual, ds.virtual)
        np.testing.assert_array_equal(back.observations, ds.observations)
        assert dataset_to_csv(back) == dataset_to_csv(ds)

    def test_gallery_round_trip(self, tmp_path):
        sets = [np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0, 6.0]])]
        path = tmp_path / "g.csv"
        save_gallery(sets, path)
        back = load_gallery(path)
        assert len(back) == 2
        np.testing.assert_array_equal(back[0], sets[0])
        np.testing.assert_array_equal(back[1], sets[1])

    def test_gallery_rejects_observation_rows(self, tmp_path):
        path = write(tmp_path, "#d=1,c=1\n1,0.5\n0,1.0\n")
        with pytest.raises(LabelError):
            load_gallery(path)


class TestDatasetInvariants:
    def test_row_class_out_of_range(self):
        with pytest.raises(LabelError):
            Dataset(labeled=[[0.0]], labeled_classes=[5], observations=[[1.0]], c=2)

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            Dataset(labeled=[[np.nan]], labeled_classes=[1], observations=[[1.0]], c=1)

    def test_node_order(self):
        ds = Dataset(
            labeled=[[0.0], [1.0]],
            labeled_classes=[1, 2],
            observations=[[3.0]],
            c=2,
            virtual=[[2.0]],
            virtual_classes=[1],
        )
        np.testing.assert_array_equal(ds.stacked().ravel(), [0.0, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(ds.labeled_class_ids(), [1, 2, 1])


class TestRotatePattern:
    def test_zero_is_identity(self):
        rng = np.random.default_rng(0)
        p = rng.random((8, 6))
        np.testing.assert_array_equal(rotate_pattern(p, 0.0), p)

    def test_right_angle_is_exact_permutation(self):
        rng = np.random.default_rng(1)
        p = rng.random((9, 9))
        out = rotate_pattern(p, 90.0)
        assert sorted(out.ravel()) == sorted(p.ravel())
        np.testing.assert_array_equal(rotate_pattern(out, -90.0), p)

    def test_single_pixel_against_oversampled_oracle(self):
        p = np.zeros((15, 15))
        p[4, 10] = 1.0
        theta = 20.0
        out = rotate_pattern(p, theta)
        oracle = rotate_oversampled(p, theta, factor=16)
        # mass should land on the rotated coordinate
        ours = np.unravel_index(np.argmax(out), out.shape)
        ref = np.unravel_index(np.argmax(oracle), oracle.shape)
        assert abs(ours[0] - ref[0]) <= 1 and abs(ours[1] - ref[1]) <= 1
        assert abs(out.sum() - p.sum()) <= 0.05 * p.sum()

    def test_round_trip_interior(self):
        rng = np.random.default_rng(2)
        from scipy.ndimage import gaussian_filter

        p = gaussian_filter(rng.random((16, 16)), 1.5)
        p = (p - p.min()) / (p.max() - p.min())
        for theta in (-40.0, -15.0, 10.0, 40.0):
            back = rotate_pattern(rotate_pattern(p, theta), -theta)
            interior = (slice(4, 12), slice(4, 12))
            assert np.max(np.abs(back[interior] - p[interior])) <= 0.05

    def test_rejects_large_angle(self):
        with pytest.raises(ValueError):
            rotate_pattern(np.zeros((4, 4)), 200.0)


class Draws:
    """A stand-in generator whose ``uniform`` returns the given values in turn."""

    def __init__(self, values):
        self.values = iter(values)

    def uniform(self, lo, hi):
        return next(self.values)


def reference_rows(pattern, angles):
    """One vectorized reference rotation per angle, one angle at a time."""
    return np.stack([vectorize(reference_rotate_pattern(pattern, a)) for a in angles])


EDGE_ANGLES = [0.0, -0.0, 90.0, -90.0, 180.0, -180.0, 45.0, 1e-15, 89.99999999999999]


class TestBatchedRotationIsBitwise:
    """Every rotation equals, byte for byte, the per-angle reference."""

    @pytest.mark.parametrize("m", [1, 10, 50, 150])
    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_sets(self, m, seed):
        pattern = np.random.default_rng(seed).random((16, 16))
        samples, angles = rotation_set(pattern, m, (-40.0, 40.0), np.random.default_rng(seed))
        assert samples.shape == (m, 256) and samples.flags.c_contiguous
        assert samples.tobytes() == reference_rows(pattern, angles).tobytes()

    @pytest.mark.parametrize("shape", [(16, 16), (5, 7), (2, 2)])
    def test_edge_angles(self, shape):
        pattern = np.random.default_rng(9).random(shape)
        for a in EDGE_ANGLES:
            want = reference_rotate_pattern(pattern, a)
            assert rotate_pattern(pattern, a).tobytes() == want.tobytes()
        # -0.0 collides with 0.0, so the set keeps the other eight angles
        samples, angles = rotation_set(pattern, 8, (-180.0, 180.0), Draws(EDGE_ANGLES))
        assert list(angles) == EDGE_ANGLES[:1] + EDGE_ANGLES[2:]
        assert samples.tobytes() == reference_rows(pattern, angles).tobytes()
        labeled = [(pattern, 2), (pattern[::-1], 1)]
        samples, classes = augment_virtual_samples(labeled, EDGE_ANGLES)
        expected = np.vstack([reference_rows(p, EDGE_ANGLES) for p, _ in labeled])
        assert samples.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(classes, np.repeat([2, 1], len(EDGE_ANGLES)))

    def test_fixture_virtual_samples(self):
        fix = RotatedRasterFixture(RotatedRasterConfig(classes=4, seed=5))
        patterns = [row.reshape((16, 16), order="F") for row in fix.labeled]
        expected = np.vstack([reference_rows(p, [-40.0, 40.0]) for p in patterns])
        assert fix.virtual.tobytes() == expected.tobytes()


_GOOD = np.ones((4, 4))
_NAN_PATTERN = np.ones((4, 4))
_NAN_PATTERN[1, 2] = np.nan
_INF_PATTERN = np.ones((4, 4))
_INF_PATTERN[0, 0] = np.inf
BAD_ROTATIONS = [
    pytest.param(_GOOD, [math.nan], "180", id="nan-angle"),
    pytest.param(_GOOD, [10.0, 200.0], "180", id="angle-out-of-range-last"),
    pytest.param(_GOOD, [-180.5, 10.0], "180", id="angle-out-of-range-first"),
    pytest.param(_GOOD, [10.0, math.inf], "180", id="infinite-angle"),
    pytest.param(_NAN_PATTERN, [10.0], "finite", id="nan-pattern"),
    pytest.param(_INF_PATTERN, [10.0], "finite", id="inf-pattern"),
    pytest.param(np.ones((1, 5)), [10.0], "2x2", id="1xn-pattern"),
    pytest.param(np.ones((5, 1)), [10.0], "2x2", id="nx1-pattern"),
    pytest.param(np.ones(5), [10.0], "2x2", id="1-d-pattern"),
]


@pytest.mark.parametrize("pattern,angles,message", BAD_ROTATIONS)
def test_rotate_pattern_rejects(pattern, angles, message):
    with pytest.raises(ValueError, match=message):
        for a in angles:
            rotate_pattern(pattern, a)


@pytest.mark.parametrize("pattern,angles,message", BAD_ROTATIONS)
def test_augment_virtual_samples_rejects(pattern, angles, message):
    with pytest.raises(ValueError, match=message):
        augment_virtual_samples([(_GOOD, 1), (pattern, 2)], angles)


@pytest.mark.parametrize("pattern,angles,message", BAD_ROTATIONS)
def test_rotation_set_rejects(pattern, angles, message):
    with pytest.raises(ValueError, match=message):
        rotation_set(pattern, len(angles), (-180.0, 180.0), Draws(angles))


def test_vectorize_round_trip():
    rng = np.random.default_rng(3)
    p = rng.random((5, 7))
    np.testing.assert_array_equal(vectorize(p).reshape((5, 7), order="F"), p)
    # column-major order pins the layout
    assert vectorize(p)[1] == p[1, 0]


def observation_set(pattern, m, theta_range, seed):
    samples, _ = rotation_set(pattern, m, theta_range, np.random.default_rng(seed))
    return samples


class TestGenerateObservationSet:
    def test_degenerate_range_single_sample(self):
        p = np.arange(12.0).reshape(3, 4)
        out = observation_set(p, 1, (0.0, 0.0), seed=0)
        np.testing.assert_array_equal(out[0], vectorize(p))

    def test_deterministic(self):
        p = np.random.default_rng(4).random((6, 6))
        a = observation_set(p, 7, (-40, 40), seed=123)
        b = observation_set(p, 7, (-40, 40), seed=123)
        np.testing.assert_array_equal(a, b)

    def test_spread_and_bounds(self):
        p = np.random.default_rng(5).random((8, 8))
        rng = np.random.default_rng(0)
        angles = np.asarray(draw_distinct_angles(rng, 150, (-40.0, 40.0)))
        assert angles.min() >= -40.0 and angles.max() <= 40.0
        assert angles.max() - angles.min() >= 60.0
        assert len(np.unique(angles)) == 150

    def test_draws_one_scalar_per_try(self):
        # without collisions the angles are the generator's first m scalars
        expected = np.random.default_rng(3)
        angles = draw_distinct_angles(np.random.default_rng(3), 50, (-40.0, 40.0))
        assert angles == [float(expected.uniform(-40.0, 40.0)) for _ in range(50)]

    def test_redraws_exact_collisions(self):
        draws = Draws([1.5, 1.5, -0.0, 0.0, 2.5, 1.5, 0.25])
        assert draw_distinct_angles(draws, 4, (-40.0, 40.0)) == [1.5, -0.0, 2.5, 0.25]

    def test_collision_cap(self):
        p = np.zeros((3, 3))
        with pytest.raises(ValueError, match="distinct"):
            observation_set(p, 2, (5.0, 5.0), seed=0)


class TestAugmentVirtualSamples:
    def test_counts(self):
        rng = np.random.default_rng(6)
        labeled = [(rng.random((5, 5)), 1), (rng.random((5, 5)), 2)]
        samples, classes = augment_virtual_samples(labeled, [-30, -10, 10, 30])
        assert samples.shape == (8, 25)
        np.testing.assert_array_equal(classes, [1, 1, 1, 1, 2, 2, 2, 2])

    def test_zero_angle_copies(self):
        p = np.random.default_rng(7).random((4, 4))
        samples, classes = augment_virtual_samples([(p, 3)], [0.0])
        np.testing.assert_array_equal(samples[0], vectorize(p))
        assert classes[0] == 3

    def test_labels_preserved_regular_angles(self):
        rng = np.random.default_rng(8)
        labeled = [(rng.random((6, 6)), c) for c in (1, 2, 3)]
        angles = np.linspace(-40, 40, 4)
        _, classes = augment_virtual_samples(labeled, angles)
        np.testing.assert_array_equal(classes, np.repeat([1, 2, 3], 4))

    def test_empty_angles_rejected(self):
        with pytest.raises(ValueError):
            augment_virtual_samples([(np.zeros((3, 3)), 1)], [])

    def test_no_patterns_rejected(self):
        with pytest.raises(ValueError):
            augment_virtual_samples([], [10.0])


class TestResample:
    def test_enumerated_indices(self):
        samples = np.arange(41)
        kept = resample_set(samples, 4)
        np.testing.assert_array_equal(kept, [0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40])
        assert len(kept) == 11

    def test_identity(self):
        s = list(range(9))
        assert resample_set(s, 1) == s

    def test_large_step(self):
        assert list(resample_set(np.arange(5), 7)) == [0]

    @given(n=st.integers(1, 60), r=st.integers(1, 120))
    @settings(max_examples=60)
    def test_length_formula(self, n, r):
        assert len(resample_set(np.arange(n), r)) == math.ceil(n / r)
