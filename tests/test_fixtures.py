import numpy as np
import pytest

from masc.fixtures import (
    CurvedManifoldConfig,
    CurvedManifoldFixture,
    RotatedRasterConfig,
    RotatedRasterFixture,
    make_fixture,
)


class TestRotatedRasterFixture:
    def test_sizes(self):
        fix = RotatedRasterFixture(RotatedRasterConfig(classes=4, seed=0))
        assert fix.labeled.shape == (8, 256)
        # 2 labelled x 2 virtual angles per class
        assert fix.virtual.shape == (16, 256)
        train = fix.train_sets()
        assert len(train) == 4
        assert all(ts.shape == (6, 256) for ts in train)

    def test_instance_and_dataset(self):
        fix = RotatedRasterFixture(RotatedRasterConfig(classes=3, seed=1))
        rng = np.random.default_rng(0)
        train, obs = fix.make_instance(2, 7, rng)
        assert obs.shape == (7, 256)
        ds = fix.make_dataset(2, 7, np.random.default_rng(0))
        assert ds.m == 7 and ds.c == 3
        np.testing.assert_array_equal(ds.observations, obs)

    def test_deterministic_given_rng(self):
        fix = RotatedRasterFixture(RotatedRasterConfig(classes=3, seed=2))
        a = fix.make_instance(1, 5, np.random.default_rng(9))[1]
        b = fix.make_instance(1, 5, np.random.default_rng(9))[1]
        np.testing.assert_array_equal(a, b)

    def test_base_patterns_distinct(self):
        fix = RotatedRasterFixture(RotatedRasterConfig(seed=3))
        flat = [b.ravel() for b in fix.bases]
        for i in range(len(flat)):
            for j in range(i + 1, len(flat)):
                assert np.linalg.norm(flat[i] - flat[j]) > 1.0

    def test_gallery_shapes(self):
        fix = RotatedRasterFixture(RotatedRasterConfig(classes=3, seed=4))
        sets = fix.gallery(6, np.random.default_rng(0))
        assert len(sets) == 3
        assert all(s.shape == (6, 256) for s in sets)


class TestCurvedManifoldFixture:
    def test_shapes(self):
        fix = CurvedManifoldFixture(CurvedManifoldConfig(seed=0))
        rng = np.random.default_rng(0)
        train, obs = fix.make_instance(3, 11, rng)
        assert len(train) == 3
        assert all(ts.shape == (48, 20) for ts in train)
        assert obs.shape == (11, 20)

    def test_classes_never_cross(self):
        fix = CurvedManifoldFixture(CurvedManifoldConfig(seed=0))
        ts = np.linspace(0, 1, 600)
        curves = [fix.curve(c, ts) for c in (1, 2, 3)]
        for i in range(3):
            for j in range(i + 1, 3):
                d = np.linalg.norm(curves[i][:, None] - curves[j][None, :], axis=2)
                assert d.min() > 0.25

    def test_matched_first_moments(self):
        # class means nearly coincide (a small partial-period residue is
        # left by the non-integer winding count), so mean-based classifiers
        # get almost no signal relative to the curve extent of ~7
        fix = CurvedManifoldFixture(CurvedManifoldConfig(seed=1))
        ts = np.linspace(0, 1, 4000, endpoint=False)
        means = [fix.curve(c, ts).mean(axis=0) for c in (1, 2, 3)]
        assert np.linalg.norm(means[0] - means[1]) < 0.2
        assert np.linalg.norm(means[0] - means[2]) < 0.2

    def test_observation_window_is_local(self):
        cfg = CurvedManifoldConfig(seed=2)
        fix = CurvedManifoldFixture(cfg)
        _, obs = fix.make_instance(1, 30, np.random.default_rng(3))
        span = np.linalg.norm(obs.max(axis=0) - obs.min(axis=0))
        full = fix.curve(1, np.linspace(0, 1, 200))
        full_span = np.linalg.norm(full.max(axis=0) - full.min(axis=0))
        assert span < 0.55 * full_span


@pytest.mark.parametrize("class_id", [0, -1, 11])
def test_raster_class_id_outside_the_classes_is_rejected(class_id):
    fix = RotatedRasterFixture(RotatedRasterConfig(classes=10, seed=0))
    for make in (fix.make_instance, fix.make_dataset):
        with pytest.raises(ValueError, match=f"class id {class_id} outside 1..10"):
            make(class_id, 5, np.random.default_rng(0))


@pytest.mark.parametrize("class_id", [0, -1, 4])
def test_manifold_class_id_outside_the_classes_is_rejected(class_id):
    fix = CurvedManifoldFixture(CurvedManifoldConfig(seed=0))
    for make in (fix.make_instance, fix.make_dataset):
        with pytest.raises(ValueError, match=f"class id {class_id} outside 1..3"):
            make(class_id, 5, np.random.default_rng(0))
    with pytest.raises(ValueError, match="outside 1..3"):
        fix.curve(class_id, [0.5])


def test_make_fixture_dispatch():
    assert make_fixture("rotated-rasters", classes=4, seed=1).classes == 4
    assert make_fixture("curved-manifolds", seed=1).classes == 3
    with pytest.raises(ValueError):
        make_fixture("cubes")
    with pytest.raises(ValueError):
        make_fixture("curved-manifolds", classes=5)
