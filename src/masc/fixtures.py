"""Synthetic fixtures: rotated raster classes and curved-manifold classes.

Both generators are pure functions of their config seed plus the generators
passed to the per-trial methods, so experiments are reproducible end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from .data import Dataset, augment_virtual_samples, rotation_set, vectorize

FIXTURES = ("rotated-rasters", "curved-manifolds")


def _check_class_id(class_id: int, classes: int) -> None:
    if not 1 <= class_id <= classes:
        raise ValueError(f"class id {class_id} outside 1..{classes}")


# The digit experiment's fixed problem: 16 x 16 rasters, two labelled noisy
# variants per class, each augmented by one virtual sample per angle, and
# observation sets rotated by distinct uniform angles in the theta range.
_SHAPE = (16, 16)
_LABELED_PER_CLASS = 2
_VIRTUAL_ANGLES = (-40.0, 40.0)
_THETA_RANGE = (-40.0, 40.0)
_VARIANT_NOISE = 0.25
_SMOOTHNESS = 2.0


@dataclass(frozen=True)
class RotatedRasterConfig:
    """Classes of smooth random rasters observed under random rotations."""

    classes: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.classes < 2:
            raise ValueError("need at least 2 classes")


class RotatedRasterFixture:
    def __init__(self, config: RotatedRasterConfig = RotatedRasterConfig()):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.bases = self._base_patterns(rng)
        labeled = []
        for cls, base in enumerate(self.bases, start=1):
            for _ in range(_LABELED_PER_CLASS):
                labeled.append((self._variant(base, rng), cls))
        self.labeled = np.stack([vectorize(p) for p, _ in labeled])
        self.labeled_classes = np.asarray([cls for _, cls in labeled], dtype=int)
        self.virtual, self.virtual_classes = augment_virtual_samples(
            labeled, _VIRTUAL_ANGLES
        )
        X = np.vstack([self.labeled, self.virtual])
        ids = np.concatenate([self.labeled_classes, self.virtual_classes])
        self._train_sets = [X[ids == p] for p in range(1, config.classes + 1)]

    def _smooth(self, raw: np.ndarray) -> np.ndarray:
        sm = gaussian_filter(raw, sigma=_SMOOTHNESS, mode="constant")
        lo, hi = sm.min(), sm.max()
        return (sm - lo) / (hi - lo)

    def _base_patterns(self, rng) -> list[np.ndarray]:
        """Smooth random rasters, orthogonalized across classes.

        Removing the shared smooth-noise components keeps the class patterns
        distinguishable under rotation, which is what makes the fixture's
        separability controllable through the variant noise alone.
        """
        bases, directions = [], []
        for _ in range(self.config.classes):
            v = vectorize(self._smooth(rng.random(_SHAPE)))
            v = v - v.mean()
            for u in directions:
                v = v - (v @ u) * u
            v = v / np.linalg.norm(v)
            directions.append(v)
            p = v.reshape(_SHAPE, order="F")
            bases.append((p - p.min()) / (p.max() - p.min()))
        return bases

    def _variant(self, base: np.ndarray, rng) -> np.ndarray:
        noise = self._smooth(rng.random(_SHAPE)) - 0.5
        return base + _VARIANT_NOISE * noise

    @property
    def classes(self) -> int:
        return self.config.classes

    def train_sets(self) -> list[np.ndarray]:
        return [ts.copy() for ts in self._train_sets]

    def make_instance(self, class_id: int, m: int, rng):
        """(train_sets, observations) with observations drawn from ``class_id``."""
        _check_class_id(class_id, self.config.classes)
        test_pattern = self._variant(self.bases[class_id - 1], rng)
        obs, _ = rotation_set(test_pattern, m, _THETA_RANGE, rng)
        return self._train_sets, obs

    def make_dataset(self, class_id: int, m: int, rng) -> Dataset:
        _, obs = self.make_instance(class_id, m, rng)
        return Dataset(
            labeled=self.labeled,
            labeled_classes=self.labeled_classes,
            observations=obs,
            c=self.config.classes,
            virtual=self.virtual,
            virtual_classes=self.virtual_classes,
        )

    def gallery(self, per_class: int, rng) -> list[np.ndarray]:
        """Per-class sets of rotated variants, e.g. one synthetic session."""
        sets = []
        for base in self.bases:
            variant = self._variant(base, rng)
            samples, _ = rotation_set(variant, per_class, _THETA_RANGE, rng)
            sets.append(samples)
        return sets


# The view-set experiment's fixed problem: three phase-shifted helixes of
# equal frequency, 48 training samples each, observed on short arcs.
_MANIFOLD_CLASSES = 3
_AMBIENT_DIM = 20
_TRAIN_PER_CLASS = 48
_LENGTH = 6.0
_AMPLITUDE = 1.2
_FREQUENCY = 2.8
_PHASES = (0.0, 2.0944, 4.1888)
_TILT_DEG = (0.0, 50.0, 100.0)
_ARC_WIDTH = 0.08
_NOISE = 0.08


@dataclass(frozen=True)
class CurvedManifoldConfig:
    """Classes of noisy 1-D curves embedded in a higher-dimensional space.

    Helixes inside a 4-D latent space, mapped into 20 ambient
    dimensions by one random orthonormal matrix. Each advances along one
    axis while circling a ring plane tilted per class; phase offsets keep
    the class curves geometrically apart even though their means coincide
    and their covariances differ only weakly, so local methods dominate
    global-summary methods. Observation sets cover one short random
    parameter window, i.e. a local patch of the curve.
    """

    seed: int = 0


class CurvedManifoldFixture:
    _LATENT_DIM = 4

    def __init__(self, config: CurvedManifoldConfig = CurvedManifoldConfig()):
        self.config = config
        rng = np.random.default_rng(config.seed)
        raw = rng.normal(size=(_AMBIENT_DIM, self._LATENT_DIM))
        self._embed, _ = np.linalg.qr(raw)

    @property
    def classes(self) -> int:
        return _MANIFOLD_CLASSES

    def curve(self, class_id: int, ts) -> np.ndarray:
        """Noise-free curve points for parameters ts in [0, 1]."""
        _check_class_id(class_id, _MANIFOLD_CLASSES)
        i = class_id - 1
        ts = np.asarray(ts, dtype=float)
        phase = 2.0 * np.pi * _FREQUENCY * ts + _PHASES[i]
        tilt = np.radians(_TILT_DEG[i])
        # phase-shifted helixes on per-class tilted ring planes: class means
        # coincide and covariances differ only through the tilt direction,
        # while the curves themselves never come closer than the x-advance
        # corresponding to the phase offset
        r = _AMPLITUDE
        latent = np.stack(
            [
                _LENGTH * ts,
                r * np.cos(phase),
                r * np.sin(phase) * np.cos(tilt),
                r * np.sin(phase) * np.sin(tilt),
            ],
            axis=1,
        )
        return latent @ self._embed.T

    def sample(self, class_id: int, ts, rng) -> np.ndarray:
        pts = self.curve(class_id, ts)
        return pts + _NOISE * rng.normal(size=pts.shape)

    def train_sets(self, rng) -> list[np.ndarray]:
        """One full-coverage training set per class (fresh draw per call)."""
        return self.gallery(_TRAIN_PER_CLASS, rng)

    def make_instance(self, class_id: int, m: int, rng):
        """(train_sets, observations); observations cover one short arc."""
        train = self.train_sets(rng)
        t0 = float(rng.uniform(0.0, 1.0 - _ARC_WIDTH))
        ts = rng.uniform(t0, t0 + _ARC_WIDTH, m)
        obs = self.sample(class_id, ts, rng)
        return train, obs

    def make_dataset(self, class_id: int, m: int, rng) -> Dataset:
        train, obs = self.make_instance(class_id, m, rng)
        labeled = np.vstack(train)
        classes = np.concatenate(
            [np.full(len(ts), p) for p, ts in enumerate(train, start=1)]
        )
        return Dataset(
            labeled=labeled,
            labeled_classes=classes,
            observations=obs,
            c=_MANIFOLD_CLASSES,
        )

    def gallery(self, per_class: int, rng) -> list[np.ndarray]:
        sets = []
        for cls in range(1, _MANIFOLD_CLASSES + 1):
            ts = np.sort(rng.uniform(0.0, 1.0, per_class))
            sets.append(self.sample(cls, ts, rng))
        return sets


def make_fixture(name: str, classes: int | None = None, seed: int = 0):
    """Fixture factory used by the CLI; None keeps each fixture's default size."""
    if name == "rotated-rasters":
        kwargs = {"seed": seed}
        if classes is not None:
            kwargs["classes"] = classes
        return RotatedRasterFixture(RotatedRasterConfig(**kwargs))
    if name == "curved-manifolds":
        if classes is not None and classes != _MANIFOLD_CLASSES:
            raise ValueError("curved-manifolds is a 3-class fixture")
        return CurvedManifoldFixture(CurvedManifoldConfig(seed=seed))
    raise ValueError(f"unknown fixture {name!r} (choose from {FIXTURES})")
