"""Datasets, CSV ingestion, raster rotation, and synthetic observation sets."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_ANGLE_RETRY_CAP = 100
_HEADER_RE = re.compile(r"#d=(\d+),c=(\d+)$")


class DataError(ValueError):
    """Malformed dataset input."""


class ParseError(DataError):
    """A header or row could not be parsed."""


class DimensionError(DataError):
    """A row carries the wrong number of feature values."""


class LabelError(DataError):
    """A class id lies outside 1..c."""


def _empty() -> np.ndarray:
    return np.empty(0)


@dataclass(frozen=True)
class Dataset:
    """One classification instance.

    Rows are samples. ``labeled`` and ``virtual`` carry class ids in 1..c;
    ``observations`` is the unlabelled set whose single shared class is to be
    estimated. Graph classifiers consume rows in the fixed order labelled,
    virtual, observations (virtual samples are treated as labelled data).
    """

    labeled: np.ndarray
    labeled_classes: np.ndarray
    observations: np.ndarray
    c: int
    virtual: np.ndarray = field(default_factory=_empty)
    virtual_classes: np.ndarray = field(default_factory=_empty)

    def __post_init__(self):
        lab = np.atleast_2d(np.asarray(self.labeled, dtype=float))
        obs = np.atleast_2d(np.asarray(self.observations, dtype=float))
        vs = np.asarray(self.virtual, dtype=float)
        if vs.size == 0:
            vs = np.empty((0, lab.shape[1]))
        vs = np.atleast_2d(vs)
        lab_cls = np.asarray(self.labeled_classes, dtype=int).ravel()
        vs_cls = np.asarray(self.virtual_classes, dtype=int).ravel()
        if self.c < 1:
            raise DataError("c >= 1 required")
        if lab.shape[0] < 1 or lab_cls.shape[0] < 1:
            raise DataError("l >= 1 required")
        if obs.shape[0] < 1:
            raise DataError("m >= 1 required")
        d = lab.shape[1]
        if d < 1:
            raise DataError("d >= 1 required")
        if obs.shape[1] != d:
            raise DimensionError(f"observation dimension {obs.shape[1]} != {d}")
        if vs.shape[1] != d:
            raise DimensionError(f"virtual-sample dimension {vs.shape[1]} != {d}")
        if lab_cls.shape[0] != lab.shape[0]:
            raise DataError("labeled_classes length mismatch")
        if vs_cls.shape[0] != vs.shape[0]:
            raise DataError("virtual_classes length mismatch")
        for name, cls in (("labeled", lab_cls), ("virtual", vs_cls)):
            if cls.size and (cls.min() < 1 or cls.max() > self.c):
                raise LabelError(f"{name} class id outside 1..{self.c}")
        for name, arr in (("labeled", lab), ("virtual", vs), ("observations", obs)):
            if not np.all(np.isfinite(arr)):
                raise DataError(f"non-finite value in {name} samples")
        object.__setattr__(self, "labeled", lab)
        object.__setattr__(self, "labeled_classes", lab_cls)
        object.__setattr__(self, "virtual", vs)
        object.__setattr__(self, "virtual_classes", vs_cls)
        object.__setattr__(self, "observations", obs)

    @property
    def d(self) -> int:
        return self.labeled.shape[1]

    @property
    def l(self) -> int:
        return self.labeled.shape[0]

    @property
    def n_virtual(self) -> int:
        return self.virtual.shape[0]

    @property
    def m(self) -> int:
        return self.observations.shape[0]

    @property
    def n(self) -> int:
        return self.l + self.n_virtual + self.m

    def stacked(self) -> np.ndarray:
        """All samples, labelled-first node order."""
        return np.vstack([self.labeled, self.virtual, self.observations])

    def labeled_class_ids(self) -> np.ndarray:
        """Class ids of the labelled block (virtual samples included)."""
        return np.concatenate([self.labeled_classes, self.virtual_classes])

    def train_sets(self) -> list[np.ndarray]:
        """Per-class labelled rows (virtual included), indexed by class id - 1."""
        X = np.vstack([self.labeled, self.virtual])
        cls = self.labeled_class_ids()
        return [X[cls == p] for p in range(1, self.c + 1)]


def _parse_floats(fields, d, lineno):
    if len(fields) != d:
        raise DimensionError(f"line {lineno}: expected {d} feature values, got {len(fields)}")
    try:
        values = [float(f) for f in fields]
    except ValueError:
        raise ParseError(f"line {lineno}: non-numeric feature value") from None
    if not all(math.isfinite(v) for v in values):
        raise DataError(f"line {lineno}: non-finite feature value")
    return values


def _parse_tag(fields, lineno):
    if not fields or not fields[0]:
        raise ParseError(f"line {lineno}: empty row tag")
    try:
        return int(fields[0])
    except ValueError:
        raise ParseError(f"line {lineno}: row tag {fields[0]!r} is not an integer") from None


def _read_rows(path):
    """Header values (d, c) of a CSV file and an iterator over its non-blank
    rows as (line number, integer tag, fields)."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except OSError as exc:  # missing, a directory, unreadable: the message names the path
        raise DataError(str(exc)) from None
    if not lines:
        raise ParseError(f"{path}: empty file")
    match = _HEADER_RE.match(lines[0].strip())
    if match is None:
        raise ParseError(f"{path}: line 1: expected header '#d=<d>,c=<c>'")

    def rows():
        for lineno, raw in enumerate(lines[1:], start=2):
            line = raw.strip()
            if line:
                fields = line.split(",")
                yield lineno, _parse_tag(fields, lineno), fields

    return int(match.group(1)), int(match.group(2)), rows()


def load_dataset(path) -> Dataset:
    """Read a classification instance from CSV.

    Format: header line ``#d=<d>,c=<c>``, then one sample per row. The first
    field is the class id for labelled rows, ``0`` for observation rows and
    ``-1`` for virtual-sample rows (followed by the inherited class id).
    Remaining fields are the d feature values. Row order is preserved.
    """
    d, c, rows = _read_rows(path)
    labeled, labeled_cls, virtual, virtual_cls, observations = [], [], [], [], []
    for lineno, tag, fields in rows:
        if tag >= 1:
            if tag > c:
                raise LabelError(f"line {lineno}: class {tag} outside 1..{c}")
            labeled.append(_parse_floats(fields[1:], d, lineno))
            labeled_cls.append(tag)
        elif tag == 0:
            observations.append(_parse_floats(fields[1:], d, lineno))
        elif tag == -1:
            if len(fields) < 2:
                raise ParseError(f"line {lineno}: virtual row needs an inherited class id")
            cls = _parse_tag(fields[1:], lineno)
            if not 1 <= cls <= c:
                raise LabelError(f"line {lineno}: class {cls} outside 1..{c}")
            virtual.append(_parse_floats(fields[2:], d, lineno))
            virtual_cls.append(cls)
        else:
            raise LabelError(f"line {lineno}: class {tag} outside 1..{c}")
    if not labeled:
        raise DataError("l >= 1 required")
    if not observations:
        raise DataError("m >= 1 required")
    vs = np.asarray(virtual) if virtual else np.empty((0, d))
    return Dataset(
        labeled=np.asarray(labeled),
        labeled_classes=np.asarray(labeled_cls, dtype=int),
        observations=np.asarray(observations),
        c=c,
        virtual=vs,
        virtual_classes=np.asarray(virtual_cls, dtype=int),
    )


def _fmt_row(tag_fields, values):
    return ",".join(tag_fields + [repr(float(v)) for v in values])


def dataset_to_csv(ds: Dataset) -> str:
    lines = [f"#d={ds.d},c={ds.c}"]
    for row, cls in zip(ds.labeled, ds.labeled_classes):
        lines.append(_fmt_row([str(int(cls))], row))
    for row, cls in zip(ds.virtual, ds.virtual_classes):
        lines.append(_fmt_row(["-1", str(int(cls))], row))
    for row in ds.observations:
        lines.append(_fmt_row(["0"], row))
    return "\n".join(lines) + "\n"


def save_dataset(ds: Dataset, path) -> None:
    Path(path).write_text(dataset_to_csv(ds), encoding="utf-8")


def load_gallery(path) -> list[np.ndarray]:
    """Read per-class sample sets from a labelled-only CSV (same header format).

    Every row must carry a class id in 1..c; returns one (n_p, d) array per
    class. Used by the session protocols, where each file is one session.
    """
    d, c, rows = _read_rows(path)
    sets: list[list[list[float]]] = [[] for _ in range(c)]
    for lineno, tag, fields in rows:
        if not 1 <= tag <= c:
            raise LabelError(f"line {lineno}: gallery rows need a class id in 1..{c}, got {tag}")
        sets[tag - 1].append(_parse_floats(fields[1:], d, lineno))
    for p, rows in enumerate(sets, start=1):
        if not rows:
            raise DataError(f"class {p} has no samples")
    return [np.asarray(rows) for rows in sets]


def gallery_to_csv(sets) -> str:
    d = np.asarray(sets[0]).shape[1]
    lines = [f"#d={d},c={len(sets)}"]
    for p, rows in enumerate(sets, start=1):
        for row in np.asarray(rows):
            lines.append(_fmt_row([str(p)], row))
    return "\n".join(lines) + "\n"


def save_gallery(sets, path) -> None:
    Path(path).write_text(gallery_to_csv(sets), encoding="utf-8")


# ---------------------------------------------------------------------------
# Raster patterns


def vectorize(pattern) -> np.ndarray:
    """Flatten a raster column-major (fixed order so fixtures are reproducible)."""
    return np.asarray(pattern, dtype=float).reshape(-1, order="F")


def _rotate(pattern, thetas) -> np.ndarray:
    """:func:`rotate_pattern` of one raster by every angle in ``thetas``, in
    broadcast passes of a block of angles, stacked (k, h, w); each rotation
    is bitwise what that angle alone gives."""
    p = np.asarray(pattern, dtype=float)
    if p.ndim != 2 or p.shape[0] < 2 or p.shape[1] < 2:
        raise ValueError("pattern must be a 2-D grid of size at least 2x2")
    if not np.all(np.isfinite(p)):
        raise ValueError("pattern intensities must be finite")
    trig = []
    for theta in thetas:
        if not abs(theta) <= 180.0:
            raise ValueError(f"|theta| must be <= 180, got {theta}")
        rad = math.radians(theta)
        cos, sin = math.cos(rad), math.sin(rad)
        # snap so lattice-aligned rotations are exact permutations
        if abs(cos) < 1e-14:
            cos = 0.0
        if abs(sin) < 1e-14:
            sin = 0.0
        if abs(abs(cos) - 1.0) < 1e-14:
            cos = math.copysign(1.0, cos)
        if abs(abs(sin) - 1.0) < 1e-14:
            sin = math.copysign(1.0, sin)
        trig.append((cos, sin))
    h, w = p.shape
    rc, cc = (h - 1) / 2.0, (w - 1) / 2.0
    rows, cols = np.indices((h, w), dtype=float)
    y = rows - rc
    x = cols - cc
    padded = np.zeros((h + 2, w + 2))
    padded[1:-1, 1:-1] = p
    out = np.empty((len(trig), h, w))
    # 4096 pixels a pass keep the temporaries at 32 KB, in cache and on the
    # heap; a whole set's would be mapped and faulted in anew at every draw
    step = max(1, 4096 // p.size)
    for i in range(0, len(trig), step):
        cos, sin = np.array(trig[i:i + step]).T.reshape(2, -1, 1, 1)
        # inverse map: source position that lands on (y, x) under rotation by theta
        ys = cos * y + sin * x + rc
        xs = -sin * y + cos * x + cc
        r0 = np.floor(ys).astype(int)
        c0 = np.floor(xs).astype(int)
        dr = ys - r0
        dc = xs - c0
        rp = np.clip(r0 + 1, 0, h + 1)
        cp = np.clip(c0 + 1, 0, w + 1)
        rp1 = np.clip(r0 + 2, 0, h + 1)
        cp1 = np.clip(c0 + 2, 0, w + 1)
        out[i:i + step] = (
            (1.0 - dr) * (1.0 - dc) * padded[rp, cp]
            + (1.0 - dr) * dc * padded[rp, cp1]
            + dr * (1.0 - dc) * padded[rp1, cp]
            + dr * dc * padded[rp1, cp1]
        )
    return out


def rotate_pattern(pattern, theta: float) -> np.ndarray:
    """Rotate a raster by ``theta`` degrees about the grid center.

    Bilinear interpolation, zero fill outside the original support. Rotations
    that are exact multiples of 90 degrees reduce to index permutations.
    """
    return _rotate(pattern, [theta])[0]


def draw_distinct_angles(rng, m: int, theta_range) -> list[float]:
    """Draw m i.i.d. uniform angles, resampling exact collisions.

    Gives up after 100 failed redraws (a degenerate range such as [a, a]
    cannot yield distinct angles).
    """
    lo, hi = float(theta_range[0]), float(theta_range[1])
    if m < 1:
        raise ValueError("m >= 1 required")
    if lo > hi:
        raise ValueError(f"empty angle range [{lo}, {hi}]")
    angles: dict[float, None] = {}  # insertion-ordered set
    misses = 0
    while len(angles) < m:
        a = float(rng.uniform(lo, hi))
        if a in angles:
            misses += 1
            if misses >= _ANGLE_RETRY_CAP:
                raise ValueError(
                    f"could not draw {m} pairwise distinct angles in [{lo}, {hi}]"
                )
            continue
        angles[a] = None
    return list(angles)


def rotation_set(pattern, m: int, theta_range, rng):
    """m vectorized rotations of ``pattern`` at distinct uniform angles."""
    angles = draw_distinct_angles(rng, m, theta_range)
    samples = _rotate(pattern, angles).transpose(0, 2, 1).reshape(len(angles), -1)
    return samples, np.asarray(angles)


def augment_virtual_samples(labeled, angles):
    """One rotated copy per (pattern, angle), inheriting the source class.

    Returns (samples, classes); output size is len(labeled) * len(angles).
    """
    angles = list(angles)
    if not angles:
        raise ValueError("angles nonempty required")
    samples, classes = [], []
    for pattern, cls in labeled:
        samples.append(_rotate(pattern, angles).transpose(0, 2, 1).reshape(len(angles), -1))
        classes += [int(cls)] * len(angles)
    return np.concatenate(samples), np.asarray(classes, dtype=int)


def resample_set(samples, r: int):
    """Keep one sample in every r (1-based indices 1, 1+r, 1+2r, ...)."""
    if r < 1:
        raise ValueError("r >= 1 required")
    return samples[::r]
