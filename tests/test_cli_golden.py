"""Recorded stdout of ``masc classify``, ``sweep``, ``sessions`` and ``graph``.

Every output must match its file under ``tests/data/golden`` byte for byte,
with one exception: ``classify --classifier kld`` must match the decision,
the tie flag and every other field exactly, and its scores to 1e-10
relative, because the KL divergences are evaluated in the spectral form
and move in their last digits against the dense formula they were recorded
with.

To record the files again after a deliberate change of output, run
``PYTHONPATH=src python tests/test_cli_golden.py`` from the repository root
and say in CHANGES.md why the bytes moved. It writes only the files that
are missing or that the test rejects, and prints their names.
"""

import hashlib
import json
import math
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from masc.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
CLASSIFIERS = ("masc", "lp", "msm", "kmsm", "kld")
KLD_SCORE_RTOL = 1e-10

# (file, synth arguments); the session files are galleries of the same
# classes drawn with different generators. The two raster sessions stack
# 300 labelled rows and 30 observations, a graph large enough for the
# sparse label-propagation solve.
INPUTS = (
    ("raster.csv", ["--fixture", "rotated-rasters", "--m", "30", "--true-class", "3"]),
    ("manifold.csv", ["--fixture", "curved-manifolds", "--m", "20", "--true-class", "2"]),
    ("session1.csv", ["--fixture", "curved-manifolds", "--gallery", "12", "--true-class", "1"]),
    ("session2.csv", ["--fixture", "curved-manifolds", "--gallery", "12", "--true-class", "2"]),
    ("session3.csv", ["--fixture", "curved-manifolds", "--gallery", "12", "--true-class", "3"]),
    ("raster-session1.csv",
     ["--fixture", "rotated-rasters", "--gallery", "30", "--true-class", "1"]),
    ("raster-session2.csv",
     ["--fixture", "rotated-rasters", "--gallery", "30", "--true-class", "2"]),
)

# sha256 of each ``masc synth ... --seed 0`` output, for the inputs above
# and one raster gallery; all but the raster sessions were recorded before
# the fixtures' fixed problem parameters became module constants
SYNTH_ONLY = (
    ("raster-gallery.csv", ["--fixture", "rotated-rasters", "--gallery", "3"]),
)
SYNTH_SHA256 = {
    "raster.csv": "6c3d16d665c0d8e8721226045c173a0c297ef13a2fcaa09773d62a9490d75ed6",
    "manifold.csv": "3bff55e8478aaec44939801b840b20a8d995f034a194a67a85d3de6877efd349",
    "session1.csv": "3ce7228db82dc02af74694aaea984e4694bcbd888d7c70e14a774a7b4016d5df",
    "session2.csv": "d1978a68d8c928fc21521e2285c8167ba3ae1fee3c5edd00419aa46e8cdbc3f3",
    "session3.csv": "c9e96de2ec7602eb3c8dce2eadf8149a13efaf8725892b248d6d8fc03d2578bd",
    "raster-session1.csv": "1185c3f0c6f292eb6beb54e15c7185386751a17a447204940a9bbc89f9bd09a3",
    "raster-session2.csv": "9e648e0cc8ea9890c30dfe2445904ff3304afb7a9f3dbdfc75ca87b2a81d7d6b",
    "raster-gallery.csv": "52d110b06a21d4a7b254bfe0ee36bbf1d091077dbac26cd15a66c1c7c6257c4b",
}


def cases():
    """(golden file name, argv with {file} placeholders for the inputs)."""
    out = []
    for fixture in ("raster", "manifold"):
        for name in CLASSIFIERS:
            out.append((f"classify-{fixture}-{name}.json",
                        ["classify", "--classifier", name, "--input", f"{{{fixture}.csv}}"]))
    out.append(("classify-raster-kld-cutoff0.8.json",
                ["classify", "--classifier", "kld", "--energy-cutoff", "0.8",
                 "--input", "{raster.csv}"]))
    for name in CLASSIFIERS:
        out.append((f"sweep-manifold-{name}.csv",
                    ["sweep", "--fixture", "curved-manifolds", "--classifier", name,
                     "--m-values", "4,12", "--trials", "3"]))
    out.append(("sweep-raster-kld.json",
                ["sweep", "--fixture", "rotated-rasters", "--classifier", "kld",
                 "--m-values", "10,50", "--trials", "2", "--format", "json"]))
    sessions = ["{session1.csv}", "{session2.csv}", "{session3.csv}"]
    for name in CLASSIFIERS:
        out.append((f"sessions-pairs-{name}.json",
                    ["sessions", "--classifier", name, "--r", "2", *sessions]))
    out.append(("sessions-pairs-raster-lp.json",
                ["sessions", "--classifier", "lp", "{raster-session1.csv}",
                 "{raster-session2.csv}"]))
    out.append(("sessions-split-kld.json",
                ["sessions", "--mode", "split", "--classifier", "kld", "--train-count", "6",
                 "--trials", "3", "{session1.csv}"]))
    for fixture in ("raster", "manifold"):  # median sigma, default k
        out.append((f"graph-{fixture}.txt", ["graph", "--input", f"{{{fixture}.csv}}"]))
    return out


def run_cli(argv) -> str:
    stdout = StringIO()
    with redirect_stdout(stdout):
        code = main(list(argv))
    assert code == 0, argv
    return stdout.getvalue()


def write_inputs(directory: Path) -> dict[str, str]:
    paths = {}
    for name, synth in INPUTS:
        path = directory / name
        run_cli(["synth", *synth, "--seed", "0", "--out", str(path)])
        paths[name] = str(path)
    return paths


def resolve(argv, paths):
    return [paths[a[1:-1]] if a.startswith("{") else a for a in argv]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden-inputs"))


def assert_same_output(argv, got: str, want: str) -> None:
    """The comparison of the test, which the recorder uses to keep files."""
    if not (argv[0] == "classify" and "kld" in argv):
        assert got == want
        return
    got, want = json.loads(got), json.loads(want)
    got_scores, want_scores = got.pop("scores"), want.pop("scores")
    assert got == want  # decision, tie and every other field
    assert len(got_scores) == len(want_scores)
    for a, b in zip(got_scores, want_scores):
        assert math.isclose(a, b, rel_tol=KLD_SCORE_RTOL, abs_tol=0.0), (a, b)


@pytest.mark.parametrize("golden,argv", cases(), ids=[c[0] for c in cases()])
def test_stdout_matches_the_recorded_file(golden, argv, inputs):
    got = run_cli(resolve(argv, inputs))
    assert_same_output(argv, got, (GOLDEN / golden).read_text(encoding="utf-8"))


@pytest.mark.parametrize("name,synth", INPUTS + SYNTH_ONLY,
                         ids=[n for n, _ in INPUTS + SYNTH_ONLY])
def test_synth_output_matches_the_recorded_digest(name, synth, tmp_path):
    path = tmp_path / name
    run_cli(["synth", *synth, "--seed", "0", "--out", str(path)])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SYNTH_SHA256[name]


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(Path(tmp))
        for golden, argv in cases():
            path = GOLDEN / golden
            got = run_cli(resolve(argv, paths))
            if path.exists():
                try:
                    assert_same_output(argv, got, path.read_text(encoding="utf-8"))
                    continue
                except (AssertionError, ValueError):  # ValueError: unreadable JSON
                    pass
            path.write_text(got, encoding="utf-8")
            print(f"recorded {path}")
