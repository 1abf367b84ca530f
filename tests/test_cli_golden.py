"""Recorded stdout of ``masc classify``, ``sweep``, ``sessions`` and ``graph``.

Every output must match its file under ``tests/data/golden`` byte for byte,
with one exception: ``classify --classifier kld`` must match the decision,
the tie flag and every other field exactly, and its scores to 1e-10
relative, because the KL divergences are evaluated in the spectral form
and move in their last digits against the dense formula they were recorded
with.

To record the files again after a deliberate change of output, run
``PYTHONPATH=src python tests/test_cli_golden.py`` from the repository root
and say in CHANGES.md why the bytes moved.
"""

import json
import math
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from masc.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
CLASSIFIERS = ("masc", "lp", "msm", "kmsm", "kld")
KLD_SCORE_RTOL = 1e-10

# (file, synth arguments); the three galleries are sessions of the same
# curved-manifold classes drawn with different generators.
INPUTS = (
    ("raster.csv", ["--fixture", "rotated-rasters", "--m", "30", "--true-class", "3"]),
    ("manifold.csv", ["--fixture", "curved-manifolds", "--m", "20", "--true-class", "2"]),
    ("session1.csv", ["--fixture", "curved-manifolds", "--gallery", "12", "--true-class", "1"]),
    ("session2.csv", ["--fixture", "curved-manifolds", "--gallery", "12", "--true-class", "2"]),
    ("session3.csv", ["--fixture", "curved-manifolds", "--gallery", "12", "--true-class", "3"]),
)


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


@pytest.mark.parametrize("golden,argv", cases(), ids=[c[0] for c in cases()])
def test_stdout_matches_the_recorded_file(golden, argv, inputs):
    got = run_cli(resolve(argv, inputs))
    want = (GOLDEN / golden).read_text(encoding="utf-8")
    if not (argv[0] == "classify" and "kld" in argv):
        assert got == want
        return
    got, want = json.loads(got), json.loads(want)
    got_scores, want_scores = got.pop("scores"), want.pop("scores")
    assert got == want  # decision, tie and every other field
    assert len(got_scores) == len(want_scores)
    for a, b in zip(got_scores, want_scores):
        assert math.isclose(a, b, rel_tol=KLD_SCORE_RTOL, abs_tol=0.0), (a, b)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(Path(tmp))
        for golden, argv in cases():
            (GOLDEN / golden).write_text(run_cli(resolve(argv, paths)), encoding="utf-8")
    print(f"recorded {len(cases())} files in {GOLDEN}", file=sys.stderr)
