"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import masc  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import CLASSIFY_SPAN, Tracer  # noqa: E402
from workloads import Recorder, check_decision, tail, trimmed_mean  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_input_digest_depends_only_on_the_seed(name, tmp_path):
    make = workloads.WORKLOADS[name]
    first = make(3, scratch=tmp_path).input_digest
    assert make(3, scratch=tmp_path).input_digest == first
    assert make(4, scratch=tmp_path).input_digest != first


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gallery-stream", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.startswith(f"{name} ") and f" {unit}" in line for line in lines[:-1])


def test_bare_directory_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    for path in HERE.iterdir():
        if path.is_file():
            (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "raster-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_tail_leaves_ten_samples_beyond():
    for n in range(11, 2000):
        samples = list(np.random.default_rng(n).permutation(n))
        value, pct = tail(samples)
        assert sum(1 for s in samples if s > value) >= 10, n
        # one percentile higher would leave fewer than 10 samples beyond
        assert n - -(-(pct + 1) * n // 100) < 10, n


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        tail(list(range(10)))


def test_trimmed_mean_drops_a_tenth_at_each_end():
    assert trimmed_mean(list(range(20))) == statistics.fmean(range(2, 18))
    # of 11 samples one is dropped at each end: one stall goes, a second stays
    assert trimmed_mean([1.0] * 10 + [1e6]) == 1.0
    assert trimmed_mean([1.0] * 9 + [1e6] * 2) == statistics.fmean([1.0] * 8 + [1e6])


def _sets(c=3, d=4, rows=6, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(rows, d)) + 5.0 * p for p in range(c)], rng.normal(size=(rows, d)) + 5.0


@pytest.mark.parametrize("name", workloads.CLASSIFIERS)
def test_real_classifiers_pass_the_checks(name):
    train, obs = _sets()
    dec = masc.make_classifier(name, k=3, q=2)(train, obs)
    assert check_decision(name, dec, len(train)) is None


@pytest.mark.parametrize("name,dec", [
    ("masc", masc.Decision(0, (1.0, 2.0, 3.0), False)),
    ("masc", masc.Decision(4, (1.0, 2.0, 3.0), False)),
    ("masc", masc.Decision(1, (1.0, 2.0), False)),
    ("masc", masc.Decision(1, (1.0, float("nan"), 3.0), False)),
    ("masc", masc.Decision(3, (1.0, 2.0, 3.0), False)),  # argmax where argmin is due
    ("lp", masc.Decision(1, (0.1, 0.6, 0.3), False)),    # argmin where argmax is due
    ("msm", masc.Decision(2, (0.5, 0.5, 0.1), True)),    # tie goes to the smaller index
    ("kld", masc.Decision(1, (1.0, 2.0, 3.0), True)),    # tie flag without a tie
    ("kmsm", masc.Decision(1, (0.9, 0.9, 0.1), False)),  # tie without the flag
])
def test_wrong_outputs_fail_the_checks(name, dec):
    assert check_decision(name, dec, 3) is not None


def test_out_of_range_decision_counts_as_failed_and_is_kept():
    rec = Recorder()

    def bad(train_sets, observations):
        return masc.Decision(len(train_sets) + 1, (0.0,) * len(train_sets), False)

    def factory(class_id, m, rng):
        return _sets(c=3, rows=m, seed=class_id)

    reports = masc.observation_sweep(factory, rec.wrap("lp", bad), 3, [4], 2, 0, threads=2)
    assert rec.attempted == 6
    assert len(rec.failures) == 6
    assert len(rec.latency["lp"]) == 6
    assert reports[0].mean_error == 1.0


def test_raising_classifier_counts_as_failed():
    rec = Recorder()

    def broken(train_sets, observations):
        raise np.linalg.LinAlgError("boom")

    dec = rec.call("kld", broken, *_sets())
    assert dec.decision == 0
    assert rec.attempted == 1 and rec.failures == ["kld: LinAlgError: boom"]


def test_decisions_do_not_change_across_reruns(tmp_path):
    digests = []
    for _ in range(2):
        wl = workloads.GalleryStream(0, scratch=tmp_path)
        wl.run_cycle(0)
        digests.append((wl.input_digest, wl.cycle_digests[0]))
    assert digests[0] == digests[1]


@pytest.mark.parametrize("name", workloads.CLASSIFIERS)
def test_decisions_do_not_change_across_thread_counts(name):
    fixture = masc.CurvedManifoldFixture()
    classify = masc.make_classifier(name)
    runs = [[r.decisions for r in masc.observation_sweep(
                fixture.make_instance, classify, fixture.classes, [8, 48], 4, 0, threads=t)]
            for t in (1, 2)]
    assert runs[0] == runs[1]


def test_recorded_digests_hold_and_a_mismatch_fails(tmp_path):
    wl = workloads.GalleryStream(run.DEFAULT_SEED, scratch=tmp_path)
    wl.run_cycle(0)
    wl.run_cycle(3)
    digests = {0: wl.cycle_digests[0], 3: wl.cycle_digests[1]}
    assert run.check_digests(wl.name, run.DEFAULT_SEED, wl.input_digest, digests) == []
    digests[3] = "0" * 16
    assert len(run.check_digests(wl.name, run.DEFAULT_SEED, wl.input_digest, digests)) == 1


def test_tracer_spans_nest_and_uninstall_restores():
    original = masc.graph.build_knn_graph
    tracer = Tracer()
    tracer.install()
    try:
        assert masc.evaluate.build_knn_graph is masc.graph.build_knn_graph is not original
        assert masc.evaluate.kl_gaussian is masc.statdist.kl_gaussian
        train, obs = _sets()
        tracer.set_query(7)
        tracer.classify(train, lambda: masc.make_classifier("masc", k=3)(train, obs))
    finally:
        tracer.uninstall()
    assert masc.graph.build_knn_graph is original
    assert masc.evaluate.build_knn_graph is original
    by_id = {s[0]: s for s in tracer.spans}
    build = next(s for s in tracer.spans if s[2] == "graph.build_knn_graph")
    assert by_id[build[1]][2] == CLASSIFY_SPAN
    assert all(s[5] == 7 for s in tracer.spans)
    selfs = tracer.self_times()
    classify = next(s for s in tracer.spans if s[2] == CLASSIFY_SPAN)
    children = sum(s[4] - s[3] for s in tracer.spans if s[1] == classify[0])
    assert selfs[CLASSIFY_SPAN][0] == pytest.approx(classify[4] - classify[3] - children)
    assert tracer.mean("graph.pairs_computed") == (3 * 6 + 6) ** 2
    assert tracer.absent == []


def test_missing_wrap_target_is_reported_absent(monkeypatch):
    for module in (masc, masc.statdist, masc.evaluate):
        monkeypatch.delattr(module, "kl_gaussian")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["statdist.kl_gaussian"]
