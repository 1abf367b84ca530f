import json

import numpy as np
import pytest

from masc.cli import main
from masc.data import Dataset, save_dataset, save_gallery


@pytest.fixture
def blob_csv(tmp_path):
    rng = np.random.default_rng(0)
    ds = Dataset(
        labeled=np.vstack([rng.normal(size=(6, 3)), rng.normal(size=(6, 3)) + 9.0]),
        labeled_classes=[1] * 6 + [2] * 6,
        observations=rng.normal(size=(5, 3), scale=0.4) + 9.0,
        c=2,
    )
    path = tmp_path / "blobs.csv"
    save_dataset(ds, path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_json_schema_and_decision(self, capsys, blob_csv):
        code, out, err = run(capsys, "classify", "--classifier", "masc", "--k", "3",
                             "--input", blob_csv)
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["classifier", "decision", "scores", "tie",
                                 "n", "l", "m", "c", "seed"]
        assert payload["decision"] == 2
        assert payload["n"] == 17 and payload["l"] == 12 and payload["m"] == 5
        assert len(payload["scores"]) == 2
        assert "decision" in err

    @pytest.mark.parametrize("name", ["lp", "msm", "kmsm", "kld"])
    def test_all_classifiers_run(self, capsys, blob_csv, name):
        code, out, _ = run(capsys, "classify", "--classifier", name, "--k", "3",
                           "--q", "2", "--input", blob_csv)
        assert code == 0
        assert json.loads(out)["decision"] == 2

    def test_k_zero_is_config_error(self, capsys, blob_csv):
        code, _, err = run(capsys, "classify", "--k", "0", "--input", blob_csv)
        assert code == 2
        assert "k >= 1" in err

    def test_missing_file_is_data_error(self, capsys):
        code, _, _ = run(capsys, "classify", "--input", "/nonexistent.csv")
        assert code == 3

    def test_directory_as_input_is_data_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "classify", "--input", str(tmp_path))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and str(tmp_path) in err
        assert "Traceback" not in err

    def test_input_that_is_not_utf8_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes("#d=1,c=1\n1,0.5\n0,0.5 # caf\u00e9\n".encode("latin-1"))
        code, out, err = run(capsys, "classify", "--input", str(bad))
        assert code == 3
        assert out == ""
        assert f"{bad}: not UTF-8 text" in err

    def test_malformed_file_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("#d=2,c=1\n1,0.5\n0,1.0,2.0\n", encoding="utf-8")
        code, _, err = run(capsys, "classify", "--input", str(bad))
        assert code == 3
        assert "line" in err

    @pytest.mark.parametrize("name,code", [("masc", 0), ("lp", 0), ("msm", 3),
                                           ("kmsm", 3), ("kld", 3)])
    def test_one_observation(self, capsys, tmp_path, name, code):
        rng = np.random.default_rng(0)
        ds = Dataset(
            labeled=np.vstack([rng.normal(size=(6, 3)), rng.normal(size=(6, 3)) + 9.0]),
            labeled_classes=[1] * 6 + [2] * 6,
            observations=rng.normal(size=(1, 3), scale=0.4) + 9.0,
            c=2,
        )
        path = tmp_path / "one.csv"
        save_dataset(ds, path)
        got, out, err = run(capsys, "classify", "--classifier", name, "--k", "3",
                            "--q", "2", "--input", str(path))
        assert got == code
        if code == 0:
            assert json.loads(out)["decision"] == 2
        else:
            assert "observation set needs at least 2 samples" in err

    @pytest.mark.parametrize("name", ["msm", "kmsm", "kld"])
    def test_identical_observations_are_a_data_error(self, capsys, tmp_path, name):
        rng = np.random.default_rng(0)
        ds = Dataset(
            labeled=np.vstack([rng.normal(size=(6, 3)), rng.normal(size=(6, 3)) + 9.0]),
            labeled_classes=[1] * 6 + [2] * 6,
            observations=np.full((4, 3), 9.0),
            c=2,
        )
        path = tmp_path / "same.csv"
        save_dataset(ds, path)
        code, _, err = run(capsys, "classify", "--classifier", name, "--q", "2",
                           "--input", str(path))
        assert code == 3
        assert "observation set has no spread" in err

    @pytest.mark.parametrize("argv", [["classify", "--classifier", "masc"],
                                      ["classify", "--classifier", "lp"], ["graph"]])
    def test_all_duplicate_rows_are_a_data_error(self, capsys, tmp_path, argv):
        # every distance is zero, so the median heuristic has no scale
        ds = Dataset(labeled=np.full((6, 3), 2.5), labeled_classes=[1] * 3 + [2] * 3,
                     observations=np.full((4, 3), 2.5), c=2)
        path = tmp_path / "dup.csv"
        save_dataset(ds, path)
        code, out, err = run(capsys, *argv, "--input", str(path))
        assert code == 3
        assert out == ""
        assert "zero median distance" in err

    @pytest.mark.parametrize("name,code", [("msm", 0), ("kmsm", 3)])
    def test_two_distinct_observations(self, capsys, tmp_path, name, code):
        # two distinct rows three times each: rank 1 once centered, below q = 2
        rng = np.random.default_rng(1)
        ds = Dataset(
            labeled=np.vstack([rng.normal(size=(6, 3)) + 4.0 * p for p in range(3)]),
            labeled_classes=[1] * 6 + [2] * 6 + [3] * 6,
            observations=np.repeat(rng.normal(size=(2, 3)) + 4.0, 3, axis=0),
            c=3,
        )
        path = tmp_path / "two.csv"
        save_dataset(ds, path)
        got, out, err = run(capsys, "classify", "--classifier", name, "--q", "2",
                            "--input", str(path))
        assert got == code
        if code == 0:
            assert json.loads(out)["tie"] is False
        else:
            assert "observation set has too few distinct samples" in err

    def test_msm_with_subspaces_too_wide_for_d(self, capsys, tmp_path):
        # two planes in d = 3 always share a line: the classes get lines
        rng = np.random.default_rng(1)
        ds = Dataset(
            labeled=np.vstack([rng.normal(size=(6, 3)) + 4.0 * p for p in range(3)]),
            labeled_classes=[1] * 6 + [2] * 6 + [3] * 6,
            observations=rng.normal(size=(6, 3)) + 4.0,
            c=3,
        )
        path = tmp_path / "wide.csv"
        save_dataset(ds, path)
        code, out, _ = run(capsys, "classify", "--classifier", "msm", "--q", "2",
                           "--input", str(path))
        assert code == 0
        got = json.loads(out)
        assert got["tie"] is False
        assert max(got["scores"]) < 0.9

    def test_kld_energy_cutoff_one_with_sets_no_larger_than_d(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        ds = Dataset(
            labeled=np.vstack([rng.normal(size=(20, 37)), rng.normal(size=(20, 37)) + 3.0]),
            labeled_classes=[1] * 20 + [2] * 20,
            observations=rng.normal(size=(20, 37)) + 3.0,
            c=2,
        )
        path = tmp_path / "wide.csv"
        save_dataset(ds, path)
        code, out, _ = run(capsys, "classify", "--classifier", "kld",
                           "--energy-cutoff", "1.0", "--input", str(path))
        assert code == 0
        assert json.loads(out)["decision"] == 2

    @pytest.mark.parametrize("scale", [-530, 515], ids=lambda j: f"2^{j}")
    @pytest.mark.parametrize("name", ["masc", "lp", "msm", "kmsm", "kld"])
    def test_data_at_the_edge_of_the_float_range(self, capsys, tmp_path, name, scale):
        # squared distances and variances of rows scaled by 2^-530 leave the
        # normal range, and by 2^515 overflow; scaling by a power of two is
        # exact, so a run either keeps its unit-scale decision or is a data
        # error, and never prints a NaN or an inf
        rng = np.random.default_rng(0)
        centres = 6.0 * np.eye(3, 5)
        labeled = np.vstack([rng.normal(size=(20, 5)) + c for c in centres])
        observations = rng.normal(size=(6, 5)) + centres[1]

        def classify(factor):
            ds = Dataset(labeled=labeled * factor, labeled_classes=np.repeat([1, 2, 3], 20),
                         observations=observations * factor, c=3)
            path = tmp_path / "scaled.csv"
            save_dataset(ds, path)
            return run(capsys, "classify", "--classifier", name, "--input", str(path))

        def no_constant(token):
            raise ValueError(f"{token} on stdout")

        code, out, _ = classify(1.0)
        assert code == 0
        want = json.loads(out)["decision"]
        code, out, err = classify(2.0 ** scale)
        if code == 0:
            assert json.loads(out, parse_constant=no_constant)["decision"] == want
        else:
            assert code == 3
            assert out == ""
            assert err.startswith("error: ")

    def test_kld_divergence_beyond_the_float_range_is_a_data_error(self, capsys, tmp_path):
        # unit spread, and classes 1 and 3 about 1e155 from the observations:
        # their squared mean distances, and so their divergences, overflow
        rng = np.random.default_rng(1)
        centres = 1e155 * np.eye(3, 5)
        ds = Dataset(labeled=np.vstack([rng.normal(size=(20, 5)) + c for c in centres]),
                     labeled_classes=np.repeat([1, 2, 3], 20),
                     observations=rng.normal(size=(6, 5)) + centres[1], c=3)
        path = tmp_path / "far.csv"
        save_dataset(ds, path)
        code, out, err = run(capsys, "classify", "--classifier", "kld", "--input", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("error: class 1's divergence from the observation set leaves")

    @pytest.mark.parametrize("flags,message", [
        (("--classifier", "masc", "--sigma", "1e-3"),
         "every edge weight of node 1 underflows to 0: sigma 0.001 is too small"
         " for the nearest distance 0.653341"),
        (("--classifier", "lp", "--sigma", "1e-3"),
         "every edge weight of node 1 underflows to 0: sigma 0.001 is too small"
         " for the nearest distance 0.653341"),
        (("--classifier", "kmsm", "--sigma-kernel", "1e-3"),
         "every kernel value between observation 1 and a gallery row underflows to 0:"
         " sigma_kernel 0.001 is too small for the nearest distance 0.539179"),
        (("--classifier", "kmsm", "--sigma-kernel", "1e-200"),
         "sigma_kernel 1e-200 is out of range: 2*sigma*sigma must be a positive normal float"),
        (("--classifier", "masc", "--sigma", "1e-200"),
         "sigma 1e-200 is out of range: 2*sigma*sigma must be a positive normal float"),
    ], ids=["masc-1e-3", "lp-1e-3", "kmsm-1e-3", "kmsm-1e-200", "masc-1e-200"])
    def test_a_given_width_too_small_for_the_data_is_config_error(self, capsys, tmp_path,
                                                                   flags, message):
        # every weight or cross-kernel value of some node underflows to 0,
        # or 2 sigma² itself does; neither is classified
        path = str(tmp_path / "curved.csv")
        assert run(capsys, "synth", "--fixture", "curved-manifolds", "--true-class", "2",
                   "--m", "10", "--seed", "0", "--out", path)[0] == 0
        code, out, err = run(capsys, "classify", *flags, "--input", path)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("name,what", [
        ("masc", "edge weight of node 61"), ("lp", "edge weight of node 61"),
        ("kmsm", "kernel value between observation 1 and a gallery row")])
    def test_a_median_width_too_small_for_the_data_is_a_data_error(self, capsys, tmp_path,
                                                                    name, what):
        # three overlapping classes spread 1e-3 and observations 100 apart:
        # the median distance is the classes' own, and no weight reaches an
        # observation
        rng = np.random.default_rng(0)
        ds = Dataset(labeled=1e-3 * rng.normal(size=(60, 5)),
                     labeled_classes=np.repeat([1, 2, 3], 20),
                     observations=100.0 * np.vstack([np.eye(5), -np.eye(1, 5)]), c=3)
        path = tmp_path / "far.csv"
        save_dataset(ds, path)
        code, out, err = run(capsys, "classify", "--classifier", name, "--input", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: every {what} underflows to 0: the median heuristic's")
        assert " is too small for the nearest distance 99.99" in err

    def test_output_file_matches_stdout(self, capsys, blob_csv, tmp_path):
        out_path = tmp_path / "result.json"
        code, out, _ = run(capsys, "classify", "--input", blob_csv,
                           "--out", str(out_path))
        assert code == 0
        assert out_path.read_text(encoding="utf-8") == out

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_unwritable_output_file_is_config_error(self, capsys, blob_csv, tmp_path, where):
        out_path = tmp_path if where == "directory" else tmp_path / "nodir" / "x.json"
        code, out, err = run(capsys, "classify", "--input", blob_csv, "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: output file {out_path}: ")
        assert "Traceback" not in err


class TestConfigFile:
    def test_flags_override_file(self, capsys, blob_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 4, "classifier": "lp"}), encoding="utf-8")
        code, out, _ = run(capsys, "classify", "--config", str(cfg),
                           "--classifier", "masc", "--input", blob_csv)
        assert code == 0
        assert json.loads(out)["classifier"] == "masc"

    def test_unknown_field_rejected(self, capsys, blob_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kk": 4}), encoding="utf-8")
        code, _, err = run(capsys, "classify", "--config", str(cfg),
                           "--input", blob_csv)
        assert code == 2
        assert "unknown config field" in err


    def test_missing_config_file_is_config_error(self, capsys, blob_csv, tmp_path):
        path = tmp_path / "absent.json"
        code, out, err = run(capsys, "classify", "--config", str(path), "--input", blob_csv)
        assert code == 2
        assert out == ""
        assert f"config file {path}: No such file or directory" in err

    def test_directory_as_config_file_is_config_error(self, capsys, blob_csv, tmp_path):
        code, out, err = run(capsys, "classify", "--config", str(tmp_path), "--input", blob_csv)
        assert code == 2
        assert out == ""
        assert f"config file {tmp_path}: " in err

    @pytest.mark.parametrize("field,value", [
        ("k", 2.9), ("k", True), ("seed", 1.7), ("q", 1.5), ("r", True), ("trials", 2.5),
        ("sigma_sample_cap", 100.5), ("k", float("inf")), ("m_values", [1.5]),
        ("m_values", [True]), ("mu", True), ("energy_cutoff", False), ("sigma", True),
        ("sigma_kernel", True),
    ])
    def test_config_values_are_not_rounded(self, capsys, blob_csv, tmp_path, field, value):
        # a value the run would change (2.9 -> 2, true -> 1) is refused
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}), encoding="utf-8")
        code, out, err = run(capsys, "classify", "--config", str(cfg), "--input", blob_csv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("field,value,flag", [
        ("k", 3.0, ["--k", "3"]), ("seed", 2.0, ["--seed", "2"]),
        ("m_values", [4.0], ["--m-values", "4"]), ("mu", 2, ["--mu", "2"]),
    ])
    def test_integral_numbers_run_as_the_flag(self, capsys, blob_csv, tmp_path, field, value,
                                              flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value, "classifier": "lp"}), encoding="utf-8")
        code, out, _ = run(capsys, "classify", "--config", str(cfg), "--input", blob_csv)
        assert code == 0
        assert (code, out) == run(capsys, "classify", "--classifier", "lp", *flag,
                                  "--input", blob_csv)[:2]


class TestSweep:
    def test_deterministic_csv(self, capsys):
        argv = ("sweep", "--fixture", "rotated-rasters", "--classes", "3",
                "--m-values", "4,6", "--trials", "2", "--seed", "0")
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[0] == "m,classifier,mean_error,std_error,trials,seed"
        assert len(lines) == 3

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "sweep", "--fixture", "rotated-rasters",
                           "--classes", "3", "--m-values", "4", "--trials", "1",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["m"] == 4

    def test_bad_m_values(self, capsys):
        code, _, err = run(capsys, "sweep", "--m-values", "4,x", "--trials", "1")
        assert code == 2
        assert "m-values" in err

    @pytest.mark.parametrize("raw,threads", [(None, 1), ("3", 3)], ids=["unset", "3"])
    def test_msc_threads_sets_the_thread_count(self, capsys, monkeypatch, raw, threads):
        import masc.cli

        seen = []
        sweep = masc.cli.observation_sweep

        def spy(*args, threads, **kwargs):
            seen.append(threads)
            return sweep(*args, threads=threads, **kwargs)

        monkeypatch.setattr(masc.cli, "observation_sweep", spy)
        if raw is None:
            monkeypatch.delenv("MSC_THREADS", raising=False)
        else:
            monkeypatch.setenv("MSC_THREADS", raw)
        code, _, _ = run(capsys, "sweep", "--classes", "3", "--m-values", "4", "--trials", "2")
        assert code == 0
        assert seen == [threads]

    @pytest.mark.parametrize("raw,message", [
        ("zebra", "MSC_THREADS must be an integer, got 'zebra'"),
        ("0", "MSC_THREADS must be >= 1, got '0'"),
        ("-1", "MSC_THREADS must be >= 1, got '-1'"),
    ])
    def test_bad_msc_threads_is_config_error(self, capsys, monkeypatch, raw, message):
        monkeypatch.setenv("MSC_THREADS", raw)
        code, out, err = run(capsys, "sweep", "--classes", "3", "--m-values", "4",
                             "--trials", "1")
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_classify_ignores_msc_threads(self, capsys, monkeypatch, blob_csv):
        argv = ("classify", "--k", "3", "--input", blob_csv)
        monkeypatch.delenv("MSC_THREADS", raising=False)
        want = run(capsys, *argv)
        monkeypatch.setenv("MSC_THREADS", "zebra")
        assert run(capsys, *argv) == want
        assert want[0] == 0


class TestSessions:
    def make_session_files(self, tmp_path, seeds=(0, 1, 2)):
        paths = []
        for s in seeds:
            rng = np.random.default_rng(s)
            sets = [8.0 * np.eye(3)[c] + 0.3 * rng.normal(size=(10, 3))
                    for c in range(3)]
            path = tmp_path / f"session{s}.csv"
            save_gallery(sets, path)
            paths.append(str(path))
        return paths

    def test_pairs_mode(self, capsys, tmp_path):
        files = self.make_session_files(tmp_path)
        code, out, err = run(capsys, "sessions", "--classifier", "masc", "--k", "3",
                             "--r", "2", *files)
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "pairs"
        assert len(payload["errors"]) == 6
        assert payload["e_bar"] == 0.0
        assert "e_bar" in err

    def test_split_mode(self, capsys, tmp_path):
        files = self.make_session_files(tmp_path, seeds=(5,))
        code, out, _ = run(capsys, "sessions", "--mode", "split", "--train-count", "5",
                           "--trials", "3", "--k", "3", files[0])
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "split"
        assert payload["trials"] == 3
        assert payload["mean_error"] == 0.0

    def test_split_requires_train_count(self, capsys, tmp_path):
        files = self.make_session_files(tmp_path, seeds=(6,))
        code, _, err = run(capsys, "sessions", "--mode", "split", files[0])
        assert code == 2
        assert "train-count" in err

    def test_pairs_needs_two_files(self, capsys, tmp_path):
        files = self.make_session_files(tmp_path, seeds=(7,))
        code, _, _ = run(capsys, "sessions", files[0])
        assert code == 2

    def test_directory_as_gallery_is_a_data_error(self, capsys, tmp_path):
        files = self.make_session_files(tmp_path, seeds=(9,))
        code, out, err = run(capsys, "sessions", files[0], str(tmp_path))
        assert code == 3
        assert out == ""
        assert str(tmp_path) in err

    def test_class_count_mismatch_is_a_data_error(self, capsys, tmp_path):
        three = self.make_session_files(tmp_path, seeds=(8,))[0]
        four = tmp_path / "four.csv"
        save_gallery([8.0 * np.eye(3)[[c % 3] * 10] + 0.1 * c for c in range(4)], four)
        code, out, err = run(capsys, "sessions", three, str(four))
        assert code == 3
        assert out == ""
        assert "session 2 has 4 classes, expected 3" in err


class TestSynthAndGraph:
    def test_synth_then_classify(self, capsys, tmp_path):
        fix = tmp_path / "fix.csv"
        code, out, _ = run(capsys, "synth", "--fixture", "rotated-rasters",
                           "--classes", "4", "--m", "10", "--true-class", "3",
                           "--seed", "1", "--out", str(fix))
        assert code == 0
        assert fix.read_text(encoding="utf-8") == out
        code, out, _ = run(capsys, "classify", "--input", str(fix))
        assert code == 0
        assert json.loads(out)["decision"] == 3

    def test_synth_gallery(self, capsys, tmp_path):
        code, out, _ = run(capsys, "synth", "--fixture", "curved-manifolds",
                           "--gallery", "8", "--seed", "2")
        assert code == 0
        assert out.startswith("#d=20,c=3\n")
        assert len(out.strip().splitlines()) == 1 + 3 * 8

    def test_synth_bad_class(self, capsys):
        code, _, _ = run(capsys, "synth", "--classes", "3", "--true-class", "9")
        assert code == 2

    def test_graph_dump(self, capsys, blob_csv):
        code, out, _ = run(capsys, "graph", "--input", blob_csv, "--k", "2")
        assert code == 0
        first = out.splitlines()[0].split()
        assert int(first[0]) < int(first[1])
        assert float(first[2]) > 0.0

    def test_graph_deterministic(self, capsys, blob_csv):
        _, out1, _ = run(capsys, "graph", "--input", blob_csv, "--k", "3")
        _, out2, _ = run(capsys, "graph", "--input", blob_csv, "--k", "3")
        assert out1 == out2


def test_defaults_pinned():
    from masc.cli import ExperimentConfig
    from masc.fixtures import _THETA_RANGE

    cfg = ExperimentConfig()
    assert cfg.k == 5
    assert cfg.q == 9
    assert cfg.energy_cutoff == 0.96
    assert cfg.trials == 100
    assert cfg.mu == 1.0
    assert cfg.sigma is None and cfg.sigma_kernel is None  # median heuristic
    assert _THETA_RANGE == (-40.0, 40.0)


def test_every_classifier_keyword_is_reachable(monkeypatch):
    # a make_classifier keyword the CLI never sets is an option no caller has
    import inspect

    import masc.cli
    from masc.cli import ExperimentConfig
    from masc.evaluate import make_classifier

    seen = {}
    monkeypatch.setattr(masc.cli, "make_classifier",
                        lambda name, **kwargs: seen.update(kwargs))
    masc.cli._classifier_from(ExperimentConfig())
    assert set(seen) == set(inspect.signature(make_classifier).parameters) - {"name"}


@pytest.mark.parametrize("fixture,config", [("rotated-rasters", "RotatedRasterConfig"),
                                            ("curved-manifolds", "CurvedManifoldConfig")])
def test_every_fixture_field_is_reachable(monkeypatch, capsys, tmp_path, fixture, config):
    # a fixture config field no CLI argument sets is an option no caller has
    import dataclasses

    import masc.fixtures

    real = getattr(masc.fixtures, config)
    seen = {}

    def spy(**kwargs):
        seen.update(kwargs)
        return real(**kwargs)

    monkeypatch.setattr(masc.fixtures, config, spy)
    code, _, _ = run(capsys, "synth", "--fixture", fixture, "--classes", "3", "--seed", "1",
                     "--gallery", "2", "--out", str(tmp_path / "gallery.csv"))
    assert code == 0
    assert set(seen) == {f.name for f in dataclasses.fields(real)}


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["classify", "--help"]) == 0


def test_unknown_subcommand_exits_two(capsys):
    assert main(["dance"]) == 2
