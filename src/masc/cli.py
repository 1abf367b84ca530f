"""Experiment command line: classify, sweep, sessions, synth, graph."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .data import DataError, dataset_to_csv, gallery_to_csv, load_dataset, load_gallery
from .evaluate import (
    CLASSIFIERS,
    make_classifier,
    observation_sweep,
    random_split_errors,
    session_metric,
    session_pair_errors,
    sweep_to_csv,
    sweep_to_json,
)
from .fixtures import FIXTURES, make_fixture
from .graph import GraphConfig, build_knn_graph, dump_edges


class ConfigError(ValueError):
    """Invalid configuration value or unknown config field."""


@dataclass(frozen=True)
class ExperimentConfig:
    classifier: str = "masc"
    k: int = 5
    sigma: float | None = None          # None selects the median heuristic
    sigma_sample_cap: int = 1000
    mu: float = 1.0
    q: int = 9
    sigma_kernel: float | None = None   # None selects the median heuristic
    energy_cutoff: float = 0.96
    r: int = 1
    m_values: tuple[int, ...] = (10, 30, 50, 70, 90, 110, 130, 150)
    trials: int = 100
    seed: int = 0
    input: str | None = None
    output: str | None = None

    def validate(self) -> "ExperimentConfig":
        if self.classifier not in CLASSIFIERS:
            raise ConfigError(f"classifier must be one of {CLASSIFIERS}")
        if self.k < 1:
            raise ConfigError("k >= 1 required")
        if self.sigma is not None and not self.sigma > 0:
            raise ConfigError("sigma must be 'median' or a positive number")
        if self.sigma_sample_cap < 2:
            raise ConfigError("sigma-sample-cap >= 2 required")
        if not self.mu > 0:
            raise ConfigError("mu > 0 required")
        if self.q < 1:
            raise ConfigError("q >= 1 required")
        if self.sigma_kernel is not None and not self.sigma_kernel > 0:
            raise ConfigError("sigma-kernel must be 'median' or a positive number")
        if not 0 < self.energy_cutoff <= 1:
            raise ConfigError("energy-cutoff must be in (0, 1]")
        if self.r < 1:
            raise ConfigError("r >= 1 required")
        if not self.m_values or any(m < 1 for m in self.m_values):
            raise ConfigError("m-values must be a nonempty list of integers >= 1")
        if self.trials < 1:
            raise ConfigError("trials >= 1 required")
        if self.seed < 0:
            raise ConfigError("seed >= 0 required")
        return self


_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}


def _parse_sigma(value, name: str):
    if value is None:
        return None
    if isinstance(value, str):
        if value == "median":
            return None
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"{name} must be 'median' or a number, got {value!r}") from None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{name} must be 'median' or a number, got {value!r}")


def _parse_m_values(value):
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
        try:
            return tuple(int(p) for p in parts)
        except ValueError:
            raise ConfigError(f"m-values must be comma-separated integers, got {value!r}") from None
    if isinstance(value, (list, tuple)):
        try:
            if any(_rounds(v, int) for v in value):
                raise ValueError
            return tuple(int(v) for v in value)
        except (TypeError, ValueError):
            raise ConfigError(f"m-values must be integers, got {value!r}") from None
    raise ConfigError(f"m-values must be a list of integers, got {value!r}")


def _rounds(value, kind) -> bool:
    """Whether ``kind(value)`` would run with another value than the config
    file holds: a boolean read as 0 or 1, or a fraction cut off an int."""
    return isinstance(value, bool) or (
        kind is int and isinstance(value, float) and not value.is_integer())


def _coerce(name: str, value, kind):
    if value is None:
        return None
    try:
        if _rounds(value, kind):
            raise ValueError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be of type {kind.__name__}, got {value!r}") from None


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """defaults < config file < explicit flags, unknown fields rejected."""
    values = {f.name: f.default for f in fields(ExperimentConfig)}
    path = getattr(args, "config", None)
    if path:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:  # missing, a directory, unreadable
            raise ConfigError(f"config file {path}: {exc.strerror or exc}") from None
        except ValueError as exc:  # not UTF-8 or not JSON
            raise ConfigError(f"config file {path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path}: expected a JSON object")
        for key, val in raw.items():
            if key not in _CONFIG_FIELDS:
                raise ConfigError(f"unknown config field {key!r}")
            values[key] = val
    for name in _CONFIG_FIELDS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    values["classifier"] = str(values["classifier"])
    values["sigma"] = _parse_sigma(values["sigma"], "sigma")
    values["sigma_kernel"] = _parse_sigma(values["sigma_kernel"], "sigma-kernel")
    values["m_values"] = _parse_m_values(values["m_values"])
    for name in ("k", "sigma_sample_cap", "q", "r", "trials", "seed"):
        values[name] = _coerce(name, values[name], int)
    for name in ("mu", "energy_cutoff"):
        values[name] = _coerce(name, values[name], float)
    for name in ("input", "output"):
        if values[name] is not None:
            values[name] = str(values[name])
    return ExperimentConfig(**values).validate()


def _classifier_from(cfg: ExperimentConfig):
    return make_classifier(
        cfg.classifier,
        k=cfg.k,
        sigma=cfg.sigma,
        sigma_sample_cap=cfg.sigma_sample_cap,
        sigma_seed=cfg.seed,
        mu=cfg.mu,
        q=cfg.q,
        sigma_kernel=cfg.sigma_kernel,
        energy_cutoff=cfg.energy_cutoff,
    )


def _emit(text: str, output: str | None) -> None:
    """Write ``text`` to the file ``output``, if given, and then to stdout,
    so a run whose file cannot be written prints no payload."""
    if output:
        try:
            Path(output).write_text(text, encoding="utf-8")
        except OSError as exc:  # a directory, a missing parent, unwritable
            raise ConfigError(f"output file {output}: {exc.strerror or exc}") from None
    sys.stdout.write(text)


def _require_input(cfg: ExperimentConfig) -> str:
    if not cfg.input:
        raise ConfigError("--input is required")
    return cfg.input


def cmd_classify(cfg: ExperimentConfig, args) -> int:
    ds = load_dataset(_require_input(cfg))
    decision = _classifier_from(cfg)(ds.train_sets(), ds.observations)
    payload = {
        "classifier": cfg.classifier,
        "decision": decision.decision,
        "scores": [float(s) for s in decision.scores],
        "tie": decision.tie,
        "n": ds.n,
        "l": ds.l + ds.n_virtual,
        "m": ds.m,
        "c": ds.c,
        "seed": cfg.seed,
    }
    _emit(json.dumps(payload) + "\n", cfg.output)
    print(
        f"decision: class {decision.decision} of {ds.c}"
        f" (classifier={cfg.classifier}, n={ds.n}, tie={decision.tie})",
        file=sys.stderr,
    )
    return 0


def _sweep_threads() -> int:
    """The sweep's thread count from MSC_THREADS, an integer >= 1; unset
    means 1. Every count gives the same output."""
    raw = os.environ.get("MSC_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        raise ConfigError(f"MSC_THREADS must be an integer, got {raw!r}") from None
    if threads < 1:
        raise ConfigError(f"MSC_THREADS must be >= 1, got {raw!r}")
    return threads


def cmd_sweep(cfg: ExperimentConfig, args) -> int:
    fixture = make_fixture(args.fixture, classes=args.classes, seed=cfg.seed)
    reports = observation_sweep(
        fixture.make_instance,
        _classifier_from(cfg),
        fixture.classes,
        cfg.m_values,
        cfg.trials,
        cfg.seed,
        classifier_name=cfg.classifier,
        threads=_sweep_threads(),
    )
    text = sweep_to_json(reports) if args.format == "json" else sweep_to_csv(reports)
    _emit(text, cfg.output)
    for r in reports:
        print(
            f"m={r.m}: mean_error={r.mean_error:.4f} std={r.std_error:.4f}"
            f" over {r.trials} trials",
            file=sys.stderr,
        )
    return 0


def cmd_sessions(cfg: ExperimentConfig, args) -> int:
    galleries = [load_gallery(f) for f in args.files]
    classifier = _classifier_from(cfg)
    if args.mode == "pairs":
        if len(galleries) < 2:
            raise ConfigError("pairs mode needs at least 2 session files")
        errors = session_pair_errors(galleries, classifier, r=cfg.r)
        e_bar = session_metric(errors, sessions=len(galleries))
        payload = {
            "classifier": cfg.classifier,
            "mode": "pairs",
            "r": cfg.r,
            "sessions": len(galleries),
            "classes": len(galleries[0]),
            "errors": {f"{i},{j}": errors[(i, j)] for (i, j) in sorted(errors)},
            "e_bar": e_bar,
            "seed": cfg.seed,
        }
        summary = f"e_bar={e_bar:.4f} over {len(errors)} ordered session pairs"
    else:
        if len(galleries) != 1:
            raise ConfigError("split mode takes exactly one gallery file")
        if args.train_count is None:
            raise ConfigError("--train-count is required in split mode")
        report = random_split_errors(
            galleries[0], classifier, args.train_count, cfg.trials, cfg.seed, r=cfg.r
        )
        payload = {
            "classifier": cfg.classifier,
            "mode": "split",
            "train_count": report.train_count,
            "trials": report.trials,
            "r": report.r,
            "errors": list(report.errors),
            "mean_error": report.mean_error,
            "std_error": report.std_error,
            "seed": cfg.seed,
        }
        summary = (
            f"mean_error={report.mean_error:.4f} std={report.std_error:.4f}"
            f" over {report.trials} random splits"
        )
    _emit(json.dumps(payload) + "\n", cfg.output)
    print(summary, file=sys.stderr)
    return 0


def cmd_synth(cfg: ExperimentConfig, args) -> int:
    fixture = make_fixture(args.fixture, classes=args.classes, seed=cfg.seed)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, args.true_class]))
    if args.gallery is not None:
        if args.gallery < 1:
            raise ConfigError("--gallery must be >= 1")
        text = gallery_to_csv(fixture.gallery(args.gallery, rng))
        what = f"gallery with {args.gallery} samples per class"
    else:
        if args.m < 1:
            raise ConfigError("--m must be >= 1")
        if not 1 <= args.true_class <= fixture.classes:
            raise ConfigError(f"--true-class must be in 1..{fixture.classes}")
        text = dataset_to_csv(fixture.make_dataset(args.true_class, args.m, rng))
        what = f"dataset with m={args.m} observations of class {args.true_class}"
    _emit(text, cfg.output)
    print(f"synth {args.fixture}: {what}", file=sys.stderr)
    return 0


def cmd_graph(cfg: ExperimentConfig, args) -> int:
    ds = load_dataset(_require_input(cfg))
    g = build_knn_graph(
        ds.stacked(),
        GraphConfig(
            k=cfg.k,
            sigma=cfg.sigma,
            sigma_sample_cap=cfg.sigma_sample_cap,
            sigma_seed=cfg.seed,
        ),
    )
    _emit(dump_edges(g), cfg.output)
    print(
        f"graph: n={g.n} edges={g.H.nnz // 2} k={g.k} sigma={g.sigma:.6g}",
        file=sys.stderr,
    )
    return 0


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; explicit flags override it")
    p.add_argument("--classifier", choices=CLASSIFIERS)
    p.add_argument("--k", type=int, help="neighbor count (default 5)")
    p.add_argument("--sigma", help="'median' or a positive number (default median)")
    p.add_argument("--sigma-sample-cap", dest="sigma_sample_cap", type=int)
    p.add_argument("--mu", type=float, help="label-propagation fitness weight (default 1)")
    p.add_argument("--q", type=int, help="subspace dimension (default 9)")
    p.add_argument("--sigma-kernel", dest="sigma_kernel",
                   help="'median' or a positive number (default median)")
    p.add_argument("--energy-cutoff", dest="energy_cutoff", type=float,
                   help="covariance energy cutoff (default 0.96)")
    p.add_argument("--r", type=int, help="re-sampling step (default 1)")
    p.add_argument("--m-values", dest="m_values", help="comma-separated observation counts")
    p.add_argument("--trials", type=int, help="trials per setting (default 100)")
    p.add_argument("--seed", type=int, help="master RNG seed (default 0)")
    p.add_argument("--out", dest="output", help="also write the stdout payload to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="masc",
        description="Graph-based classification of multiple-observation sets and baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify one dataset file, JSON to stdout")
    _add_config_flags(p)
    p.add_argument("--input", help="dataset CSV")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sweep", help="observation-count sweep on a synthetic fixture")
    _add_config_flags(p)
    p.add_argument("--fixture", choices=FIXTURES, default="rotated-rasters")
    p.add_argument("--classes", type=int, help="fixture class count override")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("sessions", help="session-pair protocol or random-split protocol")
    _add_config_flags(p)
    p.add_argument("files", nargs="+", help="gallery CSVs (one per session)")
    p.add_argument("--mode", choices=("pairs", "split"), default="pairs")
    p.add_argument("--train-count", dest="train_count", type=int,
                   help="training samples per class (split mode)")
    p.set_defaults(func=cmd_sessions)

    p = sub.add_parser("synth", help="emit a synthetic fixture dataset or gallery CSV")
    _add_config_flags(p)
    p.add_argument("--fixture", choices=FIXTURES, default="rotated-rasters")
    p.add_argument("--classes", type=int, help="fixture class count override")
    p.add_argument("--m", type=int, default=40, help="observation count (dataset mode)")
    p.add_argument("--true-class", dest="true_class", type=int, default=1)
    p.add_argument("--gallery", type=int,
                   help="emit a labelled-only gallery with this many samples per class")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("graph", help="dump the k-NN edge list of a dataset file")
    _add_config_flags(p)
    p.add_argument("--input", help="dataset CSV")
    p.set_defaults(func=cmd_graph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if isinstance(code, int):
            return code
        return 2 if code else 0
    try:
        cfg = build_config(args)
        return args.func(cfg, args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
