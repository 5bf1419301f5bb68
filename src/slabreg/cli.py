"""Command-line front end.

Subcommands: fit, transduce, bounds, experiment. Shared flags: --config PATH,
--seed U64, --threads N, --out DIR; ``bounds`` also takes --json. Flag values
override config-file values and the fully resolved configuration is echoed
into every artifact.
Exit codes: 0 ok, 2 config error, 3 data error, 4 numerical error, 5 budget.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, bounds, data, dictionary, experiments, moments, selector
from .errors import BudgetError, ConfigError, DataError, SlabregError, json_number


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return obj


def _resolve(args):
    """The config file with every flag given on the command line laid over it,
    each under its own name; --json only shapes stdout."""
    flags = vars(args)
    config = _load_config(flags["config"])
    for key, value in flags.items():
        if value is not None and key not in ("command", "func", "config", "json"):
            config[key] = value
    config["seed"] = _seed(config, "seed", 0)
    config["threads"] = json_number(config.get("threads", 1), "threads", int)
    config.setdefault("out", ".")
    return config


def _number(obj: dict, key: str, default, where: str = "", kind=float):
    """``obj[key]``, or ``default`` when absent, read as a number; None stays
    None. A malformed value is a ConfigError naming ``where + key``."""
    value = obj.get(key, default)
    return None if value is None else json_number(value, where + key, kind)


def _seed(obj: dict, key: str, default, where: str = "") -> int:
    """``obj[key]``, or ``default`` when absent, read as a seed: a
    non-negative integer (numpy's SeedSequence takes no other)."""
    seed = json_number(obj.get(key, default), where + key, int)
    if seed < 0:
        raise ConfigError(f"{where}{key} must be a non-negative integer, got {seed}")
    return seed


def _echoed(config):
    """Resolved config as embedded in artifacts.

    Thread count and output location are execution details: results are
    identical at any thread count by construction, so echoing them would
    break byte-identical artifacts across equivalent runs.
    """
    return {k: v for k, v in config.items() if k not in ("threads", "out")}


def _parse_inline_json(text, what):
    """A spec given inline as a JSON string or already as an object."""
    if isinstance(text, str):
        try:
            text = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(text, dict):
        raise ConfigError(f"{what} must be a JSON object, got {text!r}")
    return text


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def _write(path: Path, payload: bytes):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(payload)


def _bound_spec(config) -> bounds.BoundSpec:
    obj = config.get("bound")
    if obj is None:
        raise ConfigError("missing 'bound' specification ({variant, epsilon, ...})")
    obj = _parse_inline_json(obj, "bound spec")
    if "epsilon" not in obj and config.get("epsilon") is not None:
        obj = {**obj, "epsilon": config["epsilon"]}
    return bounds.BoundSpec.from_json_dict(obj)


def _dictionary(config) -> dictionary.FeatureDictionary:
    obj = config.get("dictionary")
    if obj is None:
        raise ConfigError("missing 'dictionary' specification ({kind, m, parameters})")
    return dictionary.from_spec(_parse_inline_json(obj, "dictionary spec"))


def _inductive_moments(config, family, seed):
    spec = config.get("moments", {"kind": "exact"})
    spec = _parse_inline_json(spec, "moments spec")
    kind = spec.get("kind", "exact")
    if kind == "exact":
        return moments.exact_moments(family)
    if kind == "monte_carlo":
        sampler = moments.uniform_sampler(
            _number(spec, "low", 0.0, "moments."),
            _number(spec, "high", 1.0, "moments."),
            _number(spec, "dim", 1, "moments.", int),
        )
        return moments.monte_carlo_moments(
            family,
            sampler,
            _number(spec, "n_samples", 100_000, "moments.", int),
            _seed(spec, "seed", seed, "moments."),
        )
    if kind == "file":
        if "path" not in spec:
            raise ConfigError("moments kind 'file' needs a 'path'")
        gram = moments.load_gram_csv(spec["path"])
        if gram.m != family.m:
            raise ConfigError(f"gram file covers {gram.m} features, dictionary has {family.m}")
        return gram
    raise ConfigError(f"unknown moments kind {kind!r} (exact, monte_carlo, file)")


def _loo_arguments(config, family):
    if isinstance(family, dictionary.MultiscaleGaussian):
        return family.center_train_indices
    loo = config.get("loo_index")
    if loo is None:
        return None
    if not isinstance(loo, list):
        raise ConfigError(f"loo_index must be a list of training indices, got {loo!r}")
    return np.asarray([json_number(i, "loo_index", int) for i in loo], dtype=int)


def _with_test_block(x_train, y, x_test) -> data.Dataset:
    """Training rows stacked over a test block of k N rows, k >= 1."""
    if x_test.shape[1] != x_train.shape[1]:
        raise DataError(f"train has dimension {x_train.shape[1]}, test has {x_test.shape[1]}")
    n, rows = x_train.shape[0], x_test.shape[0]
    if n == 0 or rows == 0 or rows % n:
        raise DataError(f"test rows ({rows}) must be a positive multiple of train rows ({n})")
    return data.Dataset(x=np.vstack([x_train, x_test]), y=y)


def _summary_text(model: selector.SelectionModel, head: int = 10) -> str:
    lines = [
        f"stopped_at: {model.stopped_at}",
        f"selected features (1-based): {model.selected.tolist()}",
        "trace head (n, feature, gamma, tau, delta, update):",
    ]
    for record in model.trace[:head]:
        lines.append(
            f"  {record.n} {record.feature} {record.gamma!r} {record.tau!r} "
            f"{record.delta!r} {record.update!r}"
        )
    return "\n".join(lines) + "\n"


def cmd_fit(args) -> int:
    """``fit`` and ``transduce``: one pipeline, which branches only on the
    geometry, that is on whether a test block joins the training rows."""
    config = _resolve(args)
    transductive = args.command == "transduce"
    for key in ("train", "test") if transductive else ("train",):
        if key not in config:
            raise ConfigError(f"{args.command} needs a '{key}' file")
    x, y = data.load_labeled_csv(config["train"])
    out = Path(config["out"])
    if transductive:
        x_test = data.load_unlabeled_csv(config["test"])
        if x_test.shape[0] == 0:
            sys.stderr.write("warning: empty test file, writing empty predictions\n")
            out.mkdir(parents=True, exist_ok=True)
            data.write_predictions_csv(out / "predictions.csv", np.empty(0))
            return 0
        ds = _with_test_block(x, y, x_test)
    else:
        ds = data.Dataset(x=x, y=y)
    family = _dictionary(config)
    spec = _bound_spec(config)
    if spec.transductive != transductive:
        raise ConfigError(f"variant {spec.variant} needs the {'transduce' if spec.transductive else 'fit'} command")
    if transductive:
        blocks = bounds.split_features(family, ds)
        mom = moments.empirical_test_moments(blocks.test)
    else:
        blocks, mom = None, _inductive_moments(config, family, config["seed"])
    model = selector.run_selection(
        ds,
        family,
        mom,
        spec,
        kappa=config.get("kappa"),
        schedule=config.get("schedule", "GreedyMax"),
        loo_index=_loo_arguments(config, family),
        seed=config["seed"],
        blocks=blocks,
    )
    payload = model.to_json_dict()
    payload["config"] = _echoed(config)
    _write(out / "model.json", _json_bytes(payload))
    summary = _summary_text(model)
    _write(out / "summary.txt", summary.encode())
    if transductive:
        data.write_predictions_csv(out / "predictions.csv", blocks.test @ model.coefficients)
    sys.stdout.write(summary)
    return 0


def _bounds_table(config):
    x, y = data.load_labeled_csv(config["train"])
    family = _dictionary(config)
    bound = _parse_inline_json(config.get("bound", {}), "bound spec")
    variants = config.get("variants") or [_bound_spec(config).variant]
    specs = [_bound_spec({**config, "bound": {**bound, "variant": name}}) for name in variants]
    test_path = config.get("test")
    transductive = any(s.transductive for s in specs)
    if transductive:
        if test_path is None:
            raise ConfigError("transductive bound variants need a 'test' file")
        ds = _with_test_block(x, y, data.load_unlabeled_csv(test_path))
    else:
        ds = data.Dataset(x=x, y=y)
    # Only the empirical test Gram reads the test block.
    features = bounds.split_features(family, ds) if transductive else family
    loo_index = _loo_arguments(config, family)
    stats = bounds.compute_stats(features, ds, [spec.variant for spec in specs], loo_index=loo_index)
    geometries = {}  # spec.transductive -> moments, each built on first use
    columns = {}
    for spec in specs:
        if spec.transductive not in geometries:
            geometries[spec.transductive] = (
                moments.empirical_test_moments(features.test)
                if spec.transductive
                else _inductive_moments(config, family, config["seed"])
            )
        mom = geometries[spec.transductive]
        columns[spec.variant] = bounds.compute_radius(spec, stats, mom)
    mom0 = geometries[specs[0].transductive]
    ahat = bounds.alpha_hat(stats)
    ratio = bounds.normalization_ratio(stats, mom0)

    def cell(value):
        value = float(value)
        # degenerate features yield NaN/inf cells; strict JSON has no literal
        return value if np.isfinite(value) else None

    rows = []
    for k in range(stats.m):
        row = {
            "feature": k + 1,
            "v": cell(mom0.diag[k]),
            "alpha_hat": cell(ahat[k]),
            "c_ratio": cell(ratio[k]),
        }
        for name, radius in columns.items():
            row[f"beta[{name}]"] = cell(radius.beta[k])
            row[f"tau[{name}]"] = cell(radius.tau[k])
        rows.append(row)
    return rows


def cmd_bounds(args) -> int:
    config = _resolve(args)
    if "train" not in config:
        raise ConfigError("bounds needs a labeled training file ('train')")
    rows = _bounds_table(config)
    if args.json:
        sys.stdout.write(_json_bytes({"config": _echoed(config), "rows": rows}).decode())
        return 0
    header = list(rows[0].keys())
    sys.stdout.write("\t".join(header) + "\n")
    for row in rows:
        sys.stdout.write("\t".join(repr(row[h]) if isinstance(row[h], float) else str(row[h]) for h in header) + "\n")
    return 0


# The defaults of the studies that have no grid, for the keys the config omits.
STUDY_DEFAULTS = {
    "coverage": {"N": 128, "m": 64, "variant": "IndExact", "epsilon": 0.25, "replicates": 500, "k_test": None},
    "transductive": {"N": 64, "m": 32, "variant": "TrBasicBounded", "epsilon": 0.1, "replicates": 100, "k_test": 1},
}


def _study_number(config, key, kind=int):
    """A study's ``key``, or its default when the config omits it; null is
    not a number (only ``k_test`` may be null, and is read with ``_number``)."""
    return json_number(config.get(key, STUDY_DEFAULTS[config["kind"]][key]), key, kind)


def _default_truth_size(config) -> int:
    """Coefficients of a sobolev truth whose config gives no ``size``: the
    largest grid size for rate runs, max(N, m) for the other studies."""
    if config["kind"] in STUDY_DEFAULTS:
        return max(_study_number(config, "N"), _study_number(config, "m"))
    return max(config["grid"])


def _experiment_model(config) -> experiments.SyntheticModel:
    spec = config.get("model")
    if spec is not None:
        spec = _parse_inline_json(spec, "model spec")
        if "coefficients" in spec:
            return experiments.SyntheticModel.from_spec(spec)
        noise = experiments.NoiseSpec.from_spec(spec.get("noise", {"kind": "uniform", "scale": 0.05}))
        kind = spec.get("kind", "sobolev")
        smoothness = _number(spec, "smoothness", 1.0, "model.")
        scale = _number(spec, "scale", 1.0, "model.")
        if kind == "sobolev":
            return experiments.sobolev_model(
                smoothness=smoothness,
                size=_number(spec, "size", _default_truth_size(config), "model.", int),
                scale=scale,
                noise=noise,
            )
        if kind == "besov":
            return experiments.besov_spike_model(
                smoothness=smoothness,
                levels=_number(spec, "levels", 11, "model.", int),
                scale=scale,
                noise=noise,
                seed=_seed(spec, "seed", 0, "model."),
            )
        raise ConfigError(f"unknown model kind {kind!r}")
    return experiments.sobolev_model(size=_default_truth_size(config))


def cmd_experiment(args) -> int:
    config = _resolve(args)
    kind = config.get("kind")
    if kind not in ("rate-sobolev", "rate-besov", "coverage", "transductive"):
        raise ConfigError(
            "experiment kind must be one of rate-sobolev, rate-besov, coverage, transductive"
        )
    threads, seed = config["threads"], config["seed"]
    started = time.monotonic()
    if kind in ("rate-sobolev", "rate-besov"):
        grid = config.get("grid", [64, 128, 256, 512, 768, 1024, 1536, 2048, 3072, 4096])
        if not isinstance(grid, list) or not grid:
            raise ConfigError(f"grid must be a nonempty list of sample sizes, got {grid!r}")
        config["grid"] = grid = [json_number(n, "grid", int) for n in grid]
        if kind == "rate-besov" and "model" not in config:
            config["model"] = {"kind": "besov", "levels": max(grid).bit_length() - 1}
        model = _experiment_model(config)
        report = experiments.rate_experiment(
            model,
            grid,
            replicates=json_number(config.get("replicates", 20), "replicates", int),
            seed=seed,
            sigma_scale=_number(config, "sigma_scale", 1.0),
            threads=threads,
            budget_seconds=_number(config, "budget_seconds", None),
        )
        report.kind = kind
    else:
        study = experiments.coverage_study if kind == "coverage" else experiments.transductive_experiment
        report = study(
            model=_experiment_model(config),
            n_train=_study_number(config, "N"),
            m=_study_number(config, "m"),
            variant=config.get("variant", STUDY_DEFAULTS[kind]["variant"]),
            epsilon=_study_number(config, "epsilon", float),
            replicates=_study_number(config, "replicates"),
            k_test=_number(config, "k_test", STUDY_DEFAULTS[kind]["k_test"], kind=int),
            seed=seed,
            threads=threads,
        )
    out = Path(config["out"])
    payload = report.to_json_dict()
    payload["config_resolved"] = _echoed(config)
    payload["tool_version"] = __version__
    _write(out / "report.json", _json_bytes(payload))
    _write(out / "report.csv", report.csv_text().encode())
    sys.stderr.write(
        f"{kind}: {len(report.rows)} rows in {time.monotonic() - started:.1f}s"
        f"{' (partial)' if report.partial else ''}\n"
    )
    if report.partial:
        raise BudgetError("wall-clock budget exceeded; the report is flagged partial")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slabreg",
        description="Iterative feature selection by projection onto confidence slabs",
    )
    parser.add_argument("--version", action="version", version=f"slabreg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {
        "fit": (cmd_fit, "fit an inductive selection model"),
        "transduce": (cmd_fit, "fit on labeled data and predict unlabeled test labels"),
        "bounds": (cmd_bounds, "tabulate per-feature radii"),
        "experiment": (cmd_experiment, "run a rate, coverage or transductive experiment"),
    }
    # Each flag once: its argparse options and the subcommands that take it.
    # Every flag but --config and --json lands in the config under its dest.
    every, data_commands = tuple(commands), ("fit", "transduce", "bounds")
    flags = [
        ("--config", {"help": "JSON config file; flags override its values"}, every),
        ("--seed", {"type": int, "help": "base seed (default 0)"}, every),
        ("--threads", {"type": int, "help": "worker threads for experiment replicates (default 1); "
                       "fit, transduce and bounds accept it and run on one thread"}, every),
        ("--out", {"help": "output directory (default .)"}, every),
        ("--train", {"help": "labeled CSV (x1..xd,y)"}, data_commands),
        ("--test", {"help": "unlabeled CSV (x1..xd)"}, ("transduce", "bounds")),
        ("--dictionary", {"help": "inline dictionary spec JSON"}, data_commands),
        ("--bound", {"help": "inline bound spec JSON"}, data_commands),
        ("--epsilon", {"type": float}, data_commands),
        ("--kappa", {"type": float}, ("fit", "transduce")),
        ("--schedule", {"choices": selector.SCHEDULES}, ("fit", "transduce")),
        ("--variant", {"dest": "variants", "metavar": "VARIANT", "action": "append",
                       "help": "repeatable; adds a beta/tau column per variant"}, ("bounds",)),
        ("--json", {"action": "store_true", "help": "machine-readable stdout"}, ("bounds",)),
        ("--kind", {"choices": ["rate-sobolev", "rate-besov", "coverage", "transductive"]}, ("experiment",)),
    ]
    for name, (func, text) in commands.items():
        command = sub.add_parser(name, help=text)
        for flag, options, takers in flags:
            if name in takers:
                command.add_argument(flag, **options)
        command.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SlabregError as exc:
        label = type(exc).__name__.removesuffix("Error").lower()
        sys.stderr.write(f"{label} error: {exc}\n")
        return exc.exit_code


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
