"""Command-line front end.

Subcommands: fit, transduce, bounds, experiment. Shared flags: --config PATH,
--seed U64, --threads N, --out DIR; ``bounds`` also takes --json. Flag values
override config-file values. ``model.json`` and the ``bounds --json`` table
echo the config file with its flags and the resolved seed; an experiment's
``report.json`` echoes its config with every default filled in.
Exit codes: 0 ok, 2 config error, 3 data error, 4 numerical error, 5 budget.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, bounds, data, dictionary, experiments, moments, selector
from .errors import DIM_CAP, K_TEST_CAP, N_SAMPLES_CAP, REPLICATES_CAP, REQUIRED, SIZE_CAP, THREADS_CAP
from .errors import BudgetError, ConfigError, DataError, SlabregError, dense_gram
from .errors import choice, count, list_of, number, optional, path, probability, read, read_kind, seed, spec_object, spec_of, text


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:  # a directory, a socket, an unreadable file
        raise ConfigError(f"config file {path} cannot be read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: byte {exc.start} cannot be decoded") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return obj


# The keys every subcommand reads, from its flags or its config file.
COMMON_KEYS = {"seed": (seed, 0), "threads": (count(THREADS_CAP), 1), "out": (text, ".")}
# The keys of each kind of inductive moments.
MOMENTS_KEYS = {
    "exact": {},
    "monte_carlo": {
        "low": (number, 0.0),
        "high": (number, 1.0),
        "dim": (count(DIM_CAP), 1),
        "n_samples": (count(N_SAMPLES_CAP), 100_000),
        "seed": (seed, None),  # the run's seed
    },
    "file": {"path": (path, REQUIRED)},
}
# The keys of fit, transduce and bounds, each spec read by its own reader
# (bounds reads its bound spec once per variant).
DATA_KEYS = {
    **COMMON_KEYS,
    "train": (path, REQUIRED),
    "dictionary": (spec_of(dictionary.from_spec), REQUIRED),
    "loo_index": (optional(list_of(count(SIZE_CAP, low=0))), None),
}
FIT_KEYS = {
    **DATA_KEYS,
    "bound": (spec_of(bounds.BoundSpec.from_json_dict), REQUIRED),
    "kappa": (optional(number), None),
    "schedule": (choice(*selector.SCHEDULES), "GreedyMax"),
}
_read_moments = partial(read_kind, tables=MOMENTS_KEYS, where="moments.", default="exact")
INDUCTIVE_KEYS = {"moments": (spec_of(_read_moments), ("exact", {}))}
COMMAND_KEYS = {
    "fit": {**FIT_KEYS, **INDUCTIVE_KEYS},
    "transduce": {**FIT_KEYS, "test": (path, REQUIRED)},
    "bounds": {**DATA_KEYS, **INDUCTIVE_KEYS, "bound": (spec_object, {}), "test": (optional(path), None),
               "variants": (optional(list_of(text)), None)},
}


def _resolve(args):
    """The config file with every flag given on the command line laid over it,
    each under its own name; --json only shapes stdout."""
    flags = vars(args)
    config = _load_config(flags["config"])
    for key, value in flags.items():
        if value is not None and key not in ("command", "func", "config", "json"):
            config[key] = value
    return config


def _echoed(config):
    """Resolved config as embedded in artifacts.

    Thread count and output location are execution details: results are
    identical at any thread count by construction, so echoing them would
    break byte-identical artifacts across equivalent runs.
    """
    return {k: v for k, v in config.items() if k not in ("threads", "out")}


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def _write(path: Path, payload: bytes):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(payload)


def _inductive_moments(values):
    """The design moments of the config's ``moments``, for ``bounds.sample_geometry``
    to build when the fit is inductive."""
    (kind, spec), family, seed = values["moments"], values["dictionary"], values["seed"]
    if kind == "exact":
        return moments.exact_moments(family)
    if kind == "monte_carlo":
        sampler = moments.uniform_sampler(spec["low"], spec["high"], spec["dim"])
        seed = seed if spec["seed"] is None else spec["seed"]
        return moments.monte_carlo_moments(family, sampler, spec["n_samples"], seed)
    gram = moments.load_gram_csv(spec["path"])
    if gram.m != family.m:
        raise ConfigError(f"gram file covers {gram.m} features, dictionary has {family.m}")
    return gram


def _load_sample(values, transductive):
    """The sample of fit, transduce or bounds and its geometry, as
    ``(data, features, moments)`` from one ``bounds.sample_geometry`` call:
    the training file, stacked for a transductive command over the test
    file's block of kN rows, k >= 1. None when that test file holds no rows."""
    x, y = data.load_labeled_csv(values["train"])
    if transductive:
        x_test = data.load_unlabeled_csv(values["test"])
        n, rows = x.shape[0], x_test.shape[0]
        if rows == 0:
            return None
        if x_test.shape[1] != x.shape[1]:
            raise DataError(f"train has dimension {x.shape[1]}, test has {x_test.shape[1]}")
        if n == 0 or rows % n:
            raise DataError(f"test rows ({rows}) must be a positive multiple of train rows ({n})")
        x = np.vstack([x, x_test])
    sample = data.Dataset(x=x, y=y)
    design_moments = partial(_inductive_moments, values)
    return (sample, *bounds.sample_geometry(values["dictionary"], sample, transductive, design_moments))


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


def _data_config(args):
    """The resolved config of fit, transduce or bounds, echoing the seed it
    resolves, and its values, specs included, read before any data file."""
    config = _resolve(args)
    values = read(config, COMMAND_KEYS[args.command])
    config["seed"] = values["seed"]
    if values["loo_index"] is None:  # a family built on the training points maps its own anchors
        values["loo_index"] = values["dictionary"].center_train_indices
    if "moments" in values and values["moments"][0] != "exact":
        (kind, spec), m = values["moments"], values["dictionary"].m
        dense_gram(m, f"dictionary m with moments.kind {kind!r}")
        # the mean of fewer than m rank-one products theta(x) theta(x)^T is singular
        if kind == "monte_carlo" and spec["n_samples"] < m:
            raise ConfigError(
                f"moments.n_samples must be at least dictionary m = {m} (a Monte Carlo Gram of fewer "
                f"points is singular), got {spec['n_samples']}"
            )
    return config, values


def cmd_fit(args) -> int:
    """``fit`` and ``transduce``: one pipeline, which branches only on the
    geometry, that is on whether a test block joins the training rows."""
    config, values = _data_config(args)
    spec, transductive = values["bound"], args.command == "transduce"
    if spec.transductive != transductive:
        raise ConfigError(f"variant {spec.variant} needs the {'transduce' if spec.transductive else 'fit'} command")
    out = Path(values["out"])
    sample = _load_sample(values, transductive)
    if sample is None:
        sys.stderr.write("warning: empty test file, writing empty predictions\n")
        out.mkdir(parents=True, exist_ok=True)
        data.write_predictions_csv(out / "predictions.csv", np.empty(0))
        return 0
    ds, features, mom = sample
    model = selector.run_selection(
        ds,
        features,
        mom,
        spec,
        kappa=values["kappa"],
        schedule=values["schedule"],
        loo_index=values["loo_index"],
        seed=values["seed"],
    )
    payload = model.to_json_dict()
    payload["config"] = _echoed(config)
    _write(out / "model.json", _json_bytes(payload))
    summary = _summary_text(model)
    _write(out / "summary.txt", summary.encode())
    if transductive:
        data.write_predictions_csv(out / "predictions.csv", mom.block @ model.coefficients)
    sys.stdout.write(summary)
    return 0


def _bounds_table(values):
    bound = values["bound"]
    variants = values["variants"] or [bounds.BoundSpec.from_json_dict(bound).variant]
    specs = [bounds.BoundSpec.from_json_dict({**bound, "variant": name}) for name in variants]
    transductive = specs[0].transductive
    other = next((spec.variant for spec in specs if spec.transductive != transductive), None)
    if other is not None:
        raise ConfigError(f"variants {variants[0]} and {other} cannot share a bounds table: one geometry per table")
    if transductive and values["test"] is None:
        raise ConfigError("transductive bound variants need a 'test' file")
    sample = _load_sample(values, transductive)
    if sample is None:
        raise DataError(f"{values['test']}: empty test file, a transductive bounds table needs test rows")
    ds, features, mom = sample
    stats = bounds.compute_stats(features, ds, variants, loo_index=values["loo_index"])
    columns = {spec.variant: bounds.compute_radius(spec, stats, mom) for spec in specs}
    ahat = bounds.alpha_hat(stats)
    ratio = bounds.normalization_ratio(stats, mom)

    def cell(value):
        value = float(value)
        # degenerate features yield NaN/inf cells; strict JSON has no literal
        return value if np.isfinite(value) else None

    rows = []
    for k in range(stats.m):
        row = {
            "feature": k + 1,
            "v": cell(mom.diag[k]),
            "alpha_hat": cell(ahat[k]),
            "c_ratio": cell(ratio[k]),
        }
        for name, radius in columns.items():
            row[f"beta[{name}]"] = cell(radius.beta[k])
            row[f"tau[{name}]"] = cell(radius.tau[k])
        rows.append(row)
    return rows


def cmd_bounds(args) -> int:
    config, values = _data_config(args)
    rows = _bounds_table(values)
    if args.json:
        sys.stdout.write(_json_bytes({"config": _echoed(config), "rows": rows}).decode())
        return 0
    header = list(rows[0].keys())
    sys.stdout.write("\t".join(header) + "\n")
    for row in rows:
        sys.stdout.write("\t".join(repr(row[h]) if isinstance(row[h], float) else str(row[h]) for h in header) + "\n")
    return 0


RATE_KEYS = {
    **COMMON_KEYS,
    "model": (optional(spec_object), None),
    "grid": (list_of(count(SIZE_CAP), least=1), [64, 128, 256, 512, 768, 1024, 1536, 2048, 3072, 4096]),
    "replicates": (count(REPLICATES_CAP), 20),
    "sigma_scale": (number, 1.0),
    "budget_seconds": (optional(number), None),
}
# The keys of each kind of experiment; a truth (``model``) is read by
# ``experiments.truth``.
EXPERIMENT_KEYS = {
    "rate-sobolev": RATE_KEYS,
    "rate-besov": RATE_KEYS,
    "coverage": {
        **COMMON_KEYS,
        "model": (optional(spec_object), None),
        "N": (count(SIZE_CAP), 128),
        "m": (count(SIZE_CAP), 64),
        "variant": (text, "IndExact"),
        "epsilon": (probability, 0.25),
        "replicates": (count(REPLICATES_CAP), 500),
        "k_test": (optional(count(K_TEST_CAP, low=0)), None),
    },
    "transductive": {
        **COMMON_KEYS,
        "model": (optional(spec_object), None),
        "N": (count(SIZE_CAP), 64),
        "m": (count(SIZE_CAP), 32),
        "variant": (text, "TrBasicBounded"),
        "epsilon": (probability, 0.1),
        "replicates": (count(REPLICATES_CAP), 100),
        "k_test": (optional(count(K_TEST_CAP, low=0)), 1),
    },
}


def cmd_experiment(args) -> int:
    """The report echoes the config once, as read: every key of the kind's
    table, each default filled in, and the truth by its spec."""
    kind, values = read_kind(_resolve(args), EXPERIMENT_KEYS, "")
    if kind == "rate-besov" and values["model"] is None:
        values["model"] = {"kind": "besov", "levels": max(values["grid"]).bit_length() - 1}
    config = _echoed({"kind": kind, **values})
    seed, threads, out, spec = (values.pop(key) for key in ("seed", "threads", "out", "model"))
    started = time.monotonic()
    if kind in ("rate-sobolev", "rate-besov"):
        grid = values.pop("grid")
        model = experiments.truth(spec, max(grid))
        report = experiments.rate_experiment(model, grid, seed=seed, threads=threads, **values)
    else:
        model = experiments.truth(spec, max(values["N"], values["m"]))
        study = experiments.coverage_study if kind == "coverage" else experiments.transductive_experiment
        report = study(model=model, n_train=values.pop("N"), seed=seed, threads=threads, **values)
    payload = {**report.to_json_dict(), "config": config, "tool_version": __version__}
    _write(Path(out, "report.json"), _json_bytes(payload))
    _write(Path(out, "report.csv"), report.csv_text().encode())
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
        ("--kappa", {"type": float}, ("fit", "transduce")),
        ("--schedule", {"choices": selector.SCHEDULES}, ("fit", "transduce")),
        ("--variant", {"dest": "variants", "metavar": "VARIANT", "action": "append",
                       "help": "repeatable; adds a beta/tau column per variant"}, ("bounds",)),
        ("--json", {"action": "store_true", "help": "machine-readable stdout"}, ("bounds",)),
        ("--kind", {"choices": tuple(EXPERIMENT_KEYS)}, ("experiment",)),
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
        error = exc
    label = type(error).__name__.removesuffix("Error").lower()
    sys.stderr.write(f"{label} error: {error}\n")
    return error.exit_code


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
