"""Seeded fuzz gate of the config reader: every value of one small valid config
per subcommand, a leaf or a spec holding others, is replaced by each of a few
malformed or extreme values, and
every run through ``cli.main`` must end with a documented exit code, one
error line, no traceback and no numpy RuntimeWarning; and a key no table
declares, added to any object of those configs, must be one config error
before any data file is read. The caps keep every run small. A saved
``model.json`` is fuzzed the same way through ``SelectionModel.from_json_dict``."""

import json
import math
import random
import time
import warnings

import numpy as np
import pytest

from conftest import write_labeled_csv, write_unlabeled_csv
from slabreg import data, experiments, moments
from slabreg.cli import main
from slabreg.errors import ConfigError, DataError, SlabregError
from slabreg.selector import SelectionModel

MUTATIONS = [None, "x", True, [], {}, -1, 0, 0.5, 1e308, math.nan, math.inf]
LABELS = {2: "config", 3: "data", 4: "numerical", 5: "budget"}
# Experiment runs cost up to about 0.1 s each, so each experiment config is
# fuzzed on this many of its mutations, drawn with a fixed seed.
EXPERIMENT_SAMPLE = 40


@pytest.fixture
def configs(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(10, 1))
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    write_labeled_csv(train, x, np.sin(2 * np.pi * x[:, 0]) + rng.uniform(-0.2, 0.2, 10))
    write_unlabeled_csv(test, rng.uniform(size=(10, 1)))
    gram3, gram5 = tmp_path / "gram3.csv", tmp_path / "gram5.csv"
    np.savetxt(gram3, [[1.0, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 0.5]], delimiter=",")
    np.savetxt(gram5, 0.9 * np.eye(5) + 0.1, delimiter=",")
    ind = {"variant": "IndExact", "epsilon": 0.1, "B": 1.5, "sigma2": 0.04}
    noise = {"kind": "uniform", "scale": 0.05}
    return {
        "fit": {
            "train": str(train),
            "dictionary": {"kind": "Trigonometric", "m": 5},
            "bound": ind,
            "moments": {"kind": "monte_carlo", "n_samples": 100, "low": 0.0, "high": 1.0, "dim": 1, "seed": 3},
            "kappa": 0.01,
            "schedule": "RoundRobin",
            "seed": 1,
            "threads": 1,
        },
        "fit-explicit-gram-file": {
            "train": str(train),
            "dictionary": {"kind": "ExplicitMatrix", "parameters": {"values": rng.uniform(-1, 1, (10, 3)).tolist()}},
            "bound": ind,
            "moments": {"kind": "file", "path": str(gram3)},
            "kappa": 0.01,
        },
        "fit-trig-gram-file": {
            "train": str(train),
            "dictionary": {"kind": "Trigonometric", "m": 5},
            "bound": ind,
            "moments": {"kind": "file", "path": str(gram5)},
            "schedule": "RoundRobin",
        },
        "transduce": {
            "train": str(train),
            "test": str(test),
            "dictionary": {"kind": "MultiscaleGaussian", "parameters": {"centers": [[0.2], [0.7]], "scales": [4.0]}},
            "bound": {"variant": "TrBasicBounded", "epsilon": 0.1, "B": 1.7},
        },
        "bounds": {
            "train": str(train),
            "dictionary": {"kind": "Haar", "parameters": {"levels": 2}},
            "bound": {**ind, "subexp": [{"beta_h": 0.5, "B_h": 3.0}], "y_subexp": {"b_y": 0.5, "B_y": 2.0}},
            "variants": ["IndExact", "IndVarFirstOrder"],
            "loo_index": [0, 1],
        },
        "bounds-kernel-pca": {
            "train": str(train),
            "dictionary": {
                "kind": "KernelPCA",
                "parameters": {"points": [[0.1], [0.5], [0.9]], "kernel": {"kind": "gaussian", "gamma": 2.0}, "top": 2},
            },
            "bound": ind,
            "moments": {"kind": "monte_carlo", "n_samples": 100},
        },
        "bounds-transductive": {
            "train": str(train),
            "test": str(test),
            "dictionary": {"kind": "Trigonometric", "m": 3},
            "bound": {"epsilon": 0.1, "B": 1.7, "subexp": [{"beta_h": 0.5, "B_h": 3.0}], "y_subexp": {"b_y": 0.5, "B_y": 2.0}},
            "variants": ["TrBasicBounded", "TrFirstOrder", "TrVariance", "TrGeneralK"],
        },
        "coverage": {
            "kind": "coverage",
            "N": 32,
            "m": 8,
            "replicates": 100,
            "epsilon": 0.25,
            "variant": "IndExact",
            "model": {"kind": "sobolev", "size": 8, "smoothness": 1.0, "scale": 1.0, "noise": noise},
        },
        "transductive": {
            "kind": "transductive",
            "N": 16,
            "m": 8,
            "k_test": 1,
            "replicates": 5,
            "variant": "TrBasicBounded",
            "epsilon": 0.1,
            "model": {"kind": "besov", "levels": 3, "seed": 2, "smoothness": 1.0, "noise": noise},
        },
        "rate-sobolev": {
            "kind": "rate-sobolev",
            "grid": [32, 48, 64, 96],
            "replicates": 2,
            "sigma_scale": 1.0,
            "budget_seconds": 100.0,
            "model": {"coefficients": [0.5, 0.25, -0.125], "noise": noise, "regularity": 1.0},
        },
        "rate-besov": {
            "kind": "rate-besov",
            "grid": [32, 48, 64, 96],
            "replicates": 2,
            "model": {"kind": "besov", "levels": 4, "seed": 1, "smoothness": 1.0, "noise": noise},
        },
    }


def _paths(obj, path=()):
    """The path of every value in ``obj`` (every object and list holding
    others too), the whole of ``obj`` aside."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _mutated(obj, path, value):
    obj = json.loads(json.dumps(obj))
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return obj


def _cases(configs):
    draw = random.Random(20)
    for name, config in configs.items():
        cases = [(path, value) for path in _paths(config) for value in MUTATIONS]
        if name in ("coverage", "transductive", "rate-sobolev", "rate-besov"):
            cases = draw.sample(cases, min(EXPERIMENT_SAMPLE, len(cases)))
        for path, value in cases:
            yield name, _mutated(config, path, value), path, value


def _failure(command, path, out, capsys):
    """Why one run through ``main`` breaks the gate, or None."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", str(path), "--out", str(out)])
    except (Exception, SystemExit) as exc:  # the gate: nothing escapes main
        return f"raised {type(exc).__name__}: {exc}"
    err = capsys.readouterr().err
    noisy = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    if noisy:
        return f"exit {code} after RuntimeWarning {noisy}"
    if code not in LABELS and code != 0 or "Traceback" in err:
        return f"exit {code}: {err}"
    lines = err.splitlines()
    one_error_last = lines and lines[-1].startswith(f"{LABELS.get(code)} error: ")
    if code and not (one_error_last and sum(" error: " in line for line in lines) == 1):
        return f"exit {code}: {err}"
    return None


def _command(name):
    return next((c for c in ("fit", "transduce", "bounds") if name.startswith(c)), "experiment")


def test_every_base_config_runs(tmp_path, configs, capsys):
    path, out = tmp_path / "config.json", tmp_path / "run"
    for name, config in configs.items():
        path.write_text(json.dumps(config))
        assert main([_command(name), "--config", str(path), "--out", str(out)]) == 0, name
        capsys.readouterr()


def test_every_mutated_value_ends_in_a_documented_exit(tmp_path, configs, capsys):
    started = time.process_time()
    path, out = tmp_path / "config.json", tmp_path / "run"
    failures = []
    for name, config, where, value in _cases(configs):
        path.write_text(json.dumps(config))
        failure = _failure(_command(name), path, out, capsys)
        if failure is not None:
            failures.append(f"{name} {'.'.join(map(str, where))} = {value!r}: {failure}")
    assert failures == []
    # CPU time, the work the caps bound: a preempted run takes longer on the wall clock alone.
    assert time.process_time() - started < 10.0


UNDECLARED = "undeclared"
# The place an unknown-key error names, by the key of the object's spec.
PLACES = {
    "dictionary": "dictionary",
    "parameters": "dictionary parameters",
    "kernel": "dictionary kernel",
    "bound": "bound",
    "subexp": "bound subexp",
    "y_subexp": "bound y_subexp",
    "moments": "moments",
    "model": "model",
    "noise": "noise",
}


def _objects(obj, path=()):
    """The path of every JSON object in ``obj``, the whole of ``obj`` included."""
    if isinstance(obj, dict):
        yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _objects(value, path + (key,))


def test_an_undeclared_key_in_any_object_is_one_config_error_before_any_data(tmp_path, configs, monkeypatch, capsys):
    # Every object is read through a table that declares its keys, at every
    # depth, before any data file is read or any replicate runs.
    def never(*args, **kwargs):
        raise DataError("a data file was read or a replicate ran")

    for module, name in [(data, "load_labeled_csv"), (data, "load_unlabeled_csv"), (moments, "load_gram_csv"),
                         (experiments, "generate")]:
        monkeypatch.setattr(module, name, never)
    path, out = tmp_path / "config.json", tmp_path / "run"
    failures, places = [], set()
    for name, config in configs.items():
        for where in _objects(config):
            path.write_text(json.dumps(_mutated(config, where + (UNDECLARED,), 1)))
            code = main([_command(name), "--config", str(path), "--out", str(out)])
            lines = capsys.readouterr().err.splitlines()
            # the object's own key: a subexp pair sits at an index of its list
            place = PLACES[next(key for key in reversed(where) if isinstance(key, str))] if where else None
            places.add(place)
            expected = f"config error: unknown config key {UNDECLARED!r}"
            expected += f" in {place}; {place} reads " if place else "; this command reads "
            if code != 2 or len(lines) != 1 or not lines[0].startswith(expected) or out.exists():
                failures.append(f"{name} {'.'.join(map(str, where))}: exit {code}: {lines}")
    assert failures == []
    assert places == {None, *PLACES.values()}


@pytest.fixture
def saved_model(tmp_path):
    """The model.json of a small Gaussian fit whose trace holds three steps."""
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(40, 1))
    train, config = tmp_path / "train.csv", tmp_path / "fit.json"
    write_labeled_csv(train, x, np.where(x[:, 0] < 0.5, 1.0, -1.0) + rng.uniform(-0.2, 0.2, 40))
    config.write_text(json.dumps({
        "train": str(train),
        "dictionary": {"kind": "MultiscaleGaussian", "parameters": {"centers": [[0.75], [0.25]], "scales": [16.0]}},
        "moments": {"kind": "monte_carlo", "n_samples": 200},
        "bound": {"variant": "IndVarFirstOrder", "epsilon": 0.3},
        "schedule": "RoundRobin",
    }))
    assert main(["fit", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    model = json.loads((tmp_path / "run" / "model.json").read_text())
    assert len(model["trace"]) == 3 and model["dictionary"]["parameters"]["center_origin"] == [1, 0]
    return model


def _read_failure(obj):
    """Why one read of a saved model breaks the gate, or None."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            SelectionModel.from_json_dict(obj)
    except SlabregError:
        pass
    except Exception as exc:  # the gate: a malformed model is a SlabregError
        return f"raised {type(exc).__name__}: {exc}"
    noisy = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    return f"RuntimeWarning {noisy}" if noisy else None


def test_every_mutated_saved_model_reads_or_is_one_slabreg_error(saved_model):
    started = time.process_time()
    SelectionModel.from_json_dict(saved_model)
    failures = []
    for where in _paths(saved_model):
        for value in MUTATIONS:
            failure = _read_failure(_mutated(saved_model, where, value))
            if failure is not None:
                failures.append(f"{'.'.join(map(str, where))} = {value!r}: {failure}")
    # An undeclared key is a config error naming it in every object the
    # reader reads; the echoed ``config`` is read as a whole and not kept.
    for where in _objects(saved_model):
        mutated = _mutated(saved_model, where + (UNDECLARED,), 1)
        if where[:1] == ("config",):
            SelectionModel.from_json_dict(mutated)
            continue
        with pytest.raises(ConfigError, match=f"^unknown config key {UNDECLARED!r} in "):
            SelectionModel.from_json_dict(mutated)
    assert failures == []
    assert time.process_time() - started < 5.0
