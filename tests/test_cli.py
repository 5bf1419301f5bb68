import inspect
import itertools
import json
import socket
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import write_labeled_csv, write_unlabeled_csv
from slabreg import bounds, data, dictionary, errors, experiments, selector
from slabreg.cli import main
from slabreg.dictionary import from_spec as dict_from_spec
from slabreg.errors import ConfigError, json_number
from slabreg.moments import empirical_test_moments, exact_moments


TRIG5 = '{"kind":"Trigonometric","m":5}'
IND = '{"variant":"IndExact","epsilon":0.1,"B":1.5,"sigma2":0.04}'
TRB = '{"variant":"TrBasicBounded","epsilon":0.1,"B":1.7}'


@pytest.fixture
def train_csv(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(10, 1))
    y = np.sin(2 * np.pi * x[:, 0]) + rng.uniform(-0.2, 0.2, 10)
    path = tmp_path / "train.csv"
    write_labeled_csv(path, x, y)
    return path


@pytest.fixture
def test_csv(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "test.csv"
    write_unlabeled_csv(path, rng.uniform(size=(10, 1)))
    return path


def run_cli(args, capsys=None):
    return main([str(a) for a in args])


def test_fit_writes_model_with_m_slots(tmp_path, train_csv, capsys):
    out = tmp_path / "run"
    code = run_cli(["fit", "--train", train_csv, "--dictionary", TRIG5, "--bound", IND, "--out", out])
    assert code == 0
    model = json.loads((out / "model.json").read_text())
    assert len(model["coefficients"]) == 5
    assert model["bound_variant"] == "IndExact"
    assert (out / "summary.txt").exists()
    assert "stopped_at" in capsys.readouterr().out


def test_fit_byte_identical_across_runs(tmp_path, train_csv):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_cli(["fit", "--train", train_csv, "--dictionary", TRIG5, "--bound", IND, "--seed", 7, "--out", out]) == 0
    blob1 = (out1 / "model.json").read_bytes()
    blob2 = (out2 / "model.json").read_bytes()
    assert blob1.replace(str(out1).encode(), b"") == blob2.replace(str(out2).encode(), b"")


def test_fit_missing_sigma_exits_2(tmp_path, train_csv, capsys):
    code = run_cli([
        "fit", "--train", train_csv, "--dictionary", TRIG5,
        "--bound", '{"variant":"IndExact","epsilon":0.1,"B":1.0}', "--out", tmp_path,
    ])
    assert code == 2
    assert "sigma2" in capsys.readouterr().err


def test_fit_rejects_transductive_variant(tmp_path, train_csv, capsys):
    code = run_cli(["fit", "--train", train_csv, "--dictionary", TRIG5, "--bound", TRB, "--out", tmp_path])
    assert code == 2
    assert "transduce" in capsys.readouterr().err


def test_fit_malformed_csv_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,y\n0.5,oops\n")
    code = run_cli(["fit", "--train", bad, "--dictionary", TRIG5, "--bound", IND, "--out", tmp_path])
    assert code == 3
    assert "row 2" in capsys.readouterr().err


def test_fit_train_file_that_cannot_be_opened_exits_3(tmp_path, capsys):
    # A socket file passes the config's path check (it exists and is no directory); opening it fails.
    sock = tmp_path / "train.csv"
    with socket.socket(socket.AF_UNIX) as server:
        server.bind(str(sock))
        code = run_cli(["fit", "--train", sock, "--dictionary", TRIG5, "--bound", IND, "--out", tmp_path / "run"])
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"data error: {sock}: cannot open: ")


@pytest.mark.parametrize("kind", ["directory", "socket", "undecodable"])
def test_config_file_that_cannot_be_read_exits_2(tmp_path, kind, capsys):
    path = tmp_path / "config.json"
    argv = ["fit", "--config", path, "--out", tmp_path / "run"]
    if kind == "directory":
        path.mkdir()
        code = run_cli(argv)
    elif kind == "socket":
        with socket.socket(socket.AF_UNIX) as server:
            server.bind(str(path))
            code = run_cli(argv)
    else:
        path.write_bytes(b'{"seed": 1, "out": "caf\xe9"}')  # Latin-1, byte 23
        code = run_cli(argv)
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error: config file {path} "), lines
    assert ("not UTF-8 text: byte 23 " if kind == "undecodable" else "cannot be read: ") in lines[0]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("which", ["train", "test", "gram"])
def test_csv_file_that_is_not_utf8_exits_3(tmp_path, train_csv, test_csv, which, capsys):
    bad = tmp_path / "bad.csv"
    good = {"train": train_csv.read_bytes(), "test": test_csv.read_bytes(), "gram": b"1.0,0.0\n0.0,1.0\n"}[which]
    bad.write_bytes(good.replace(b"\n", b"\n\xff", 1))
    sample = ["--dictionary", '{"kind": "Trigonometric", "m": 2}', "--out", tmp_path / "run"]
    if which == "train":
        argv = ["fit", "--train", bad, "--bound", IND, *sample]
    elif which == "test":
        argv = ["transduce", "--train", train_csv, "--test", bad, "--bound", TRB, *sample]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"moments": {"kind": "file", "path": str(bad)}}))
        argv = ["fit", "--config", config, "--train", train_csv, "--bound", IND, *sample]
    assert run_cli(argv) == 3
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"data error: {bad}: not UTF-8 text: byte {good.index(10) + 1} cannot be decoded"]


@pytest.mark.parametrize("kind", ["monte_carlo", "file"])
def test_dense_gram_past_its_cap_exits_2_before_allocating(tmp_path, train_csv, kind, peak_bytes, capsys):
    m = 16385  # 8 m^2 bytes is just over GRAM_BYTES_CAP (2 GiB)
    gram = tmp_path / "gram.csv"
    gram.write_text("1.0\n")
    moments = {"kind": "monte_carlo"} if kind == "monte_carlo" else {"kind": "file", "path": str(gram)}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dictionary": {"kind": "Trigonometric", "m": m}, "moments": moments}))
    codes = []
    for command in ("fit", "bounds"):
        argv = [command, "--config", config, "--train", train_csv, "--bound", IND, "--out", tmp_path / "run"]
        peak = peak_bytes(lambda: codes.append(run_cli(argv)))
        assert peak < 2**20
    assert codes == [2, 2]
    lines = capsys.readouterr().err.splitlines()
    assert lines == [
        f"config error: dictionary m with moments.kind {kind!r} must be at most 16384 (a dense m x m Gram of "
        "at most 2 GiB), got 16385: its Gram would take 2,147,745,800 bytes"
    ] * 2
    assert not (tmp_path / "run").exists()


def test_test_block_past_the_gram_cap_exits_2_before_evaluating(tmp_path, monkeypatch, capsys):
    # N = 17 and k = 61: a kN x m block of 1,037 x 2^18 floats is just over GRAM_BYTES_CAP
    rng = np.random.default_rng(3)
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    write_labeled_csv(train, rng.uniform(size=(17, 1)), rng.uniform(-1.0, 1.0, 17))
    write_unlabeled_csv(test, rng.uniform(size=(17 * 61, 1)))
    calls = _counting(monkeypatch, dictionary.Trigonometric, "evaluate")
    dictionary_spec = json.dumps({"kind": "Trigonometric", "m": 1 << 18})
    out = tmp_path / "run"
    argv = ["transduce", "--train", train, "--test", test, "--dictionary", dictionary_spec, "--bound", TRB, "--out", out]
    code, lines = _one_error_line(argv, capsys)
    assert code == 2 and calls == [] and not out.exists()
    assert lines == [
        "config error: a kN x m test block must take at most 2 GiB; with kN = 1037 and dictionary m = 262144 it "
        "would take 2,174,746,624 bytes"
    ]


def test_dense_block_cap_admits_exactly_its_bytes():
    errors.dense_block(1024, 1 << 18, "a block")  # 2^31 bytes, the cap itself
    with pytest.raises(ConfigError, match="^a block would take 2,149,580,800 bytes$"):
        errors.dense_block(1025, 1 << 18, "a block")


@pytest.mark.parametrize("n_samples", [1, 4])
def test_monte_carlo_gram_from_fewer_points_than_features_exits_2(tmp_path, n_samples, capsys):
    # m = 5: a Gram averaged over fewer than 5 points is singular; the train
    # file is no CSV (a data error, exit 3, once read), so the config is
    # rejected before any data file is read
    train = tmp_path / "train.csv"
    train.write_text("x1,y\nnot,numbers\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"moments": {"kind": "monte_carlo", "n_samples": n_samples}}))
    codes = []
    for command in ("fit", "bounds"):
        argv = [command, "--config", config, "--train", train, "--dictionary", TRIG5,
                "--bound", IND, "--out", tmp_path / "run"]
        codes.append(run_cli(argv))
    assert codes == [2, 2]
    lines = capsys.readouterr().err.splitlines()
    assert lines == [
        "config error: moments.n_samples must be at least dictionary m = 5 (a Monte Carlo Gram of fewer "
        f"points is singular), got {n_samples}"
    ] * 2
    assert not (tmp_path / "run").exists()


def test_transduce_empty_test_warns_and_writes_empty(tmp_path, train_csv, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("x1\n")
    out = tmp_path / "run"
    code = run_cli(["transduce", "--train", train_csv, "--test", empty, "--dictionary", TRIG5, "--bound", TRB, "--out", out])
    assert code == 0
    assert "empty" in capsys.readouterr().err
    assert (out / "predictions.csv").read_text() == "index,prediction\n"


def test_bounds_empty_test_file_exits_3(tmp_path, train_csv, capsys):
    # Unlike transduce, a transductive table has nothing to write without test rows.
    empty = tmp_path / "empty.csv"
    empty.write_text("x1\n")
    code = run_cli(["bounds", "--train", train_csv, "--test", empty, "--dictionary", TRIG5, "--bound", TRB])
    assert code == 3
    assert capsys.readouterr().err == f"data error: {empty}: empty test file, a transductive bounds table needs test rows\n"


@pytest.mark.parametrize(
    "dictionary_spec,bound,message",
    [('{"kind":"Nope"}', '{"variant":"Bogus","epsilon":0.1}', "dictionary kind must be one of"),
     (TRIG5, '{"variant":"Bogus","epsilon":0.1}', "unknown bound variant 'Bogus'")],
)
def test_transduce_empty_test_file_reads_the_whole_config_first(tmp_path, train_csv, dictionary_spec, bound, message, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("x1\n")
    out = tmp_path / "run"
    code = run_cli(["transduce", "--train", train_csv, "--test", empty, "--dictionary", dictionary_spec,
                    "--bound", bound, "--out", out])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not out.exists()


def test_transduce_infers_k_from_row_counts(tmp_path, train_csv):
    rng = np.random.default_rng(5)
    test2 = tmp_path / "test2.csv"
    write_unlabeled_csv(test2, rng.uniform(size=(20, 1)))
    out = tmp_path / "run"
    spec = '{"variant":"TrGeneralK","epsilon":0.1,"subexp":[{"beta_h":1.0,"B_h":3.0}]}'
    code = run_cli(["transduce", "--train", train_csv, "--test", test2, "--dictionary", TRIG5, "--bound", spec, "--out", out])
    assert code == 0
    model = json.loads((out / "model.json").read_text())
    assert model["bound_variant"] == "TrGeneralK"
    lines = (out / "predictions.csv").read_text().strip().splitlines()
    assert len(lines) == 21


def test_transduce_dimension_mismatch_exits_3(tmp_path, train_csv, capsys):
    wide = tmp_path / "wide.csv"
    wide.write_text("x1,x2\n0.1,0.2\n")
    code = run_cli(["transduce", "--train", train_csv, "--test", wide, "--dictionary", TRIG5, "--bound", TRB, "--out", tmp_path])
    assert code == 3


def test_transduce_predictions_match_library(tmp_path, train_csv, test_csv):
    out = tmp_path / "run"
    code = run_cli([
        "transduce", "--train", train_csv, "--test", test_csv, "--dictionary", TRIG5,
        "--bound", TRB, "--out", out, "--kappa", 0.01,
    ])
    assert code == 0
    x_train, y = data.load_labeled_csv(train_csv)
    x_test = data.load_unlabeled_csv(test_csv)
    ds = data.Dataset(x=np.vstack([x_train, x_test]), y=y)
    family = dict_from_spec(json.loads(TRIG5))
    feats = family.evaluate(ds.x)
    mom = empirical_test_moments(feats[10:])
    model = selector.run_selection(
        ds, family, mom, bounds.BoundSpec.from_json_dict(json.loads(TRB)), kappa=0.01
    )
    expected = feats[10:] @ model.coefficients
    got = np.array([
        float(line.split(",")[1])
        for line in (out / "predictions.csv").read_text().strip().splitlines()[1:]
    ])
    np.testing.assert_array_equal(got, expected)


def test_bounds_json_has_m_rows_and_matches_library(tmp_path, train_csv, capsys):
    code = run_cli([
        "bounds", "--train", train_csv, "--dictionary", TRIG5, "--bound",
        '{"epsilon":0.1,"B":1.5,"sigma2":0.04}', "--variant", "IndExact", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    rows = payload["rows"]
    assert len(rows) == 5
    x, y = data.load_labeled_csv(train_csv)
    ds = data.Dataset(x=x, y=y)
    family = dict_from_spec(json.loads(TRIG5))
    from slabreg.moments import exact_moments

    spec = bounds.BoundSpec("IndExact", 0.1, B=1.5, sigma2=0.04)
    radius = bounds.compute_radius(spec, bounds.compute_stats(family, ds, ("IndExact",)), exact_moments(family))
    # the feature matrix's statistics, within rounding of the adjoint sums
    dense = bounds.compute_radius(spec, bounds.compute_stats(family.evaluate(x), ds), exact_moments(family))
    for k, row in enumerate(rows):
        assert row["beta[IndExact]"] == radius.beta[k]
        assert row["tau[IndExact]"] == radius.tau[k]
        assert row["beta[IndExact]"] == pytest.approx(dense.beta[k], rel=1e-12)


def test_bounds_two_variant_columns(train_csv, capsys):
    code = run_cli([
        "bounds", "--train", train_csv, "--dictionary", TRIG5, "--bound",
        '{"epsilon":0.1,"B":1.5,"sigma2":0.04}', "--variant", "IndExact",
        "--variant", "IndVarFirstOrder", "--json",
    ])
    assert code == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert "beta[IndExact]" in row and "beta[IndVarFirstOrder]" in row


def test_experiment_coverage_report_fields(tmp_path):
    out = tmp_path / "cov"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "kind": "coverage",
        "replicates": 100,
        "N": 48,
        "m": 8,
        "epsilon": 0.25,
        "model": {"kind": "sobolev", "size": 48, "noise": {"kind": "gaussian", "scale": 0.3}},
    }))
    code = run_cli(["experiment", "--config", config, "--out", out])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert 0.0 <= report["coverage"] <= 1.0
    assert report["config_resolved"]["kind"] == "coverage"
    csv_lines = (out / "report.csv").read_text().splitlines()
    assert csv_lines[0] == "N,replicate,mse,coverage_event,seed"
    assert len(csv_lines) == 101


def test_experiment_rate_schema_and_determinism(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "kind": "rate-sobolev",
        "grid": [32, 48, 64, 96],
        "replicates": 2,
        "model": {"kind": "sobolev", "size": 96, "noise": {"kind": "uniform", "scale": 0.1}},
    }))
    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run_cli(["experiment", "--config", config, "--out", out, "--seed", 3]) == 0
        report = json.loads((out / "report.json").read_text())
        assert "slope" in report and "medians" in report
        blobs.append(
            ((out / "report.csv").read_bytes(), (out / "report.json").read_bytes().replace(str(out).encode(), b""))
        )
    assert blobs[0] == blobs[1]


def test_experiment_threads_byte_identical(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "kind": "transductive",
        "N": 32,
        "m": 8,
        "replicates": 100,
        "epsilon": 0.2,
        "model": {"kind": "sobolev", "size": 32, "noise": {"kind": "uniform", "scale": 0.2}},
    }))
    blobs = {}
    for threads in (1, 4):
        out = tmp_path / f"t{threads}"
        assert run_cli(["experiment", "--config", config, "--out", out, "--threads", threads]) == 0
        blobs[threads] = (out / "report.csv").read_bytes()
    assert blobs[1] == blobs[4]


def _rate_sobolev_direct():
    model = experiments.sobolev_model(
        smoothness=1.0, size=512, scale=1.0, noise=experiments.NoiseSpec("uniform", 0.05)
    )
    return experiments.rate_experiment(model, [64, 128, 256, 512], replicates=2, seed=0, threads=2, sigma_scale=1.0)


def _coverage_direct():
    model = experiments.sobolev_model(smoothness=1.0, size=128, noise=experiments.NoiseSpec("gaussian", 0.3))
    return experiments.coverage_study("IndExact", model, 128, 64, 0.25, replicates=100, seed=0, threads=2)


def _transductive_direct():
    model = experiments.sobolev_model(smoothness=1.0, size=16, noise=experiments.NoiseSpec("uniform", 0.2))
    return experiments.transductive_experiment(
        model, 256, 1, 16, variant="TrBasicBounded", epsilon=0.1, replicates=20, seed=0, threads=2
    )


STUDY_CONFIGS = {
    "rate-sobolev": (
        {
            "kind": "rate-sobolev",
            "model": {"kind": "sobolev", "smoothness": 1.0, "scale": 1.0, "noise": {"kind": "uniform", "scale": 0.05}},
            "grid": [64, 128, 256, 512],
            "replicates": 2,
            "sigma_scale": 1.0,
            "seed": 0,
            "threads": 2,
        },
        _rate_sobolev_direct,
    ),
    "coverage": (
        {
            "kind": "coverage",
            "variant": "IndExact",
            "N": 128,
            "m": 64,
            "epsilon": 0.25,
            "model": {"kind": "sobolev", "smoothness": 1.0, "size": 128, "noise": {"kind": "gaussian", "scale": 0.3}},
            "replicates": 100,
            "seed": 0,
            "threads": 2,
        },
        _coverage_direct,
    ),
    "transductive": (
        {
            "kind": "transductive",
            "variant": "TrBasicBounded",
            "N": 256,
            "k_test": 1,
            "m": 16,
            "epsilon": 0.1,
            "model": {"kind": "sobolev", "smoothness": 1.0, "size": 16, "noise": {"kind": "uniform", "scale": 0.2}},
            "replicates": 20,
            "seed": 0,
            "threads": 2,
        },
        _transductive_direct,
    ),
}


@pytest.mark.parametrize("study", sorted(STUDY_CONFIGS))
def test_experiment_config_reproduces_library_study(tmp_path, study):
    """The README's study configs run the same computation as the library calls."""
    config, direct = STUDY_CONFIGS[study]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert run_cli(["experiment", "--config", path, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    expected = json.loads(json.dumps(direct().to_json_dict()))
    assert report["rows"] == expected["rows"]
    # the study's own config holds the truth and noise, which coverage rows alone may not reveal
    assert report["config"] == expected["config"]


@pytest.mark.parametrize(
    "kind,sizes,truth_size",
    [
        ("coverage", {"N": 48, "m": 8}, 48),
        ("coverage", {"N": 16, "m": 40}, 40),
        ("transductive", {}, 64),
    ],
)
def test_experiment_truth_size_defaults_to_study_size(tmp_path, kind, sizes, truth_size):
    """Without a `size`, a coverage or transductive truth has max(N, m) coefficients."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "kind": kind,
        **sizes,
        "replicates": 100,
        "epsilon": 0.25,
        "model": {"kind": "sobolev", "noise": {"kind": "uniform", "scale": 0.2}},
    }))
    out = tmp_path / "run"
    assert run_cli(["experiment", "--config", config, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["config"]["model"]["coefficients"]) == truth_size


def test_experiment_budget_exceeded_exits_5(tmp_path, capsys, monkeypatch):
    # A clock that advances one second per reading spends the budget before the first grid size.
    monkeypatch.setattr(experiments, "time", SimpleNamespace(monotonic=itertools.count().__next__))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "kind": "rate-sobolev",
        "grid": [32, 48, 64, 96],
        "replicates": 2,
        "budget_seconds": 0.5,
        "model": {"kind": "sobolev", "size": 96},
    }))
    out = tmp_path / "run"
    code = run_cli(["experiment", "--config", config, "--out", out])
    assert code == 5
    report = json.loads((out / "report.json").read_text())
    assert report["partial"] is True


def test_experiment_unknown_kind_exits_2(tmp_path, capsys):
    code = run_cli(["experiment", "--kind", "coverage", "--config", "/nonexistent.json"])
    assert code == 2


# Each experiment kind's config, but for the key under test; only the rate
# experiments read a grid.
EXPERIMENT_CONFIGS = {"coverage": {}, "transductive": {}, "rate-sobolev": {"grid": [32, 48, 64, 96]}}


@pytest.mark.parametrize("kind", ["coverage", "transductive", "rate-sobolev"])
@pytest.mark.parametrize("replicates", [0, -1])
def test_experiment_bad_replicate_count_exits_2_before_any_replicate(tmp_path, monkeypatch, kind, replicates, capsys):
    monkeypatch.setattr(experiments, "generate", lambda *args, **kwargs: pytest.fail("a replicate ran"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kind": kind, "replicates": replicates, **EXPERIMENT_CONFIGS[kind]}))
    out = tmp_path / "run"
    assert run_cli(["experiment", "--config", config, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "replicates" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "kind,key",
    [(kind, "replicates") for kind in ("coverage", "transductive", "rate-sobolev")]
    + [(kind, key) for kind in ("coverage", "transductive") for key in ("N", "m", "epsilon")],
)
def test_experiment_null_number_is_a_config_error_naming_the_key(tmp_path, monkeypatch, kind, key, capsys):
    monkeypatch.setattr(experiments, "generate", lambda *args, **kwargs: pytest.fail("a replicate ran"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kind": kind, key: None, **EXPERIMENT_CONFIGS[kind]}))
    out = tmp_path / "run"
    assert run_cli(["experiment", "--config", config, "--out", out]) == 2
    assert capsys.readouterr().err == f"config error: {key} must be a number, got None\n"
    assert not out.exists()


STUDY_DEFAULTS = {
    "coverage": (
        "coverage_study",
        {"n_train": 128, "m": 64, "variant": "IndExact", "epsilon": 0.25, "replicates": 500, "k_test": None},
    ),
    "transductive": (
        "transductive_experiment",
        {"n_train": 64, "m": 32, "variant": "TrBasicBounded", "epsilon": 0.1, "replicates": 100, "k_test": 1},
    ),
}


@pytest.mark.parametrize("kind", sorted(STUDY_DEFAULTS))
def test_experiment_study_defaults(tmp_path, monkeypatch, kind):
    """A config holding only its kind runs the README's documented defaults."""
    name, expected = STUDY_DEFAULTS[kind]
    signature = inspect.signature(getattr(experiments, name))
    calls = []

    def record(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        return experiments.ExperimentReport(kind=kind, config={}, rows=[])

    monkeypatch.setattr(experiments, name, record)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kind": kind}))
    assert run_cli(["experiment", "--config", config, "--out", tmp_path / "run"]) == 0
    (arguments,) = calls
    assert {key: arguments[key] for key in expected} == expected
    assert (arguments["seed"], arguments["threads"]) == (0, 1)
    assert arguments["model"].size == max(expected["n_train"], expected["m"])


def test_csv_roundtrip_identity(tmp_path):
    rng = np.random.default_rng(33)
    x = rng.uniform(size=(7, 2))
    y = rng.normal(size=7)
    path = tmp_path / "round.csv"
    write_labeled_csv(path, x, y)
    x2, y2 = data.load_labeled_csv(path)
    np.testing.assert_array_equal(x, x2)
    np.testing.assert_array_equal(y, y2)
    write_labeled_csv(tmp_path / "again.csv", x2, y2)
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "slabreg.cli", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "slabreg" in proc.stdout


def test_fit_with_montecarlo_moments_for_kernel_dictionary(tmp_path, train_csv):
    out = tmp_path / "mc"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "train": str(train_csv),
        "dictionary": {
            "kind": "MultiscaleGaussian",
            "parameters": {"centers": [[0.25], [0.75]], "scales": [2.0, 8.0]},
        },
        "moments": {"kind": "monte_carlo", "n_samples": 20000, "seed": 4},
        "bound": {"variant": "IndVarFirstOrder", "epsilon": 0.1},
    }))
    code = run_cli(["fit", "--config", config, "--out", out])
    assert code == 0
    model = json.loads((out / "model.json").read_text())
    assert len(model["coefficients"]) == 4
    assert model["moments_provenance"] == "MonteCarlo"


def test_fit_with_user_gram_file(tmp_path, train_csv):
    gram = tmp_path / "gram.csv"
    gram.write_text("1.0,0.0\n0.0,1.0\n")
    out = tmp_path / "gramrun"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "train": str(train_csv),
        "dictionary": {"kind": "Trigonometric", "m": 2},
        "moments": {"kind": "file", "path": str(gram)},
        "bound": {"variant": "IndExact", "epsilon": 0.1, "B": 1.5, "sigma2": 0.04},
    }))
    code = run_cli(["fit", "--config", config, "--out", out])
    assert code == 0
    model = json.loads((out / "model.json").read_text())
    assert model["moments_provenance"] == "UserSupplied"


@pytest.mark.parametrize("off_diagonal,orthonormal", [("0.0", True), ("1e-300", False)])
def test_fit_user_gram_file_orthonormal_flag(tmp_path, train_csv, off_diagonal, orthonormal):
    gram = tmp_path / "gram.csv"
    gram.write_text(f"1.0,{off_diagonal}\n{off_diagonal},1.0\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "train": str(train_csv),
        "dictionary": {"kind": "Trigonometric", "m": 2},
        "moments": {"kind": "file", "path": str(gram)},
        "bound": {"variant": "IndExact", "epsilon": 0.1, "B": 1.5, "sigma2": 0.04},
    }))
    assert run_cli(["fit", "--config", config, "--out", tmp_path / "run"]) == 0
    model = json.loads((tmp_path / "run" / "model.json").read_text())
    assert model["orthonormal_design"] is orthonormal


def test_fit_ind_svm_with_train_point_centers(tmp_path):
    rng = np.random.default_rng(9)
    x = rng.uniform(size=(24, 1))
    y = np.exp(-2.0 * (x[:, 0] - 0.5) ** 2) + rng.normal(0, 0.05, 24)
    train = tmp_path / "train.csv"
    write_labeled_csv(train, x, y)
    out = tmp_path / "svm"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "train": str(train),
        "dictionary": {
            "kind": "MultiscaleGaussian",
            "parameters": {"centers": x.tolist(), "scales": [2.0, 4.0]},
        },
        "moments": {"kind": "monte_carlo", "n_samples": 20000, "seed": 1},
        "bound": {"variant": "IndSvm", "epsilon": 0.1},
    }))
    code = run_cli(["fit", "--config", config, "--out", out])
    assert code == 0
    model = json.loads((out / "model.json").read_text())
    assert len(model["coefficients"]) == 48
    assert model["bound_variant"] == "IndSvm"


def test_reloaded_gaussian_model_keeps_its_leave_one_out_anchors(tmp_path):
    rng = np.random.default_rng(9)
    x = rng.uniform(size=(12, 1))
    train = tmp_path / "train.csv"
    write_labeled_csv(train, x, np.sin(3.0 * x[:, 0]) + rng.normal(0, 0.05, 12))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "train": str(train),
        "dictionary": {"kind": "MultiscaleGaussian", "parameters": {"centers": x.tolist(), "scales": [2.0, 4.0]}},
        "moments": {"kind": "monte_carlo", "n_samples": 2000, "seed": 1},
        "bound": {"variant": "IndSvm", "epsilon": 0.1},
    }))
    assert run_cli(["fit", "--config", config, "--out", tmp_path / "run"]) == 0
    reloaded = selector.SelectionModel.from_json_dict(json.loads((tmp_path / "run" / "model.json").read_text()))
    family = dictionary.MultiscaleGaussian(x, [2.0, 4.0])
    assert not np.array_equal(family.center_origin, np.arange(12))
    np.testing.assert_array_equal(reloaded.dictionary.center_train_indices, family.center_train_indices)
    assert reloaded.dictionary == family


def test_fit_explicit_matrix_dictionary(tmp_path):
    rng = np.random.default_rng(10)
    x = rng.uniform(size=(12, 1))
    y = rng.normal(size=12)
    train = tmp_path / "train.csv"
    write_labeled_csv(train, x, y)
    feats = rng.normal(size=(12, 3))
    gram = np.eye(3)
    gram_path = tmp_path / "gram.csv"
    gram_path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in gram) + "\n")
    out = tmp_path / "explicit"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "train": str(train),
        "dictionary": {"kind": "ExplicitMatrix", "parameters": {"values": feats.tolist()}},
        "moments": {"kind": "file", "path": str(gram_path)},
        "bound": {"variant": "IndVarFirstOrder", "epsilon": 0.2},
    }))
    code = run_cli(["fit", "--config", config, "--out", out])
    assert code == 0
    assert len(json.loads((out / "model.json").read_text())["coefficients"]) == 3


def test_rerun_from_embedded_config_reproduces_artifact(tmp_path, train_csv):
    out1 = tmp_path / "first"
    assert run_cli(["fit", "--train", train_csv, "--dictionary", TRIG5, "--bound", IND, "--seed", 9, "--out", out1]) == 0
    embedded = json.loads((out1 / "model.json").read_text())["config"]
    config = tmp_path / "embedded.json"
    config.write_text(json.dumps(embedded))
    out2 = tmp_path / "second"
    assert run_cli(["fit", "--config", config, "--out", out2]) == 0
    assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()


def test_numerical_error_exits_4(tmp_path, train_csv, capsys):
    gram = tmp_path / "bad_gram.csv"
    gram.write_text("1.0,2.0\n2.0,1.0\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "train": str(train_csv),
        "dictionary": {"kind": "Trigonometric", "m": 2},
        "moments": {"kind": "file", "path": str(gram)},
        "bound": {"variant": "IndExact", "epsilon": 0.1, "B": 1.0, "sigma2": 0.1},
    }))
    code = run_cli(["fit", "--config", config, "--out", tmp_path])
    assert code == 4
    assert "indefinite" in capsys.readouterr().err


@pytest.mark.parametrize("constant", ["B", "sigma2"])
def test_radius_overflow_exits_4_with_one_error_line(tmp_path, train_csv, constant, capsys):
    # finite constants whose radius is past the float range at N = 10
    bound = json.dumps({**json.loads(IND), constant: 1e308})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(["fit", "--train", train_csv, "--dictionary", TRIG5, "--bound", bound, "--out", tmp_path / "run"])
    assert code == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical error: IndExact radius overflows"), lines
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_feature_square_overflow_exits_3_with_one_error_line(tmp_path, train_csv, capsys):
    # A finite feature value whose square is past the float range: one data
    # error naming the row block, no infinite statistic, no zero model.
    gram = tmp_path / "gram.csv"
    np.savetxt(gram, np.eye(3), delimiter=",")
    values = np.random.default_rng(2).uniform(-1, 1, (10, 3))
    values[4, 1] = 1e308
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "train": str(train_csv),
        "dictionary": {"kind": "ExplicitMatrix", "parameters": {"values": values.tolist()}},
        "bound": json.loads(IND),
        "moments": {"kind": "file", "path": str(gram)},
    }))
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(["fit", "--config", config, "--out", out])
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["data error: training rows 0..9: the powers of their feature values or labels overflow the float range"]
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def _one_error_line(argv, capsys):
    """The exit code and stderr lines of one run, which must warn nothing."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, capsys.readouterr().err.splitlines()


def test_trigonometric_sums_that_overflow_exit_3_with_one_error_line(tmp_path, capsys):
    # N = m = 4096: labels whose squares are finite but whose sums overflow
    # leave the gridded sums for the row walk, which names the row block.
    rng = np.random.default_rng(9)
    train = tmp_path / "train.csv"
    write_labeled_csv(train, rng.uniform(size=(4096, 1)), 1e153 * rng.normal(size=4096))
    dictionary_spec = json.dumps({"kind": "Trigonometric", "m": 4096})
    bound = json.dumps({"variant": "IndVarFirstOrder", "epsilon": 0.1})
    out = tmp_path / "run"
    code, lines = _one_error_line(
        ["fit", "--train", train, "--dictionary", dictionary_spec, "--bound", bound, "--out", out], capsys
    )
    assert code == 3
    assert len(lines) == 1 and lines[0].startswith("data error: training rows "), lines
    assert lines[0].endswith(": the powers of their feature values or labels overflow the float range")
    assert not out.exists()


def test_nonfinite_radius_exits_4_with_one_error_line(tmp_path, train_csv, monkeypatch, capsys):
    # A formula that returns inf for an active feature: one numerical error
    # naming the variant, and no artifacts.
    entry = bounds.VARIANT_TABLE["IndExact"]

    def radius(stats, moments, spec):
        out = entry.radius(stats, moments, spec)
        return type(out)(np.where(np.arange(out.beta.size) == 1, np.inf, out.beta), out.tau, out.observables)

    argv = ["fit", "--train", train_csv, "--dictionary", TRIG5, "--bound", IND, "--out", tmp_path / "valid"]
    assert run_cli(argv) == 0
    monkeypatch.setitem(bounds.VARIANT_TABLE, "IndExact", entry._replace(radius=radius))
    out = tmp_path / "run"
    code, lines = _one_error_line([*argv[:-1], out], capsys)
    assert code == 4
    assert lines == ["numerical error: IndExact radius is not finite for 1 active feature(s) (first index 2)"]
    assert not out.exists()


def test_test_block_square_overflow_exits_3_with_one_error_line(tmp_path, capsys):
    # A finite test-row feature value whose square is past the float range:
    # one data error naming the test rows, not a numerical error about the Gram.
    x = np.random.default_rng(3).uniform(size=(8, 1))
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    write_labeled_csv(train, x[:4], np.sin(2 * np.pi * x[:4, 0]))
    write_unlabeled_csv(test, x[4:])
    values = np.random.default_rng(4).uniform(-1, 1, (8, 3))
    values[5, 1] = 1e308
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "train": str(train),
        "test": str(test),
        "dictionary": {"kind": "ExplicitMatrix", "parameters": {"values": values.tolist()}},
        "bound": json.loads(TRB),
    }))
    out = tmp_path / "run"
    code, lines = _one_error_line(["transduce", "--config", config, "--out", out], capsys)
    assert code == 3
    assert lines == ["data error: test rows 0..3: the powers of their feature values or labels overflow the float range"]
    assert not out.exists()


def test_gaussian_center_distance_overflow_exits_3_with_one_error_line(tmp_path, train_csv, test_csv, capsys):
    dictionary_spec = {"kind": "MultiscaleGaussian", "parameters": {"centers": [[0.5], [1e308]], "scales": [4.0]}}
    out = tmp_path / "run"
    argv = ["transduce", "--train", train_csv, "--test", test_csv, "--dictionary", json.dumps(dictionary_spec)]
    code, lines = _one_error_line(argv + ["--bound", TRB, "--out", out], capsys)
    assert code == 3
    assert lines == ["data error: the squared distances between points overflow the float range"]
    assert not out.exists()


@pytest.mark.parametrize(
    "y_subexp,code", [({"b_y": 0.5, "B_y": 1e308}, 0), ({"b_y": 1e-100, "B_y": 2.0}, 4)], ids=["big-B_y", "small-b_y"]
)
def test_tr_first_order_deployment_radius_is_finite_or_one_error_line(tmp_path, train_csv, test_csv, y_subexp, code, capsys):
    # A B_y near the float limit has a finite radius; a b_y whose fourth power
    # underflows has a radius past the float range: one error line, no warning.
    bound = json.dumps({"variant": "TrFirstOrder", "epsilon": 0.1, "y_subexp": y_subexp})
    argv = ["bounds", "--train", train_csv, "--test", test_csv, "--dictionary", TRIG5, "--bound", bound, "--json"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(argv) == code
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    out, err = capsys.readouterr()
    if code == 0:
        betas = [row["beta[TrFirstOrder]"] for row in json.loads(out)["rows"]]
        assert all(beta is not None and beta > 0.0 for beta in betas), betas  # a null cell is not finite
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical error: TrFirstOrder radius overflows"), lines


GATED_CONSTANTS = [(variant, name) for variant, entry in bounds.VARIANT_TABLE.items() for name in entry.constants]


@pytest.mark.parametrize("variant,constant", GATED_CONSTANTS)
def test_a_missing_bound_constant_is_a_config_error_naming_it(tmp_path, train_csv, test_csv, variant, constant, capsys):
    constants = {"B": 1.5, "sigma2": 0.04, "subexp": [{"beta_h": 0.5, "B_h": 3.0}]}
    del constants[constant]
    bound = {"variant": variant, "epsilon": 0.1, **constants}
    message = f"{variant} needs the bound constant {constant!r}"
    # the library's gate
    transductive = bounds.VARIANT_TABLE[variant].transductive
    x, y = data.load_labeled_csv(train_csv)
    family = dict_from_spec(json.loads(TRIG5))
    ds = data.Dataset(np.vstack([x, data.load_unlabeled_csv(test_csv)]) if transductive else x, y)
    features, mom = bounds.sample_geometry(family, ds, transductive, lambda: exact_moments(family))
    stats = bounds.compute_stats(features, ds, (variant,))
    with pytest.raises(ConfigError, match=message):
        bounds.compute_radius(bounds.BoundSpec.from_json_dict(bound), stats, mom)
    # the command's
    command = ["transduce", "--test", test_csv] if transductive else ["fit"]
    argv = [*command, "--train", train_csv, "--dictionary", TRIG5, "--bound", json.dumps(bound), "--out", tmp_path]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]


def test_flags_override_config_file(tmp_path, train_csv):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "train": str(train_csv),
        "dictionary": json.loads(TRIG5),
        "bound": json.loads(IND),
        "seed": 1,
    }))
    out = tmp_path / "override"
    assert run_cli(["fit", "--config", config, "--seed", 2, "--out", out]) == 0
    embedded = json.loads((out / "model.json").read_text())
    assert embedded["config"]["seed"] == 2
    assert embedded["seed"] == 2


def test_bounds_transductive_table(tmp_path, train_csv, test_csv, capsys):
    code = run_cli([
        "bounds", "--train", train_csv, "--test", test_csv, "--dictionary", TRIG5,
        "--bound", '{"epsilon":0.1,"B":1.7}', "--variant", "TrBasicBounded", "--json",
    ])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 5
    assert all(row["beta[TrBasicBounded]"] > 0 for row in rows)


@pytest.mark.parametrize("command", ["bounds", "transduce"])
def test_test_file_dimension_mismatch_exits_3(tmp_path, train_csv, command, capsys):
    wide = tmp_path / "wide.csv"
    write_unlabeled_csv(wide, np.full((10, 2), 0.5))
    code = run_cli([
        command, "--train", train_csv, "--test", wide, "--dictionary", '{"kind":"Trigonometric","m":4}',
        "--bound", TRB, "--out", tmp_path / "out",
    ])
    assert code == 3
    assert "data error: train has dimension 1, test has 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bounds", "transduce"])
def test_empty_train_file_with_test_block_exits_3(tmp_path, test_csv, command, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("x1,y\n")
    code = run_cli([
        command, "--train", empty, "--test", test_csv, "--dictionary", TRIG5, "--bound", TRB,
        "--out", tmp_path / "out",
    ])
    assert code == 3
    assert "positive multiple of train rows (0)" in capsys.readouterr().err


def test_bounds_test_rows_not_a_multiple_exits_3(tmp_path, train_csv, capsys):
    odd = tmp_path / "odd.csv"
    write_unlabeled_csv(odd, np.full((15, 1), 0.5))
    code = run_cli(["bounds", "--train", train_csv, "--test", odd, "--dictionary", TRIG5, "--bound", TRB])
    assert code == 3
    assert "test rows (15) must be a positive multiple of train rows (10)" in capsys.readouterr().err


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _bounds_rows(tmp_path, config, variants, capsys):
    path = tmp_path / "bounds-config.json"
    path.write_text(json.dumps(config))
    argv = ["bounds", "--config", path, "--json"]
    for variant in variants:
        argv += ["--variant", variant]
    assert run_cli(argv) == 0
    return json.loads(capsys.readouterr().out)["rows"]


@pytest.mark.parametrize(
    "variants,bound",
    [
        (["IndExact", "IndVarFirstOrder"], {"epsilon": 0.1, "B": 1.5, "sigma2": 0.04}),
        (["TrBasicBounded", "TrGeneralK"], {"epsilon": 0.1, "B": 1.7, "subexp": [{"beta_h": 0.5, "B_h": 3.0}]}),
    ],
)
def test_bounds_table_builds_each_geometry_once(tmp_path, train_csv, test_csv, variants, bound, monkeypatch, capsys):
    from slabreg import moments

    config = {
        "train": str(train_csv),
        "test": str(test_csv),
        "dictionary": json.loads(TRIG5),
        "bound": bound,
        "moments": {"kind": "monte_carlo", "n_samples": 5000, "seed": 3},
    }
    single = {}
    for variant in variants:
        single[variant] = _bounds_rows(tmp_path, config, [variant], capsys)
    monte_carlo = _counting(monkeypatch, moments, "monte_carlo_moments")
    test_gram = _counting(monkeypatch, moments, "empirical_test_moments")
    stats = _counting(monkeypatch, bounds, "compute_stats")
    rows = _bounds_rows(tmp_path, config, variants, capsys)
    transductive = variants[0].startswith("Tr")
    assert (len(monte_carlo), len(test_gram), len(stats)) == (int(not transductive), int(transductive), 1)
    # Each variant's columns equal those of a table built for that variant
    # alone, and so do the shared columns of the one geometry.
    for variant in variants:
        for k, row in enumerate(rows):
            for column in (f"beta[{variant}]", f"tau[{variant}]"):
                assert row[column] == single[variant][k][column]
    for row, alone in zip(rows, single[variants[0]], strict=True):
        for key in ("feature", "v", "alpha_hat", "c_ratio"):
            assert row[key] == alone[key]


def test_bounds_table_mixing_geometries_is_one_config_error_before_any_data(train_csv, test_csv, monkeypatch, capsys):
    # A table has the one geometry of its variants: an inductive variant
    # beside a transductive one is a config error naming both, raised
    # before any data file is read.
    def never(*args, **kwargs):
        raise data.DataError("a data file was read")

    for name in ("load_labeled_csv", "load_unlabeled_csv"):
        monkeypatch.setattr(data, name, never)
    for variants in (["IndExact", "TrBasicBounded"], ["TrBasicBounded", "IndVarFirstOrder", "IndExact"]):
        argv = ["bounds", "--train", train_csv, "--test", test_csv, "--dictionary", TRIG5,
                "--bound", '{"epsilon":0.1,"B":1.7,"sigma2":0.04}']
        for variant in variants:
            argv += ["--variant", variant]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: variants {variants[0]} and {variants[1]} cannot share a bounds table: one geometry per table"
        ]


@pytest.mark.parametrize("labeled", [True, False])
def test_csv_errors_name_the_file_line_past_blank_lines(tmp_path, labeled):
    # header on line 1, a good row on line 2, blank lines 3-4, the bad row on line 5
    path = tmp_path / "gappy.csv"
    if labeled:
        path.write_text("x1,y\n0.1,1.0\n\n\n0.2,abc\n")
        load = data.load_labeled_csv
    else:
        path.write_text("x1\n0.1\n\n\nabc\n")
        load = data.load_unlabeled_csv
    with pytest.raises(data.DataError, match="row 5: malformed number 'abc'"):
        load(path)


# Each case patches the fit config with one malformed number and names the field.
MALFORMED_NUMBERS = {
    "B": {"bound": {"variant": "IndExact", "epsilon": 0.1, "B": "1.5", "sigma2": 0.04}},
    "sigma2": {"bound": {"variant": "IndExact", "epsilon": 0.1, "B": 1.5, "sigma2": "x"}},
    "epsilon": {"bound": {"variant": "IndExact", "epsilon": "abc", "B": 1.5, "sigma2": 0.04}},
    "beta_h": {"bound": {"variant": "IndExact", "epsilon": 0.1, "B": 1.5, "sigma2": 0.04,
                         "subexp": [{"beta_h": "x", "B_h": 3.0}]}},
    "kappa": {"kappa": "abc"},
    "m": {"dictionary": {"kind": "Trigonometric", "m": "abc"}},
    "levels": {"dictionary": {"kind": "Haar", "parameters": {"levels": "x"}}},
    "scales": {"dictionary": {"kind": "MultiscaleGaussian", "parameters": {"centers": [[0.5]], "scales": ["x"]}}},
    "top": {"dictionary": {"kind": "KernelPCA",
                           "parameters": {"points": [[0.5]], "kernel": {"kind": "linear"}, "top": "x"}}},
}


@pytest.mark.parametrize("field", MALFORMED_NUMBERS)
def test_malformed_number_in_json_spec_exits_2(tmp_path, train_csv, field, capsys):
    config = {
        "train": str(train_csv),
        "dictionary": json.loads(TRIG5),
        "bound": json.loads(IND),
        "moments": {"kind": "monte_carlo", "n_samples": 100},
        **MALFORMED_NUMBERS[field],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli(["fit", "--config", path, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert f"{field} must be a number" in err


MISSING_KEYS = {
    "B_h": {"bound": {**json.loads(IND), "subexp": [{"beta_h": 0.5}]}},
    "B_y": {"bound": {**json.loads(IND), "y_subexp": {"b_y": 0.5}}},
    "centers": {"dictionary": {"kind": "MultiscaleGaussian", "parameters": {"scales": [2.0]}}},
    "scales": {"dictionary": {"kind": "MultiscaleGaussian", "parameters": {"centers": [[0.5]]}}},
}


@pytest.mark.parametrize("key", MISSING_KEYS)
def test_missing_key_in_json_spec_exits_2(tmp_path, train_csv, key, capsys):
    config = {
        "train": str(train_csv),
        "dictionary": json.loads(TRIG5),
        "bound": json.loads(IND),
        "moments": {"kind": "monte_carlo", "n_samples": 100},
        **MISSING_KEYS[key],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli(["fit", "--config", path, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert f"config error: missing key '{key}'" in err


@pytest.mark.parametrize("where", ["flag", "config"])
def test_null_epsilon_is_a_config_error_naming_the_key(tmp_path, train_csv, where, capsys):
    bound = {**json.loads(IND), "epsilon": None}
    argv = ["fit", "--train", train_csv, "--dictionary", TRIG5, "--out", tmp_path / "run"]
    if where == "flag":
        argv += ["--bound", json.dumps(bound)]
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"bound": bound}))
        argv += ["--config", path]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert "config error: bound epsilon must be a number, got None" in err
    assert "Traceback" not in err


def _sample(train_csv, test_csv):
    x_train, _ = data.load_labeled_csv(train_csv)
    return np.vstack([x_train, data.load_unlabeled_csv(test_csv)]), x_train.shape[0]


def test_transduce_evaluates_the_dictionary_once(tmp_path, train_csv, test_csv, evaluations):
    log = evaluations(dictionary.Trigonometric)
    code = run_cli([
        "transduce", "--train", train_csv, "--test", test_csv, "--dictionary", TRIG5,
        "--bound", TRB, "--out", tmp_path / "run",
    ])
    assert code == 0
    log.pop_sample(*_sample(train_csv, test_csv))
    assert not log.calls


def test_bounds_table_evaluates_the_dictionary_once(train_csv, test_csv, evaluations, capsys):
    log = evaluations(dictionary.Trigonometric)
    code = run_cli([
        "bounds", "--train", train_csv, "--test", test_csv, "--dictionary", TRIG5,
        "--bound", '{"epsilon":0.1,"B":1.7,"subexp":[{"beta_h":0.5,"B_h":3.0}]}', "--variant", "TrBasicBounded",
        "--variant", "TrGeneralK", "--json",
    ])
    assert code == 0
    log.pop_sample(*_sample(train_csv, test_csv))
    assert not log.calls


def _transduce_inputs(tmp_path, n, k_test, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=((k_test + 1) * n, 1))
    y = np.sin(2 * np.pi * x[:, 0]) + rng.uniform(-0.2, 0.2, size=x.shape[0])
    write_labeled_csv(tmp_path / "train.csv", x[:n], y[:n])
    write_unlabeled_csv(tmp_path / "test.csv", x[n:])
    return ["transduce", "--train", tmp_path / "train.csv", "--test", tmp_path / "test.csv"]


SPLIT_FAMILIES = {
    "Trigonometric": {"kind": "Trigonometric", "m": 16},
    "Haar": {"kind": "Haar", "parameters": {"levels": 3}},
    "MultiscaleGaussian": {"kind": "MultiscaleGaussian",
                           "parameters": {"centers": [[c] for c in np.linspace(0.05, 0.95, 8)], "scales": [9.0, 90.0]}},
}
SPLIT_BOUNDS = {
    "TrBasicBounded": {"variant": "TrBasicBounded", "epsilon": 0.1, "B": 1.7},
    "TrFirstOrder": {"variant": "TrFirstOrder", "epsilon": 0.1, "y_subexp": {"b_y": 1.0, "B_y": 6.0}},
    "TrVariance": {"variant": "TrVariance", "epsilon": 0.1, "B": 1.7},
    "TrGeneralK": {"variant": "TrGeneralK", "epsilon": 0.1, "subexp": [{"beta_h": 0.5, "B_h": 3.0}]},
}


@pytest.mark.parametrize("family", SPLIT_FAMILIES)
@pytest.mark.parametrize("bound", SPLIT_BOUNDS)
def test_transduce_artifacts_equal_those_of_the_whole_matrix_path(tmp_path, family, bound, monkeypatch):
    # Declared not rowwise, a family is evaluated once at all (k+1)N points
    # and split into two views of that matrix: the whole-matrix reference.
    argv = _transduce_inputs(tmp_path, 64, 2 if bound == "TrGeneralK" else 1, seed=31)
    argv += ["--dictionary", json.dumps(SPLIT_FAMILIES[family]), "--bound", json.dumps(SPLIT_BOUNDS[bound])]
    assert run_cli(argv + ["--out", tmp_path / "split"]) == 0
    for cls in (dictionary.Trigonometric, dictionary.Haar, dictionary.MultiscaleGaussian):
        monkeypatch.setattr(cls, "rowwise", False)
    assert run_cli(argv + ["--out", tmp_path / "whole"]) == 0
    for name in ("model.json", "summary.txt", "predictions.csv"):
        assert (tmp_path / "split" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes(), name


def test_transduce_holds_the_test_block_and_its_gram_only(tmp_path, peak_bytes, capsys):
    n = m = 1024
    argv = _transduce_inputs(tmp_path, n, 1, seed=32)
    family = {"kind": "MultiscaleGaussian",
              "parameters": {"centers": [[c] for c in np.linspace(0.0, 1.0, m // 4)], "scales": [4.0, 16.0, 64.0, 256.0]}}
    argv += ["--dictionary", json.dumps(family), "--bound", TRB, "--out", tmp_path / "run"]
    peak = peak_bytes(lambda: run_cli(argv))
    assert (tmp_path / "run" / "predictions.csv").is_file()
    # the kN x m test block and the m x m Gram, plus row-block temporaries;
    # the N x m training rows would add another 8 MB
    assert peak < (n * m + m * m) * 8 + 6 * 2**20


@pytest.mark.parametrize("schedule", selector.SCHEDULES)
def test_transduce_holds_the_test_block_alone(tmp_path, peak_bytes, schedule):
    n = m = 1024
    argv = _transduce_inputs(tmp_path, n, 1, seed=32)
    centers = m // 4
    family = {"kind": "MultiscaleGaussian",
              "parameters": {"centers": [[c] for c in np.linspace(0.0, 1.0, centers)], "scales": [4.0, 16.0, 64.0, 256.0]}}
    argv += ["--dictionary", json.dumps(family), "--bound", TRB, "--schedule", schedule, "--out", tmp_path / "run"]
    peak = peak_bytes(lambda: run_cli(argv))
    model = json.loads((tmp_path / "run" / "model.json").read_text())
    assert model["schedule"] == schedule and model["stopped_at"] >= 1
    # the kN x m test block and the kN x centers squared distances that its
    # Gaussians are evaluated from, plus row-block temporaries; the m x m
    # test Gram would add another 8 MB
    assert peak < (n * m + n * centers) * 8 + 6 * 2**20


def test_bounds_text_table_agrees_with_json_rows(train_csv, capsys):
    argv = [
        "bounds", "--train", train_csv, "--dictionary", TRIG5, "--bound",
        '{"epsilon":0.1,"B":1.5,"sigma2":0.04}', "--variant", "IndExact", "--variant", "IndVarFirstOrder",
    ]
    assert run_cli(argv) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert run_cli(argv + ["--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(lines) == len(rows) == 5
    for line, row in zip(lines, rows):
        cells = [None if cell == "None" else float(cell) for cell in line.split("\t")]
        assert dict(zip(header.split("\t"), cells)) == row
    assert header.split("\t")[:4] == ["feature", "v", "alpha_hat", "c_ratio"]


# Each case patches the fit config with one malformed value and names its key.
MALFORMED_FIT_VALUES = {
    "moments.n_samples": {"moments": {"kind": "monte_carlo", "n_samples": "lots"}},
    "moments.low": {"moments": {"kind": "monte_carlo", "n_samples": 100, "low": "a"}},
    "moments.dim": {"moments": {"kind": "monte_carlo", "n_samples": 100, "dim": 1.5}},
    "moments.seed": {"moments": {"kind": "monte_carlo", "n_samples": 100, "seed": "x"}},
    "seed": {"seed": "abc"},
    "threads": {"threads": "x"},
    "loo_index": {"loo_index": "abc"},
    "moments spec": {"moments": [1, 2]},
    "kappa": {"kappa": float("nan")},
    "moments.high": {"moments": {"kind": "monte_carlo", "n_samples": 100, "high": float("inf")}},
}


@pytest.mark.parametrize("key", MALFORMED_FIT_VALUES)
def test_malformed_fit_config_value_exits_2(tmp_path, train_csv, key, capsys):
    config = {
        "train": str(train_csv),
        "dictionary": json.loads(TRIG5),
        "bound": json.loads(IND),
        "moments": {"kind": "monte_carlo", "n_samples": 100},
        **MALFORMED_FIT_VALUES[key],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli(["fit", "--config", path, "--out", tmp_path]) == 2
    assert f"config error: {key} must be" in capsys.readouterr().err


RATE = {"kind": "rate-sobolev", "grid": [64, 128, 256, 512]}
HUGE_TRUTH = {"coefficients": [1.5e308], "noise": {"kind": "uniform", "scale": 0.1}}
MALFORMED_EXPERIMENT_VALUES = [
    ("grid", {"kind": "rate-sobolev", "grid": ["a", 64, 128, 256]}),
    ("grid", {"kind": "rate-sobolev", "grid": 5}),
    ("grid", {"kind": "rate-besov", "grid": []}),
    ("replicates", {**RATE, "replicates": "2"}),
    ("budget_seconds", {**RATE, "budget_seconds": "x"}),
    ("sigma_scale", {**RATE, "sigma_scale": "x"}),
    ("N", {"kind": "coverage", "N": "x"}),
    ("epsilon", {"kind": "coverage", "epsilon": "x"}),
    ("k_test", {"kind": "transductive", "k_test": "x"}),
    ("model spec", {"kind": "coverage", "model": 5}),
    ("model.size", {"kind": "coverage", "model": {"kind": "sobolev", "size": "x"}}),
    ("model.levels", {"kind": "coverage", "model": {"kind": "besov", "levels": 2.5}}),
    ("noise", {"kind": "coverage", "model": {"kind": "sobolev", "noise": "none"}}),
    ("noise", {"kind": "coverage", "model": {"kind": "sobolev", "noise": None}}),
    ("noise.scale", {"kind": "coverage", "model": {"kind": "sobolev", "noise": {"kind": "uniform", "scale": "x"}}}),
    ("noise.scale", {"kind": "coverage", "model": {"kind": "sobolev", "noise": {"kind": "uniform", "scale": [1]}}}),
    ("noise", {"kind": "coverage", "model": {"coefficients": [1.0, 0.5], "noise": "none"}}),
    ("model.coefficients", {"kind": "coverage", "model": {"coefficients": "abc"}}),
    ("model.coefficients", {"kind": "coverage", "model": {"coefficients": [1.0, "x"]}}),
    ("model.regularity", {"kind": "coverage", "model": {"coefficients": [1.0, 0.5], "regularity": "x"}}),
    ("sigma_scale", {**RATE, "sigma_scale": float("nan")}),
    ("sigma_scale", {**RATE, "sigma_scale": 1e308}),
    ("budget_seconds", {**RATE, "budget_seconds": float("nan")}),
    ("budget_seconds", {**RATE, "budget_seconds": -1}),
    ("budget_seconds", {**RATE, "budget_seconds": 0}),
    ("epsilon", {"kind": "coverage", "epsilon": float("nan")}),
    ("model.smoothness", {"kind": "coverage", "model": {"kind": "sobolev", "smoothness": float("inf")}}),
    ("model.scale", {"kind": "coverage", "model": {"kind": "besov", "scale": float("nan")}}),
    ("noise.scale", {"kind": "coverage", "model": {"kind": "sobolev", "noise": {"kind": "uniform", "scale": float("inf")}}}),
    # finite coefficients whose sup bound overflows
    ("model.coefficients", {**RATE, "model": {"coefficients": [0.5, 1e308, 0.2, 1e308]}}),
    ("model.coefficients", {**RATE, "model": {"coefficients": [0.5, 1.7e308, 0.2, 1.7e308]}}),
    ("model.coefficients", {"kind": "coverage", "model": {"coefficients": [0.5, 1e308, 0.2, 1e308]}}),
    ("model.coefficients", {"kind": "transductive", "model": {"coefficients": [0.5, 1e308, 0.2, 1e308]}}),
    # a finite label bound whose sup |theta Y|, TrGeneralK's rate, overflows
    ("model.coefficients", {"kind": "transductive", "variant": "TrGeneralK", "model": HUGE_TRUTH}),
    ("model.coefficients", {"kind": "coverage", "variant": "TrGeneralK", "model": HUGE_TRUTH}),
]


@pytest.mark.parametrize("key, config", MALFORMED_EXPERIMENT_VALUES)
def test_malformed_experiment_config_value_exits_2(tmp_path, key, config, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["experiment", "--config", path, "--out", tmp_path]) == 2
    assert f"config error: {key} must be" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# (command, key named in the error, config patch, extra flags)
NEGATIVE_SEEDS = [
    ("fit", "moments.seed", {"moments": {"kind": "monte_carlo", "n_samples": 100, "seed": -3}}, []),
    ("fit", "seed", {"seed": -1, "moments": {"kind": "monte_carlo", "n_samples": 100}}, []),
    ("fit", "seed", {"seed": -1}, []),
    ("fit", "seed", {}, ["--seed", -2]),
    ("experiment", "seed", {"kind": "coverage"}, ["--seed", -5]),
    ("experiment", "model.seed", {"kind": "coverage", "model": {"kind": "besov", "seed": -2}}, []),
]


@pytest.mark.parametrize("command,key,patch,flags", NEGATIVE_SEEDS)
def test_negative_seed_exits_2(tmp_path, train_csv, command, key, patch, flags, capsys):
    config = {}
    if command == "fit":
        config = {"train": str(train_csv), "dictionary": json.loads(TRIG5), "bound": json.loads(IND)}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config, **patch}))
    out = tmp_path / "run"
    assert run_cli([command, "--config", path, "--out", out, *flags]) == 2
    assert f"config error: {key} must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


def test_inductive_bounds_table_streams_the_dictionary_with_the_same_rows(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(150, 1))
    train = tmp_path / "train.csv"
    write_labeled_csv(train, x, np.sin(2 * np.pi * x[:, 0]) + rng.uniform(-0.2, 0.2, 150))
    config = {
        "train": str(train),
        "dictionary": {"kind": "Trigonometric", "m": 2048},
        "bound": {"epsilon": 0.1, "B": 1.5, "sigma2": 0.04},
    }
    variants = ["IndExact", "IndVarFirstOrder"]
    calls = _counting(monkeypatch, dictionary.Trigonometric, "evaluate")
    adjoint = _bounds_rows(tmp_path, config, variants, capsys)
    assert calls == []  # the statistics are the adjoint sums
    monkeypatch.setattr(bounds, "ADJOINT_READS", frozenset())
    streamed = _bounds_rows(tmp_path, config, variants, capsys)
    assert len(calls) == 3  # row blocks of 64, 64 and 22
    monkeypatch.setattr(dictionary.Trigonometric, "rowwise", False)
    assert streamed == _bounds_rows(tmp_path, config, variants, capsys)
    # labels of order one, so 1e-12 is the differential gate's bound
    for row, walked in zip(adjoint, streamed, strict=True):
        assert row.keys() == walked.keys()
        for key, value in row.items():
            assert value == pytest.approx(walked[key], rel=1e-12, abs=1e-12), key


@pytest.mark.parametrize("command", ["fit", "transduce", "experiment"])
def test_json_flag_belongs_to_bounds_only(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


@pytest.mark.parametrize("value", [1.5, float("inf"), float("nan"), "3", True, [3]])
def test_json_number_reads_only_whole_numbers_as_ints(value):
    assert json_number(3.0, "count", int) == 3
    with pytest.raises(ConfigError, match="count must be"):
        json_number(value, "count", int)


def test_experiment_model_given_as_coefficients(tmp_path):
    spec = {
        "coefficients": [0.5, 0.25, -0.125, 0.0625],
        "basis": "Trigonometric",
        "noise": {"kind": "uniform", "scale": 0.1},
        "regularity": 1.5,
    }
    path = tmp_path / "config.json"
    grid = [32, 48, 64, 96]
    path.write_text(json.dumps({"kind": "rate-sobolev", "grid": grid, "replicates": 2, "model": spec}))
    out = tmp_path / "run"
    assert run_cli(["experiment", "--config", path, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["model"] == spec
    direct = experiments.rate_experiment(experiments.SyntheticModel.from_spec(spec), grid, replicates=2)
    assert report["rows"] == json.loads(json.dumps(direct.rows))


def test_rate_besov_default_truth_spans_the_largest_grid_size(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"kind": "rate-besov", "grid": [32, 48, 64, 96], "replicates": 2}))
    out = tmp_path / "run"
    assert run_cli(["experiment", "--config", path, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    # 96 has 7 bits, so the spike truth has 6 levels and 64 Haar coefficients
    assert report["config_resolved"]["model"] == {"kind": "besov", "levels": 6}
    truth = experiments.besov_spike_model(levels=6)
    assert report["config"]["model"] == json.loads(json.dumps(truth.to_spec()))
    assert report["kind"] == "rate-besov" and len(report["rows"]) == 8


def test_rate_besov_null_model_is_the_default_spike_truth(tmp_path):
    # null means the default, as for every optional key: the Besov spike
    # truth, not the Sobolev one a null truth means elsewhere
    reports = []
    for extra in ({}, {"model": None}):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"kind": "rate-besov", "grid": [32, 48, 64, 96], "replicates": 2, **extra}))
        out = tmp_path / f"run{len(reports)}"
        assert run_cli(["experiment", "--config", path, "--out", out]) == 0
        reports.append(json.loads((out / "report.json").read_text()))
    default, null = reports
    assert null["config_resolved"]["model"] == default["config_resolved"]["model"] == {"kind": "besov", "levels": 6}
    assert null["config"]["model"] == default["config"]["model"]
    assert null["rows"] == default["rows"]


@pytest.mark.parametrize("kind", ["coverage", "transductive"])
def test_transductive_study_without_a_test_block_exits_2_naming_k_test(tmp_path, monkeypatch, kind, capsys):
    monkeypatch.setattr(experiments, "generate", lambda *args, **kwargs: pytest.fail("a replicate ran"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"kind": kind, "variant": "TrBasicBounded", "k_test": 0, "replicates": 100}))
    assert run_cli(["experiment", "--config", path, "--out", tmp_path / "run"]) == 2
    assert capsys.readouterr().err == (
        "config error: k_test must be at least 1 for the transductive variant TrBasicBounded, got 0\n"
    )


@pytest.mark.parametrize("command", ["fit", "transduce", "bounds"])
def test_epsilon_is_no_flag_it_lives_in_the_bound_spec(tmp_path, train_csv, command, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--train", train_csv, "--dictionary", TRIG5, "--bound", IND, "--epsilon", 0.2])
    assert exc.value.code == 2
    assert "unrecognized arguments: --epsilon 0.2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "transduce", "bounds"])
def test_unknown_config_key_exits_2_before_any_data_file_is_read(tmp_path, train_csv, monkeypatch, command, capsys):
    # epsilon lives in the bound spec; at the top level no command reads it.
    monkeypatch.setattr(data, "load_labeled_csv", lambda *args: pytest.fail("a data file was read"))
    config = {"train": str(train_csv), "dictionary": json.loads(TRIG5), "bound": json.loads(IND), "epsilon": 0.5}
    if command == "transduce":
        config["test"] = str(train_csv)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert run_cli([command, "--config", path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown config key 'epsilon'; this command reads ")
    assert not out.exists()


@pytest.mark.parametrize("kind", sorted(EXPERIMENT_CONFIGS))
def test_experiment_unknown_config_key_exits_2_before_any_replicate(tmp_path, monkeypatch, kind, capsys):
    monkeypatch.setattr(experiments, "generate", lambda *args, **kwargs: pytest.fail("a replicate ran"))
    # a rate experiment has no epsilon of its own; a study has no grid
    extra = {"epsilon": 0.1} if kind == "rate-sobolev" else {"grid": [32, 64]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"kind": kind, **EXPERIMENT_CONFIGS[kind], **extra}))
    out = tmp_path / "run"
    assert run_cli(["experiment", "--config", path, "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"config error: unknown config key {next(iter(extra))!r}; ")
    assert not out.exists()


def test_fit_reads_loo_index_from_the_config(tmp_path, train_csv, capsys):
    config = {
        "train": str(train_csv),
        "dictionary": json.loads(TRIG5),
        "bound": {"variant": "IndSvm", "epsilon": 0.1},
        "kappa": 0.01,
        "loo_index": [0, 1, 2, 3, 4],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert run_cli(["fit", "--config", path, "--out", out]) == 0
    x, y = data.load_labeled_csv(train_csv)
    family = dict_from_spec(json.loads(TRIG5))
    from slabreg.moments import exact_moments

    direct = selector.run_selection(
        data.Dataset(x=x, y=y), family, exact_moments(family),
        bounds.BoundSpec("IndSvm", 0.1), kappa=0.01, loo_index=np.arange(5),
    )
    model = json.loads((out / "model.json").read_text())
    assert model["trace"] == json.loads(json.dumps([r.to_json_dict() for r in direct.trace]))
    assert model["coefficients"] == direct.coefficients.tolist()
    path.write_text(json.dumps({**config, "loo_index": [0, 1, 2, 3, 10]}))
    assert run_cli(["fit", "--config", path, "--out", out]) == 2
    assert "loo_index entries must be valid training rows" in capsys.readouterr().err


def test_config_loo_index_overrides_a_gaussian_familys_own_map(tmp_path, capsys):
    # The family's map of its centers to training rows is used only when the config gives none.
    x = np.random.default_rng(12).uniform(size=(12, 1))
    train = tmp_path / "train.csv"
    write_labeled_csv(train, x, np.sin(2 * np.pi * x[:, 0]))
    config = {
        "train": str(train),
        "dictionary": {"kind": "MultiscaleGaussian", "parameters": {"centers": x.tolist(), "scales": [5.0, 50.0]}},
        "bound": {"variant": "IndSvm", "epsilon": 0.1},
        "moments": {"kind": "monte_carlo", "n_samples": 1000},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli(["fit", "--config", path, "--out", tmp_path / "run"]) == 0
    path.write_text(json.dumps({**config, "loo_index": [99] * 24}))
    assert run_cli(["fit", "--config", path, "--out", tmp_path / "bad"]) == 2
    assert capsys.readouterr().err.splitlines() == ["config error: loo_index entries must be valid training rows"]


def test_transduce_writes_its_summary_as_fit_does(tmp_path, train_csv, test_csv, capsys):
    out = tmp_path / "run"
    code = run_cli([
        "transduce", "--train", train_csv, "--test", test_csv, "--dictionary", TRIG5, "--bound", TRB, "--out", out,
    ])
    assert code == 0
    summary = (out / "summary.txt").read_text()
    assert summary.startswith("stopped_at: ")
    assert summary == capsys.readouterr().out
