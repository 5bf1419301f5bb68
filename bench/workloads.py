"""The benchmark's workloads: seeded inputs, CLI arguments and output checks.

Every input is generated here from the workload seed with numpy alone; the
program only ever sees the CSV files and the JSON config written below.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


def _trig_truth(x: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """sum_k coefs[k-1] theta_k(x) over 1, sqrt2 cos(2 pi j x), sqrt2 sin(2 pi j x), ..."""
    f = np.full(x.shape, coefs[0])
    for k in range(1, coefs.size):
        wave = np.cos if k % 2 else np.sin
        f += coefs[k] * math.sqrt(2.0) * wave(2.0 * math.pi * ((k + 1) // 2) * x)
    return f


def _trig_sup(coefs: np.ndarray) -> float:
    """Honest bound on sup |f|: |c_1| + sqrt2 * sum_{k>1} |c_k|."""
    return float(abs(coefs[0]) + math.sqrt(2.0) * np.abs(coefs[1:]).sum())


def _write_csv(path: Path, x: np.ndarray, y: np.ndarray | None) -> None:
    header, rows = ("x1", zip(x)) if y is None else ("x1,y", zip(x, y))
    lines = [",".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join([header, *lines]) + "\n")


def _signed_decay(rng: np.random.Generator, size: int, power: float) -> np.ndarray:
    return rng.choice([-1.0, 1.0], size=size) * np.arange(1, size + 1, dtype=float) ** -power


def _fit_trig_inputs(work: Path, seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    n = 4096
    coefs = _signed_decay(rng, 256, 0.25)
    x = rng.uniform(size=n)
    _write_csv(work / "train.csv", x, _trig_truth(x, coefs) + rng.uniform(-0.1, 0.1, size=n))
    config = {
        "train": str(work / "train.csv"),
        "dictionary": {"kind": "Trigonometric", "m": 4096},
        "bound": {"variant": "IndVarFirstOrder", "epsilon": 0.1},
        "seed": seed,
    }
    (work / "config.json").write_text(json.dumps(config))
    return ["fit", "--config", str(work / "config.json")]


TRANSDUCE_SCALES = [4.0, 16.0, 64.0, 256.0]


def _transduce_gauss_inputs(work: Path, seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    n, noise = 2048, 0.1
    # No constant term: a zero-mean truth gives every seed about as many
    # negative labels as positive ones, and the cost of compute_stats' fourth
    # powers depends on that mix.
    coefs = np.concatenate([[0.0], _signed_decay(rng, 31, 1.5)])
    x = rng.uniform(size=2 * n)
    y = _trig_truth(x, coefs) + rng.uniform(-noise, noise, size=2 * n)
    _write_csv(work / "train.csv", x[:n], y[:n])
    _write_csv(work / "test.csv", x[n:], None)
    centers = np.sort(rng.uniform(size=512))
    config = {
        "train": str(work / "train.csv"),
        "test": str(work / "test.csv"),
        "dictionary": {
            "kind": "MultiscaleGaussian",
            "parameters": {"centers": [[float(c)] for c in centers], "scales": TRANSDUCE_SCALES},
        },
        "bound": {"variant": "TrBasicBounded", "epsilon": 0.1, "B": _trig_sup(coefs) + noise},
        "seed": seed,
    }
    (work / "config.json").write_text(json.dumps(config))
    return ["transduce", "--config", str(work / "config.json")]


def _rate_sobolev_inputs(work: Path, seed: int) -> list[str]:
    config = {
        "kind": "rate-sobolev",
        "grid": [256, 512, 1024, 2048],
        "replicates": 2,
        "model": {"kind": "sobolev", "size": 4096},
        "seed": seed,
    }
    (work / "config.json").write_text(json.dumps(config))
    return ["experiment", "--config", str(work / "config.json")]


def _check_fit(artifacts: dict[str, bytes]) -> list[str]:
    """Replaying the trace gives the stored coefficients; every delta but the
    last reaches kappa (the GreedyMax stopping rule)."""
    model = json.loads(artifacts["model.json"])
    trace = model["trace"]
    problems = []
    if not trace:
        problems.append("model.json: empty projection trace")
    replay = np.zeros(len(model["coefficients"]))
    for record in trace:
        replay[record["feature"] - 1] += record["update"]
    if replay.tolist() != model["coefficients"]:
        problems.append("model.json: replayed trace does not give the stored coefficients")
    if any(r["delta"] < model["kappa"] for r in trace[:-1]):
        problems.append("model.json: a delta before the last one is below kappa")
    return problems


def _check_transduce(artifacts: dict[str, bytes]) -> list[str]:
    problems = _check_fit(artifacts)
    lines = artifacts["predictions.csv"].decode().splitlines()
    values = [float(line.split(",")[1]) for line in lines[1:]]
    if lines[0] != "index,prediction" or len(values) != 2048 or not all(map(math.isfinite, values)):
        problems.append("predictions.csv: expected 2048 finite predictions")
    return problems


def _check_rate(artifacts: dict[str, bytes]) -> list[str]:
    report = json.loads(artifacts["report.json"])
    rows = report["rows"]
    problems = []
    if len(rows) != 8 or not all(isinstance(r["mse"], float) and math.isfinite(r["mse"]) for r in rows):
        problems.append("report.json: expected 8 rows with finite mse")
    if not isinstance(report.get("slope"), float) or not math.isfinite(report["slope"]):
        problems.append("report.json: slope is missing or not finite")
    if len(artifacts["report.csv"].decode().splitlines()) != 9:
        problems.append("report.csv: expected a header and 8 rows")
    return problems


def _sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _fit_digest(artifacts: dict[str, bytes]) -> str:
    model = json.loads(artifacts["model.json"])
    core = json.dumps({"coefficients": model["coefficients"], "trace": model["trace"]}, sort_keys=True)
    return _sha256(core.encode(), artifacts.get("predictions.csv", b""))


def _rate_digest(artifacts: dict[str, bytes]) -> str:
    report = json.loads(artifacts["report.json"])
    return _sha256(json.dumps({"rows": report["rows"], "slope": report["slope"]}, sort_keys=True).encode())


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (BENCHMARK.json and README.md say why each was chosen).

    ``inputs(work, seed)`` writes the inputs under ``work`` and returns the
    CLI arguments (without ``--out``); ``check`` returns the problems found in
    one operation's artifacts; ``digest`` hashes the numerical results
    (coefficients, trace, predictions or report rows) so that runs of two
    commits can be compared.
    """

    name: str
    artifacts: tuple[str, ...]
    inputs: Callable[[Path, int], list[str]]
    check: Callable[[dict[str, bytes]], list[str]]
    digest: Callable[[dict[str, bytes]], str]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fit-trig-4096",
            ("model.json",),
            _fit_trig_inputs,
            _check_fit,
            _fit_digest,
        ),
        Workload(
            "transduce-gauss-2048",
            ("model.json", "predictions.csv"),
            _transduce_gauss_inputs,
            _check_transduce,
            _fit_digest,
        ),
        Workload(
            "rate-sobolev",
            ("report.json", "report.csv"),
            _rate_sobolev_inputs,
            _check_rate,
            _rate_digest,
        ),
    )
}
