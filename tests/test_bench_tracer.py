"""The benchmark's span tracer still binds every function it times.

``bench/run.py --trace 1`` patches functions by module and name; a refactor
that moves or renames one of them would otherwise surface only in a traced
benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Import the bench modules without writing bytecode caches into bench/.
ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}

ENTER_AND_EXIT = """
import sys
sys.path[:0] = ["bench", "src"]
import run
import slabreg.cli
from tracer import Tracer

with Tracer("slabreg", run.layer_targets(), run.COUNTERS) as tracer:
    pass
print(len(tracer.targets), "targets bound and restored")
"""


def test_bench_tracer_selftest_and_layer_targets_bind():
    selftest = subprocess.run(
        [sys.executable, "bench/tracer.py"], cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=120
    )
    assert selftest.returncode == 0, selftest.stderr
    assert "tracer self-test passed" in selftest.stdout
    bind = subprocess.run(
        [sys.executable, "-c", ENTER_AND_EXIT], cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=120
    )
    assert bind.returncode == 0, bind.stderr
    assert "targets bound and restored" in bind.stdout


# One small run of each benchmarked command through cli.main under the tracer.
TRACED_RUN = """
import json
import sys
from pathlib import Path

sys.path[:0] = ["bench", "src", "tests"]
import numpy as np
import run
from conftest import write_labeled_csv, write_unlabeled_csv
from slabreg import cli
from tracer import Tracer

work = Path(sys.argv[1])
rng = np.random.default_rng(0)
x = rng.uniform(size=(256, 1))
write_labeled_csv(work / "train.csv", x, np.sin(2 * np.pi * x[:, 0]) + rng.uniform(-0.1, 0.1, 256))
write_unlabeled_csv(work / "test.csv", rng.uniform(size=(256, 1)))
(work / "rate.json").write_text(json.dumps({"grid": [256, 320, 384, 448], "replicates": 1}))
sample = ["--train", work / "train.csv", "--dictionary", '{"kind": "Trigonometric", "m": 16}']
commands = {
    "fit": ["fit", *sample, "--bound", '{"variant": "IndExact", "epsilon": 0.1, "B": 1.2, "sigma2": 0.01}'],
    "transduce": ["transduce", *sample, "--test", work / "test.csv",
                  "--bound", '{"variant": "TrBasicBounded", "epsilon": 0.1, "B": 1.2}'],
    "rate-sobolev": ["experiment", "--kind", "rate-sobolev", "--config", work / "rate.json"],
}
results = {}
for name, argv in commands.items():
    with Tracer("slabreg", run.layer_targets(), run.COUNTERS) as tracer:
        code = cli.main([str(arg) for arg in [*argv, "--out", work / name]])
    calls = {span: record[0] for span, record in tracer.spans.items()}
    results[name] = {"exit": code, "calls": calls, "counts": dict(tracer.counts)}
(work / "traced.json").write_text(json.dumps(results))
"""

TRACED_SPANS = {
    # an inductive trigonometric fit evaluates no feature rows (bounds.compute_stats)
    "fit": [
        "data.load_labeled_csv", "bounds.compute_stats", "bounds.compute_radius",
        "bounds.slab_centers", "moments.exact_moments", "selector.run_selection",
    ],
    "transduce": [
        "data.load_labeled_csv", "data.load_unlabeled_csv", "data.write_predictions_csv", "dictionary.evaluate",
        "bounds.compute_stats", "moments.empirical_test_moments", "selector.run_selection",
    ],
    "rate-sobolev": [
        "experiments.rate_experiment", "experiments.generate", "experiments.sup_bound", "moments.exact_moments",
        "bounds.compute_stats", "selector.run_selection", "selector.clip_coefficients",
        "experiments.exact_excess_risk",
    ],
}


def test_traced_commands_record_their_layers(tmp_path):
    traced = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(tmp_path)], cwd=ROOT, env=ENV, capture_output=True, text=True,
        timeout=120,
    )
    assert traced.returncode == 0, traced.stderr
    results = json.loads((tmp_path / "traced.json").read_text())
    assert sorted(results) == sorted(TRACED_SPANS)
    for name, spans in TRACED_SPANS.items():
        result = results[name]
        assert result["exit"] == 0, name
        assert result["calls"]["cli.main"] == 1, name
        assert all(result["calls"].get(span, 0) > 0 for span in spans), (name, result["calls"])
        for counter in ("selector.steps", "bounds.stats_cells", "moments.gram_mb"):
            assert result["counts"].get(counter, 0) > 0, (name, counter, result["counts"])
