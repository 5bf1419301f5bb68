"""Benchmark slabreg's pipeline end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One operation is one in-process ``slabreg.cli.main(argv)`` call on inputs
generated from the seed (see ``workloads.py``); operations run one at a time
in a closed loop, after one warm-up call (which also gives the
``tracemalloc`` peak in untraced runs). ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics from spans recorded
around calls into each module (``tracer.py``). Every operation's artifacts
are checked, and an operation that exits nonzero, raises or fails a check
counts as failed. The last line of stdout is the result as one JSON object.
"""

import os

# The BLAS pool is pinned before numpy is loaded, here and in every
# interpreter started below, so the numbers are about the program and not
# the scheduler.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer, selftest
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".bench_work")  # relative to ROOT, so artifacts echo the same paths in every checkout
MIN_OPS = 3
SETUP_IMPORTS = 5
HELD_OUT_SEED = 8191  # for checking a claimed gain; not used while building the benchmark

SPANS = (
    "cli.main",
    "data.load_labeled_csv",
    "data.load_unlabeled_csv",
    "data.write_predictions_csv",
    "dictionary.evaluate",
    "bounds.compute_stats",
    "bounds.compute_radius",
    "bounds.slab_centers",
    "moments.exact_moments",
    "moments.empirical_test_moments",
    "selector.run_selection",
    "selector.clip_coefficients",
    "experiments.sup_bound",
    "experiments.generate",
    "experiments.exact_excess_risk",
    "experiments.rate_experiment",
)
# Counts computed from the shapes a call returns, per operation.
COUNT_UNITS = {
    "dictionary.evaluate.cells": "count",
    "bounds.stats_cells": "count",
    "moments.gram_mb": "MB",
    "selector.steps": "count",
}


def _gram_mb(moments):
    return {"moments.gram_mb": moments.m**2 * 8 / 2**20}


COUNTERS = {
    "dictionary.evaluate": lambda values: {"dictionary.evaluate.cells": values.size},
    "bounds.compute_stats": lambda s: {"bounds.stats_cells": (s.k_test + 1) * s.n_train * s.m},
    "moments.exact_moments": _gram_mb,
    "moments.empirical_test_moments": _gram_mb,
    "selector.run_selection": lambda model: {"selector.steps": len(model.trace)},
}


def layer_targets():
    """(span, owner, attribute) for every public function the trace times."""
    from slabreg import dictionary, experiments

    targets = []
    for span in SPANS:
        module_name, function = span.split(".")
        if span == "dictionary.evaluate":
            targets += [
                (span, cls, "evaluate")
                for cls in vars(dictionary).values()
                if isinstance(cls, type) and issubclass(cls, dictionary.FeatureDictionary) and "evaluate" in vars(cls)
            ]
        elif span == "experiments.sup_bound":
            targets.append((span, experiments.SyntheticModel, "sup_bound"))
        else:
            targets.append((span, sys.modules[f"slabreg.{module_name}"], function))
    return targets


@dataclass
class Op:
    wall_s: float
    cpu_s: float
    artifacts: dict
    problems: list


def _hashes(artifacts):
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(artifacts.items())}


class Runner:
    """Runs and checks operations of one workload at one seed."""

    def __init__(self, workload, seed):
        from slabreg import cli

        self.cli = cli
        self.workload = workload
        self.work = WORK / f"{workload.name}-s{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.out = self.work / "out"
        self.argv = workload.inputs(self.work, seed) + ["--out", str(self.out)]
        inputs = hashlib.sha256(json.dumps(self.argv).encode())
        for path in sorted(self.work.iterdir()):
            inputs.update(path.read_bytes())
        # Artifact hashes of earlier runs on the same inputs in this checkout.
        self.reference_file = WORK / "reference" / f"{workload.name}-{inputs.hexdigest()[:16]}.json"
        self.reference = json.loads(self.reference_file.read_text()) if self.reference_file.is_file() else None
        self.ops = []

    def run(self):
        shutil.rmtree(self.out, ignore_errors=True)
        gc.collect()
        sink = io.StringIO()
        problems = []
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                code = self.cli.main(self.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an operation that raises counts as failed
                code = f"{type(exc).__name__}: {exc}"
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if code != 0:
            problems.append(f"exit {code}; output tail: {sink.getvalue()[-300:]!r}")
        artifacts = {}
        for name in self.workload.artifacts:
            path = self.out / name
            if path.is_file():
                artifacts[name] = path.read_bytes()
            else:
                problems.append(f"{name} was not written")
        if not problems:
            try:
                problems += self.workload.check(artifacts)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                problems.append(f"malformed artifact: {type(exc).__name__}: {exc}")
            hashes = _hashes(artifacts)
            if self.reference is None:
                self.reference = hashes
            elif hashes != self.reference:
                problems.append("artifact bytes differ from the first operation or an earlier run")
        op = Op(wall, cpu, artifacts, problems)
        self.ops.append(op)
        return op

    def finish(self):
        """Record the reference hashes for later runs and remove the inputs."""
        if self.reference is not None and not self.failed and not self.reference_file.is_file():
            self.reference_file.parent.mkdir(parents=True, exist_ok=True)
            self.reference_file.write_text(json.dumps(self.reference))
        shutil.rmtree(self.work, ignore_errors=True)

    @property
    def failed(self):
        return sum(1 for op in self.ops if op.problems)

    def digest(self):
        good = next((op for op in self.ops if not op.problems), None)
        return None if good is None else self.workload.digest(good.artifacts)


def measure_setup():
    """Median time for a fresh interpreter to import slabreg and its dependencies.

    The first import in a new checkout also writes the bytecode caches; the
    median keeps that one slow import out of the figure.
    """
    env = {**os.environ, "PYTHONPATH": "src"}
    command = [sys.executable, "-c", "import slabreg"]
    times = []
    for _ in range(SETUP_IMPORTS):
        start = time.perf_counter()
        subprocess.run(command, env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed_loop(seconds, step):
    """Call ``step`` until ``seconds`` have passed and at least MIN_OPS calls ran."""
    start = time.perf_counter()
    count = 0
    while count < MIN_OPS or time.perf_counter() - start < seconds:
        step()
        count += 1


def measure_end_to_end(runner, seconds):
    setup_s = measure_setup()
    # The warm-up operation is the memory pass: allocation tracing is on for
    # it alone and never overlaps a timed operation.
    gc.collect()
    tracemalloc.start()
    try:
        runner.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    timed = []
    timed_loop(seconds, lambda: timed.append(runner.run()))
    metrics = {
        "wall_s": (statistics.median(op.wall_s for op in timed), "s"),
        "cpu_s": (statistics.median(op.cpu_s for op in timed), "s"),
        "peak_mb": (peak / 2**20, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, len(timed)


def measure_layers(runner, seconds):
    """Alternate untraced and traced operations; report per-operation medians."""
    selftest()
    targets = layer_targets()
    runner.run()  # warm-up
    plain, traced, layers = [], [], []

    def pair():
        plain.append(runner.run())
        with Tracer("slabreg", targets, COUNTERS) as tracer:
            op = runner.run()
        traced.append(op)
        if abs(tracer.self_total() - op.wall_s) > 1e-3 + 1e-3 * op.wall_s:
            op.problems.append(f"span self times sum to {tracer.self_total()} s, operation took {op.wall_s} s")
        if tracer.spans.get("cli.main", (0,))[0] != 1:
            op.problems.append("cli.main was not traced exactly once")
        steps = tracer.counts.get("selector.steps", 0)
        values = {}
        for span in SPANS:
            calls, total_s, self_s = tracer.spans.get(span, (0, 0.0, 0.0))
            values[f"{span}.calls"] = (calls, "count")
            values[f"{span}.total_s"] = (total_s, "s")
            values[f"{span}.self_s"] = (self_s, "s")
        for name, unit in COUNT_UNITS.items():
            values[name] = (tracer.counts.get(name, 0), unit)
        self_s = tracer.spans.get("selector.run_selection", (0, 0.0, 0.0))[2]
        values["selector.self_s_per_step"] = (self_s / steps if steps else 0.0, "s")
        layers.append(values)

    timed_loop(seconds, pair)
    metrics = {name: (statistics.median(v[name][0] for v in layers), unit) for name, (_, unit) in layers[0].items()}
    overhead = statistics.median(op.wall_s for op in traced) - statistics.median(op.wall_s for op in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, len(traced)


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_block(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": PINNED_ENV,
        "library_threads": 1,
        "commit": _commit(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "slabreg" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no slabreg sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.seed)
    try:
        if args.trace:
            metrics, samples = measure_layers(runner, args.seconds)
        else:
            metrics, samples = measure_end_to_end(runner, args.seconds)
    finally:
        runner.finish()
    attempted, failed = len(runner.ops), runner.failed
    info = {
        "workload": workload.name,
        "mode": "traced" if args.trace else "untraced",
        "loop": "closed, one operation at a time, after one warm-up",
        "samples": samples,
        "tail": f"omitted: {samples} operations per run leave fewer than ten beyond any tail percentile",
        "fail_frac": failed / attempted,
        "problems": sorted({p for op in runner.ops for p in op.problems}),
        "digest": runner.digest(),
        "machine": machine_block(args.seed),
    }
    print("bench: " + json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
