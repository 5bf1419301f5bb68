"""The benchmark's span tracer still binds every function it times.

``bench/run.py --trace 1`` patches functions by module and name; a refactor
that moves or renames one of them would otherwise surface only in a traced
benchmark run.
"""

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
