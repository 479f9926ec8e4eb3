"""Byte identity of `hkquot analyze` on the benchmark's seed-0 jobs.

The analyze workload of `bench/workloads.py` replays fixed base systems
with permuted coordinates; `bench/data/analyze_golden.json` pins the
digest of the rendered JSON of the first 30 jobs at seed 0.  This test
replays those jobs in-process and only reads `bench/`.
"""

import importlib.util
import itertools
import sys
from pathlib import Path

from hkquot.cli import RunConfig, cmd_analyze, render

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_analyze_seed0_matches_golden_digests():
    wl = load_workloads()
    golden = wl.load_data("analyze_golden.json")["seed0_exact"]
    assert len(golden) == 30
    jobs = itertools.islice(wl.analyze_stream(wl.DEFAULT_SEED), len(golden))
    got = [wl.digest(render(cmd_analyze(RunConfig(), job.weights), "json")) for job in jobs]
    mismatched = [i for i, (g, w) in enumerate(zip(got, golden)) if g != w]
    assert mismatched == []
