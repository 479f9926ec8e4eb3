"""Byte identity of `hkquot analyze` on the benchmark's seed-0 jobs and on
three larger random systems.

The analyze workload of `bench/workloads.py` replays fixed base systems
with permuted coordinates; `bench/data/analyze_golden.json` pins the
digest of the rendered JSON of the first 30 jobs at seed 0.  This test
replays those jobs in-process and only reads `bench/`.
"""

import hashlib
import importlib.util
import itertools
import json
import sys
from pathlib import Path

import numpy as np

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


#: sha256 of the rendered analyze JSON of the systems `_large_systems`
#: draws, with their sizes and HK candidate counts
LARGE_DIGESTS = {
    (6, 3): (277, "7fb554b71c1afb756c338dc2ecdbdb5da5cb569ef13160858ac40d757629694e"),
    (8, 3): (10786, "92bb220e112b412fa933d4a39d08e085a08ee03edfd2db6f212ac8683748270f"),
    (8, 2): (25018, "e2e02c013da3b30677339d98c998da6a2cbb75569b1dfe3322384e7572a85fad"),
}


def _large_systems():
    """(n, k) and the weight-system JSON of the draws in `LARGE_DIGESTS`:
    default_rng(0) in that order, weights in [-3, 3], theta in
    +-{1/2, 1, 3/2}."""
    rng = np.random.default_rng(0)
    for n, k in LARGE_DIGESTS:
        weights = rng.integers(-3, 4, size=(n, k)).tolist()
        theta = [f"{int(s)}/2" for s in rng.choice([-3, -2, -1, 1, 2, 3], size=k)]
        yield (n, k), json.dumps({"rank": k, "weights": weights, "theta": theta})


def test_analyze_large_systems_match_pinned_digests():
    # sizes the bench never reaches, where most of the output is HK candidates
    for size, weights in _large_systems():
        payload = cmd_analyze(RunConfig(), weights)
        digest = hashlib.sha256(render(payload, "json").encode()).hexdigest()
        assert (len(payload["hk_candidates"]), digest) == LARGE_DIGESTS[size], size
