"""Byte identity of `hkquot analyze` on the benchmark's seed-0 jobs and on
four larger random systems.

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
    # high rank: most of the time is the cell table's closure
    (8, 6): (202, "ec2b2c823393efb85eb2ff93d11a5fe04cfc9688a082e4e13d1219d1d97ce71b"),
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


#: sha256 of the rendered analyze JSON of Sigma_n (theta = (1/2, 1/2)) and
#: of three degenerate systems: a zero weight, opposite lines with
#: theta = 0, and w with 2w (stabilizers of order 2, 3 and 6)
PINNED_DIGESTS = {
    "sigma1": "352809482910e30560f2191309cf66f8410e83b4e8bb6541d53d938379cf5514",
    "sigma2": "c67ff06a82e9ceeb7b857d2e0342f96a6c3f4a43cdcd6c52165c8eaea617d1a4",
    "sigma3": "c353264e063eacf8ce1431b2259768f476101a5257cf41159969395ab65df833",
    "sigma5": "f6e7dc925b15fb6ed3144e13209c987e05cb024de9221addfbc11ba6a579fe1f",
    "sigma8": "f28b76b7bfe25493690ee077093663482e5df210cf42af5f0729b4611aefe0b8",
    "zero-weight": "0ba4050b7a12e65ff1be86cb8466ce6571491fe2f46aa3cba172a47acafa4bb1",
    "opposite-theta0": "870ffe5a4cc98f40d79313abe22b2d2717ad9eb19be725f42602239198d3317a",
    "w-and-2w": "c16173858e0de9928b262a118f41e5b3c8845918f75bb67f9c2d906470920613",
}


def _pinned_systems():
    for n in (1, 2, 3, 5, 8):
        yield f"sigma{n}", {"rank": 2, "weights": [[1, 0], [1, 0], [0, 1], [-n, 1]], "theta": ["1/2", "1/2"]}
    yield "zero-weight", {"rank": 2, "weights": [[1, 0], [0, 0], [0, 1], [-2, 1]], "theta": ["1/2", "1"]}
    yield "opposite-theta0", {
        "rank": 2, "weights": [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]], "theta": ["0", "0"]
    }
    yield "w-and-2w", {"rank": 2, "weights": [[1, 1], [2, 2], [0, 1], [-1, 2]], "theta": ["1/2", "3/2"]}


def test_analyze_matches_pinned_digests():
    got = {
        name: hashlib.sha256(render(cmd_analyze(RunConfig(), json.dumps(data)), "json").encode()).hexdigest()
        for name, data in _pinned_systems()
    }
    assert got == PINNED_DIGESTS
