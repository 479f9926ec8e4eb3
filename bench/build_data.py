"""Write the benchmark's base data and golden answers into bench/data.

    PYTHONPATH=src python3 bench/build_data.py

Draws the base weight systems from fixed generator seeds, selects the
reduce support pairs, and records the answers of the current program as
golden: a canonical digest of each base system's analyze payload, the exact
payload digests of the first default-seed analyze jobs, and the classify
verdict of every support of every classify base system.  Run it again only
when the corpus itself is meant to change; a performance change must leave
these files alone.  It takes a few minutes.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from fractions import Fraction

import workloads as wl
from hkquot.cli import RunConfig, cmd_analyze, render
from hkquot.exactlin import kernel_basis
from hkquot.git_stability import classify_support, stabilizer
from hkquot.rep_core import WeightSystem, doubled_weights, weight_system_to_json
from hkquot.strata_examples import hirzebruch_weight_system, hol_consistent

THETA = ("1/2", "1", "3/2", "-1/2", "-1", "-3/2")
DEGENERACIES = ("zero weight", "repeated line", "opposite line", "theta = 0")

ANALYZE_SIGMA = (1, 2, 3, 5, 8)
ANALYZE_CLASSES = ((3, 2), (4, 2), (5, 2), (3, 3), (4, 3))
CLASSIFY_CLASSES = (((5, 2), False), ((6, 2), False), ((6, 3), False), ((4, 2), True), ((4, 3), True))
CLASSIFY_PER_CLASS = 4
#: default-seed analyze jobs whose exact payload digest is pinned
ANALYZE_EXACT_JOBS = 30


def random_system(rng: random.Random, n: int, k: int, degeneracy: str | None) -> dict:
    """Weights in [-3, 3]^k and theta in +-{1/2, 1, 3/2}^k, optionally degenerate."""
    w = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
    th = [rng.choice(THETA) for _ in range(k)]
    i, j = rng.sample(range(n), 2)
    if degeneracy == "zero weight":
        w[i] = [0] * k
    elif degeneracy == "repeated line":
        w[j] = list(w[i])
    elif degeneracy == "opposite line":
        w[j] = [-v for v in w[i]]
    elif degeneracy == "theta = 0":
        th = ["0"] * k
    return {"rank": k, "weights": w, "theta": th}


def systems_with_degeneracies(rng, shapes):
    """One (system, degeneracy) per (n, k) shape; every fifth one is degenerate."""
    out = []
    for serial, (n, k) in enumerate(shapes):
        kind = rng.choice(DEGENERACIES) if serial % 5 == 4 else None
        out.append((random_system(rng, n, k, kind), kind))
    return out


def sigma_json(n: int) -> dict:
    return weight_system_to_json(hirzebruch_weight_system(n))


def build_analyze():
    rng = random.Random("base:analyze")
    shapes = list(ANALYZE_CLASSES)
    base = []
    # interleave so each stretch of the cycle mixes cheap and costly systems
    for n, cls, (ws, kind) in zip(ANALYZE_SIGMA, shapes, systems_with_degeneracies(rng, shapes)):
        base.append({"sigma": n, "system": sigma_json(n)})
        base.append({"class": list(cls), "degeneracy": kind, "system": ws})
    write("analyze_systems.json", base)

    cfg = RunConfig()
    canonical = []
    for entry in base:
        ws = entry["system"]
        ident = wl.Relabel(tuple(range(len(ws["weights"]))), tuple(range(ws["rank"])), (1,) * ws["rank"])
        payload = json.loads(render(cmd_analyze(cfg, json.dumps(ws)), "json"))
        canonical.append(wl.digest(json.dumps(wl.canonical_analyze(payload, ident), sort_keys=True)))
        print("analyze base", len(canonical), flush=True)
    exact = []
    for job in itertools.islice(wl.analyze_stream(wl.DEFAULT_SEED), ANALYZE_EXACT_JOBS):
        exact.append(wl.digest(render(cmd_analyze(cfg, job.weights), "json")))
    write("analyze_golden.json", {"canonical": canonical, "seed0_exact": exact})


def verdict_char(v) -> str:
    if v.status == "unstable":
        return "U"
    if v.status == "stable":
        return "S"
    return "P" if v.polystable else "N"


def build_classify():
    rng = random.Random("base:classify")
    classes = [c for c in CLASSIFY_CLASSES for _ in range(CLASSIFY_PER_CLASS)]
    pool = [
        {"class": list(shape), "cotangent": cot, "degeneracy": kind, "system": ws}
        for (shape, cot), (ws, kind) in zip(
            classes, systems_with_degeneracies(rng, [shape for shape, _ in classes]))
    ]
    write("classify_pool.json", pool)
    golden = []
    for entry in pool:
        ws = ws_of(entry["system"])
        target = doubled_weights(ws) if entry["cotangent"] else ws
        golden.append("".join(
            verdict_char(classify_support(target, wl._unmask(m))) for m in range(1 << target.n)
        ))
        print("classify base", len(golden), flush=True)
    write("classify_golden.json", golden)


def ws_of(d: dict) -> WeightSystem:
    return WeightSystem(d["rank"], tuple(map(tuple, d["weights"])), tuple(map(Fraction, d["theta"])))


#: support pairs per Sigma_n and per random system; with more Sigma_n pairs the
#: median job lies well inside the Sigma_n latency mode rather than on its edge
REDUCE_PAIRS_SIGMA = 4
REDUCE_PAIRS_RANDOM = 2


def build_reduce():
    """Support pairs with trivial doubled stabilizer on which kn converges,
    plus plain ambient supports that are unstable or not polystable."""
    rng = random.Random("base:reduce")
    systems = [sigma_json(n) for n in ANALYZE_SIGMA]
    systems += [random_system(rng, n, k, None) for n, k in ((6, 2), (8, 2), (8, 3))]
    runner = wl.Runner(sys.modules["hkquot.cli"], sys.modules["hkquot.errors"])
    checker = wl.Checker(sys.modules["hkquot.strata_examples"], "reduce")
    pairs = []
    for serial, d in enumerate(systems):
        ws = ws_of(d)
        dws = doubled_weights(ws)
        found = 0
        while found < (REDUCE_PAIRS_SIGMA if serial < len(ANALYZE_SIGMA) else REDUCE_PAIRS_RANDOM):
            sx = frozenset(i for i in range(ws.n) if rng.random() < 0.7)
            sz = frozenset(i for i in range(ws.n) if rng.random() < 0.5)
            U = sx | {ws.n + i for i in sz}
            if any(p["system"] == d and p["support_x"] == sorted(sx) and p["support_z"] == sorted(sz)
                   for p in pairs):
                continue
            if not (classify_support(dws, U).polystable and stabilizer(dws, U).is_trivial
                    and hol_consistent(ws, sx & sz)):
                continue
            T = sorted(sx & sz)
            kern = kernel_basis([[ws.weights[i][a] for i in T] for a in range(ws.rank)], len(T)) if T else []
            pair = {"kind": "hyperkahler", "system": d, "support_x": sorted(sx), "support_z": sorted(sz),
                    "kernel": [[float(c) for c in v] for v in kern], "expect": wl.OK, "status": "converged"}
            if verify_pair(pair, runner, checker, rng):
                pairs.append(pair)
                found += 1
                print("reduce pair", len(pairs), flush=True)
    # plain kn: an unstable support ends diverged, a semistable but not
    # polystable one is undecided; theta = 0 makes the latter common
    wanted = {"U": 2, "N": 2}
    for d in systems[len(ANALYZE_SIGMA):] + [dict(s, theta=["0"] * s["rank"]) for s in systems[len(ANALYZE_SIGMA):]]:
        ws = ws_of(d)
        for _ in range(200):
            S = frozenset(i for i in range(ws.n) if rng.random() < 0.5)
            c = verdict_char(classify_support(ws, S))
            if wanted.get(c, 0) > 0 and S:
                wanted[c] -= 1
                pairs.append({"kind": "plain", "system": d, "support": sorted(S),
                              "expect": wl.OK if c == "U" else wl.UNDECIDED,
                              "status": "diverged" if c == "U" else None})
                break
    if any(wanted.values()):
        raise SystemExit(f"could not find plain supports: {wanted}")
    write("reduce_pairs.json", pairs)


def verify_pair(pair, runner, checker, rng) -> bool:
    job = wl.Job(0, "reduce", json.dumps(pair["system"]), json.dumps(wl._hol_zero_point(rng, pair)),
                 ws=pair["system"], meta={"pair": pair})
    return not checker.check(job, runner.run(job), wl.DEFAULT_SEED)


def write(name: str, data) -> None:
    wl.DATA.mkdir(exist_ok=True)
    (wl.DATA / name).write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    which = sys.argv[1:] or ["analyze", "classify", "reduce"]
    for name in which:
        globals()["build_" + name]()
