"""Seeded job streams for the benchmark workloads, and the per-job checks.

Every job is one CLI invocation's worth of work: ``hkquot.cli.cmd_<command>``
on JSON text followed by ``hkquot.cli.render(payload, "json")``.  The inputs
come from checked-in base data in ``bench/data`` and the run seed:

* analyze and classify use fixed base weight systems, and the seed picks a
  *relabeling* of each one (a permutation of the coordinates and, for
  classify, a signed permutation of the torus basis).  A relabeled system poses the same GIT
  problem, so its exact answer is known for every seed by mapping the
  base answer, yet every LP the program solves has different data.  This
  keeps the work per run steady across seeds while each seed still feeds
  the program inputs it has not seen.
* classify draws the queried supports (evenly over support sizes, see
  _by_size_evenly), the point coordinates and which earlier supports
  repeat from the seed.
* reduce uses a fixed set of support pairs and draws the points on the
  hol-moment zero locus from the seed.

The base data, and the golden answers for it, are written by
``bench/build_data.py``.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
WORKLOADS = ("analyze", "classify", "reduce")
DEFAULT_SEED = 0

#: share of classify queries that ask about a (system, support) pair for the
#: first time in the run; the rest repeat an earlier pair with a new point
CLASSIFY_NEW_SHARE = 0.72
#: first-time classify queries one relabeling of a base system serves; the
#: next first-time query on that system gets a fresh relabeling
CLASSIFY_INSTANCE_QUERIES = 4
#: share of reduce jobs that are plain ambient ``kn`` on a non-polystable support
REDUCE_PLAIN_SHARE = 0.1

#: exit classes, as ``hkquot.cli.main`` maps exceptions onto exit codes
OK, PRECONDITION, UNDECIDED = "ok", "precondition", "undecided"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_data(name: str):
    return json.loads((DATA / name).read_text())


# ---------------------------------------------------------------------------
# relabelings


@dataclass(frozen=True)
class Relabel:
    """Coordinate i moves to perm[i]; torus axis a becomes sign[a] * old axis axes[a]."""

    perm: tuple[int, ...]
    axes: tuple[int, ...]
    signs: tuple[int, ...]

    @staticmethod
    def draw(rng: random.Random, n: int, k: int, torus: bool = True) -> "Relabel":
        """A random relabeling; torus=False keeps the torus basis."""
        perm = list(range(n))
        rng.shuffle(perm)
        if not torus:
            return Relabel(tuple(perm), tuple(range(k)), (1,) * k)
        axes = list(range(k))
        rng.shuffle(axes)
        return Relabel(tuple(perm), tuple(axes), tuple(rng.choice((1, -1)) for _ in range(k)))

    def system(self, ws: dict) -> dict:
        k = len(self.axes)
        weights = [None] * len(self.perm)
        for i, w in enumerate(ws["weights"]):
            weights[self.perm[i]] = [self.signs[a] * w[self.axes[a]] for a in range(k)]
        theta = [_fmt(self.signs[a] * Fraction(ws["theta"][self.axes[a]])) for a in range(k)]
        return {"rank": ws["rank"], "weights": weights, "theta": theta}

    def forward(self, S, doubled: bool = False) -> frozenset:
        return frozenset(self._map(self.perm, S, doubled))

    def back(self, S, doubled: bool = False) -> frozenset:
        inv = [0] * len(self.perm)
        for i, j in enumerate(self.perm):
            inv[j] = i
        return frozenset(self._map(inv, S, doubled))

    def _map(self, table, S, doubled):
        n = len(table)
        for i in S:
            yield table[i] if i < n or not doubled else n + table[i - n]


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _mask(S) -> int:
    return sum(1 << i for i in S)


def _unmask(m: int) -> frozenset:
    return frozenset(i for i in range(m.bit_length()) if m >> i & 1)


# ---------------------------------------------------------------------------
# jobs


@dataclass
class Job:
    """One unit of timed work plus what its check needs to know."""

    index: int
    command: str  # "analyze" | "classify" | "reduce"
    weights: str  # weight-system JSON text handed to the CLI
    point: str = ""  # point JSON text, empty for analyze
    ws: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    #: a run may stop after this job; analyze stops only after whole cycles,
    #: so every run times the same mix of systems
    cycle_end: bool = True

    def input_digest(self) -> str:
        return digest(self.command + "\0" + self.weights + "\0" + self.point)


def _random_coord(rng: random.Random) -> list[float]:
    z = cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0.0, 2.0 * math.pi))
    return [z.real, z.imag]


def analyze_stream(seed: int):
    """The base systems in checked-in order, cycled, each job with freshly
    permuted coordinates.  The torus basis is kept: changing it changes the
    chamber walk's order and the cost of a job by up to 2x, which a run of
    a few dozen jobs would not average out."""
    base = load_data("analyze_systems.json")
    rng = random.Random(f"analyze:{seed}")
    index = 0
    while True:
        for b, entry in enumerate(base):
            ws = entry["system"]
            r = Relabel.draw(rng, len(ws["weights"]), ws["rank"], torus=False)
            rel = r.system(ws)
            yield Job(index, "analyze", json.dumps(rel), ws=rel, cycle_end=b == len(base) - 1,
                      meta={"base": b, "relabel": r, "sigma": entry.get("sigma")})
            index += 1


def classify_stream(seed: int):
    """Numeric classify queries over relabeled instances of the base pool.

    Queries come in rounds: one first-time query on each base system plus
    enough repeats of earlier pairs to make CLASSIFY_NEW_SHARE, shuffled.
    Every stretch of a run then holds the same mix of systems, whose verdict
    costs differ by 100x.  First-time queries on a base system take its
    supports in the order of _by_size_evenly, mapped through the current
    relabeling, which is replaced every CLASSIFY_INSTANCE_QUERIES queries: a
    relabeling changes the cost of a system's verdicts, so a run samples
    several.  The order holds every support once and is renewed in step
    with the relabelings, so a support is never asked twice of one instance
    as a first-time query.
    """
    pool = load_data("classify_pool.json")
    rng = random.Random(f"classify:{seed}")
    repeats = round(len(pool) * (1 - CLASSIFY_NEW_SHARE) / CLASSIFY_NEW_SHARE)
    instances: dict[int, dict] = {}
    orders: dict[int, list[int]] = {}
    history: list[tuple[dict, int]] = []
    index = 0
    while True:
        slots = list(range(len(pool))) + [None] * repeats
        rng.shuffle(slots)
        for b in slots:
            if b is None and history:
                inst, mask = rng.choice(history)
            else:
                b = rng.randrange(len(pool)) if b is None else b
                inst = instances.get(b)
                if inst is None or inst["left"] == 0:
                    inst = _classify_instance(rng, pool[b], b, len(history))
                    instances[b] = inst
                if not orders.get(b):
                    orders[b] = _by_size_evenly(rng, range(1 << inst["coords"]))
                base_S = _unmask(orders[b].pop())
                mask = _mask(inst["relabel"].forward(base_S, doubled=inst["cotangent"]))
                inst["left"] -= 1
                history.append((inst, mask))
            yield _classify_job(rng, index, inst, mask)
            index += 1


def _classify_instance(rng, entry, b, serial) -> dict:
    ws = entry["system"]
    n = len(ws["weights"])
    r = Relabel.draw(rng, n, ws["rank"])
    rel = r.system(ws)
    return {"id": (b, serial), "base": b, "relabel": r, "system": rel,
            "text": json.dumps(rel), "cotangent": entry["cotangent"],
            "coords": 2 * n if entry["cotangent"] else n, "left": CLASSIFY_INSTANCE_QUERIES}


def _by_size_evenly(rng: random.Random, masks) -> list[int]:
    """The masks in random order for popping from the end, arranged so that
    every stretch holds each support size in proportion to its count.

    A verdict's cost grows about tenfold from |S| = 2 to |S| = n, so a
    plain shuffle lets the size mix of a run's few dozen queries per system,
    and with it the run's latency tail, vary from seed to seed.  Each size
    class is shuffled and its members are spread evenly over the order
    (systematic sampling with a random offset)."""
    masks = list(masks)
    groups: dict[int, list[int]] = {}
    for mask in masks:
        groups.setdefault(bin(mask).count("1"), []).append(mask)
    keyed = []
    for group in groups.values():
        rng.shuffle(group)
        step, offset = len(masks) / len(group), rng.random()
        keyed += [((i + offset) * step, rng.random(), mask) for i, mask in enumerate(group)]
    keyed.sort(reverse=True)
    return [mask for *_, mask in keyed]


def _classify_job(rng, index, inst, mask) -> Job:
    n = len(inst["system"]["weights"])
    S = _unmask(mask)
    coords = [_random_coord(rng) if i in S else 0 for i in range(2 * n if inst["cotangent"] else n)]
    point = {"x": coords[:n], "z": coords[n:]} if inst["cotangent"] else coords
    return Job(index, "classify", inst["text"], json.dumps(point), ws=inst["system"],
               meta={"instance": inst, "support": S})


def reduce_stream(seed: int):
    """kn (+ metric) jobs on points drawn for the fixed support pairs, in
    shuffled rounds of every hyperkahler pair once plus plain pairs making
    about REDUCE_PLAIN_SHARE of the round."""
    pairs = load_data("reduce_pairs.json")
    hk = [p for p in pairs if p["kind"] == "hyperkahler"]
    plain = [p for p in pairs if p["kind"] == "plain"]
    rng = random.Random(f"reduce:{seed}")
    n_plain = round(len(hk) * REDUCE_PLAIN_SHARE / (1 - REDUCE_PLAIN_SHARE))
    index = 0
    while True:
        rnd = hk + [rng.choice(plain) for _ in range(n_plain)]
        rng.shuffle(rnd)
        for pair in rnd:
            if pair["kind"] == "plain":
                S = set(pair["support"])
                point = [_random_coord(rng) if i in S else 0 for i in range(len(pair["system"]["weights"]))]
            else:
                point = _hol_zero_point(rng, pair)
            yield Job(index, "reduce", json.dumps(pair["system"]), json.dumps(point),
                      ws=pair["system"], meta={"pair": pair})
            index += 1


def _hol_zero_point(rng: random.Random, pair: dict) -> dict:
    """A point with supports (sx, sz) whose products x_i z_i on sx & sz are a
    generic combination of the checked-in kernel basis, so M(x, z) = 0."""
    n = len(pair["system"]["weights"])
    sx, sz = set(pair["support_x"]), set(pair["support_z"])
    T = sorted(sx & sz)
    prods = {}
    if T:
        for _ in range(100):
            coef = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in pair["kernel"]]
            combo = [sum(c * vec[j] for c, vec in zip(coef, pair["kernel"])) for j in range(len(T))]
            if min(abs(c) for c in combo) > 1e-3:
                break
        else:
            raise ValueError(f"kernel of pair {pair['support_x']}/{pair['support_z']} vanishes on sx & sz")
        prods = dict(zip(T, combo))
    x = [complex(*_random_coord(rng)) if i in sx else 0j for i in range(n)]
    z = [prods[i] / x[i] if i in prods else complex(*_random_coord(rng)) if i in sz else 0j
         for i in range(n)]
    return {"x": [[c.real, c.imag] for c in x], "z": [[c.real, c.imag] for c in z]}


STREAMS = {"analyze": analyze_stream, "classify": classify_stream, "reduce": reduce_stream}


# ---------------------------------------------------------------------------
# running one job


class Runner:
    """Runs jobs through the CLI command functions of an imported hkquot.

    Commands are looked up on ``cli`` at call time, so a traced run sees the
    wrapped functions.
    """

    def __init__(self, hkquot_cli, errors):
        self.cli = hkquot_cli
        self.exact = hkquot_cli.RunConfig()
        self.numeric = hkquot_cli.RunConfig(mode="numeric")
        self.expected = (hkquot_cli.CliError, errors.PreconditionError,
                         errors.BoundExceededError, ValueError)
        self.undecided = errors.UndecidedError

    def _invoke(self, name: str, cfg, *args) -> tuple[str, str]:
        try:
            payload = getattr(self.cli, name)(cfg, *args)
        except self.undecided:
            return UNDECIDED, ""
        except self.expected:
            return PRECONDITION, ""
        return OK, self.cli.render(payload, "json")

    def run(self, job: Job) -> dict:
        """Returns the job's outputs: exit class and rendered JSON per command."""
        if job.command == "analyze":
            code, text = self._invoke("cmd_analyze", self.exact, job.weights)
            return {"exit": code, "analyze": text}
        if job.command == "classify":
            code, text = self._invoke("cmd_classify", self.numeric, job.weights, job.point)
            return {"exit": code, "classify": text}
        hyper = job.meta["pair"]["kind"] == "hyperkahler"
        code, text = self._invoke("cmd_kn", self.numeric, job.weights, job.point, hyper)
        out = {"exit": code, "kn": text}
        if code == OK and hyper:
            outcome = json.loads(text)["outcome"]
            if outcome["status"] == "converged":
                rep = json.dumps(outcome["representative"])
                out["exit"], out["metric"] = self._invoke(
                    "cmd_metric", self.numeric, job.weights, rep, None)
        return out


def output_digest(out: dict) -> str:
    return digest(json.dumps(out, sort_keys=True))


# ---------------------------------------------------------------------------
# checks


def _pairing(w, xi) -> Fraction:
    return sum((Fraction(a) * b for a, b in zip(w, xi)), Fraction(0))


def mu_weight(ws: dict, S, xi) -> Fraction | float:
    """+inf if some beta^i(xi) < 0 on the support S, else <theta, xi>, exactly."""
    xi = [Fraction(v) for v in xi]
    if any(_pairing(ws["weights"][i], xi) < 0 for i in S):
        return math.inf
    return _pairing([Fraction(t) for t in ws["theta"]], xi)


def doubled(ws: dict) -> dict:
    return {"rank": ws["rank"], "theta": ws["theta"],
            "weights": ws["weights"] + [[-v for v in w] for w in ws["weights"]]}


def check_certificate(status: str, cert, ws: dict, S) -> list[str]:
    if status == "stable":
        return [] if cert is None else ["stable verdict carries a certificate"]
    if cert is None:
        return [f"{status} verdict without certificate"]
    m = mu_weight(ws, S, cert)
    if status == "unstable" and not m < 0:
        return [f"unstable certificate {cert} has mu-weight {m}, not < 0"]
    if status == "strictly-semistable" and (all(Fraction(v) == 0 for v in cert) or not m <= 0):
        return [f"semistable witness {cert} is zero or has mu-weight {m} > 0"]
    return []


def _numeric_support(coords) -> frozenset:
    return frozenset(i for i, (re, im) in enumerate(coords) if math.hypot(re, im) > 1e-12)


class Checker:
    """Decides whether a job's output is correct; returns a list of problems."""

    def __init__(self, hkquot_strata, workload: str):
        if workload in ("analyze", "classify"):
            self.golden = load_data(f"{workload}_golden.json")
        self.table_base = sorted(sorted(s) for s in hkquot_strata.TABLE_BASE)
        self.table_cotangent = sorted(sorted(s) for s in hkquot_strata.TABLE_COTANGENT)
        self.first_answer: dict = {}

    def check(self, job: Job, out: dict, seed: int) -> list[str]:
        return getattr(self, "_" + job.command)(job, out, seed)

    def _analyze(self, job, out, seed):
        if out["exit"] != OK:
            return [f"analyze exited {out['exit']}"]
        text = out["analyze"]
        payload = json.loads(text)
        problems = []
        if payload["weight_system"] != job.ws:
            problems.append("payload weight_system differs from the input")
        r, b = job.meta["relabel"], job.meta["base"]
        canon = canonical_analyze(payload, r)
        if digest(json.dumps(canon, sort_keys=True)) != self.golden["canonical"][b]:
            problems.append(f"analyze output differs from golden for base system {b}")
        exact = self.golden["seed0_exact"]
        if seed == DEFAULT_SEED and job.index < len(exact) and digest(text) != exact[job.index]:
            problems.append("analyze payload bytes differ from golden")
        if job.meta["sigma"] is not None and (
            canon["unstable"] != self.table_base or canon["unstable_cotangent"] != self.table_cotangent
        ):
            problems.append("Hirzebruch unstable tables differ from TABLE_BASE/TABLE_COTANGENT")
        offending = payload["smooth"]["offending_support"]
        singular = [s for rec in payload["kahler_strata"] if not rec["open"] for s in rec["supports"]]
        if offending != (min(singular) if singular else None):
            problems.append("offending_support is not the first singular semistable support")
        return problems

    def _classify(self, job, out, seed):
        if out["exit"] != OK:
            return [f"classify exited {out['exit']}"]
        verdict = json.loads(out["classify"])["verdict"]
        inst, S = job.meta["instance"], job.meta["support"]
        cot = inst["cotangent"]
        base_S = inst["relabel"].back(S, doubled=cot)
        want = self.golden[inst["base"]][_mask(base_S)]
        got = {"U": "unstable", "S": "stable", "P": "strictly-semistable",
               "N": "strictly-semistable"}[want]
        problems = []
        if verdict["status"] != got or verdict["polystable"] != (want in "SP"):
            problems.append(f"verdict {verdict['status']}/{verdict['polystable']} != golden {want}")
        ws = doubled(job.ws) if cot else job.ws
        problems += check_certificate(verdict["status"], verdict["certificate"], ws, S)
        key = (inst["id"], _mask(S))
        d = digest(out["classify"])
        if self.first_answer.setdefault(key, d) != d:
            problems.append("repeated query answered differently")
        return problems

    def _reduce(self, job, out, seed):
        pair = job.meta["pair"]
        if out["exit"] != pair["expect"]:
            return [f"exit class {out['exit']} != expected {pair['expect']}"]
        if out["exit"] != OK:
            return []
        outcome = json.loads(out["kn"])["outcome"]
        if outcome["status"] != pair["status"]:
            return [f"kn status {outcome['status']} != expected {pair['status']}"]
        if outcome["status"] == "diverged":
            return check_certificate("unstable", outcome["certificate"], job.ws, pair["support"])
        problems = []
        if not outcome["residual"] < 1e-9:
            problems.append(f"kn residual {outcome['residual']} >= 1e-9")
        rep = outcome["representative"]
        if (_numeric_support(rep["x"]), _numeric_support(rep["z"])) != (
            frozenset(pair["support_x"]), frozenset(pair["support_z"])
        ):
            problems.append("representative lost or gained support")
        report = json.loads(out["metric"])
        n, k = len(job.ws["weights"]), job.ws["rank"]
        if report["horizontal_dim"] != 4 * (n - k):
            problems.append(f"horizontal_dim {report['horizontal_dim']} != 4(n-k)")
        if not report["quaternion_deviation"] < 1e-9:
            problems.append(f"quaternion deviation {report['quaternion_deviation']} >= 1e-9")
        return problems


def canonical_analyze(payload: dict, r: Relabel) -> dict:
    """The analyze payload with supports mapped back to base labels and
    every list put in an order that does not depend on the labeling."""

    def back(S, dbl=False):
        return sorted(r.back(S, dbl))

    def fam(sets, dbl=False):
        return sorted(back(s, dbl) for s in sets)

    return {
        "unstable": fam(payload["unstable_maximal_supports"]),
        "unstable_cotangent": fam(payload["unstable_maximal_supports_cotangent"], True),
        "compact": payload["compact"],
        "smooth": payload["smooth"]["smooth"],
        "kahler_strata": sorted(
            json.dumps([rec["stabilizer"], rec["open"], fam(rec["supports"])], sort_keys=True)
            for rec in payload["kahler_strata"]
        ),
        "hk_candidates": sorted(
            json.dumps([back(c["support_x"]), back(c["support_z"]), c["stabilizer"], c["status"],
                        c["witness"], c["witness_residual"], c["log"]], sort_keys=True)
            for c in payload["hk_candidates"]
        ),
    }
