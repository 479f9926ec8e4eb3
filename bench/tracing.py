"""Spans around the public functions of each hkquot layer, recorded from outside.

``Tracer.install`` replaces every named function with a wrapper in *every*
``hkquot`` module namespace that binds it (``from .exactlin import
lp_maximize`` gives ``git_stability`` its own binding, and the package
re-exports most names), so calls through any binding are seen.  Spans are
kept in memory as ``[name, start, end, parent, job, info]`` and turned into
per-layer metrics by ``layer_metrics`` after the run.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import Counter, defaultdict

#: module -> functions wrapped in it; the module names are the layer names
TARGETS = {
    "exactlin": ("lp_maximize", "rref", "kernel_basis", "smith_invariant_factors"),
    "git_stability": ("classify_support", "unstable_maximal_supports", "semistable_supports",
                      "semistable_support", "stabilizer", "kahler_strata", "quotient_smooth",
                      "quotient_compact"),
    "moment_maps": ("mu", "mu_hyperkahler", "hol_moment"),
    "kempf_ness": ("solve_kahler", "solve_hyperkahler", "kn_value", "kn_gradient", "kn_hessian"),
    "hk_reduction": ("horizontal_frame", "frame_report_json", "quaternion_check"),
    "strata_examples": ("hk_candidate_strata", "hol_consistent"),
    "rep_core": ("act_imaginary", "doubled_weights", "weight_system_from_json"),
    "cli": ("cmd_analyze", "cmd_classify", "cmd_kn", "cmd_metric", "render"),
}
LAYERS = tuple(TARGETS)
JOB = "job"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _lp_info(args, kwargs, result):
    rows = len(_arg(args, kwargs, 1, "A_ub") or ()) + len(_arg(args, kwargs, 3, "A_eq") or ())
    return (rows, len(args[0] if args else kwargs["c"]), result[0])


def _length(args, kwargs, result):
    return len(result)


def _kn_info(args, kwargs, result):
    return (result.status, result.iterations)


#: what to record about a call's arguments or result, per function
ANNOTATE = {
    "exactlin.lp_maximize": _lp_info,
    "git_stability.unstable_maximal_supports": _length,
    "git_stability.semistable_supports": _length,
    "strata_examples.hk_candidate_strata": _length,
    "kempf_ness.solve_kahler": _kn_info,
}


class Tracer:
    def __init__(self, clock):
        """clock: the time source of the spans, the same as the job times'."""
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, self.clock
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if annotate is not None:
                span[5] = annotate(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "hkquot" or key.startswith("hkquot.")]
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"hkquot.{layer}")
            for fname in names:
                orig = getattr(home, fname, None)
                if orig is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self.patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self.patched):
            setattr(mod, attr, orig)
        self.patched.clear()

    @contextlib.contextmanager
    def job_span(self, job: int):
        """The root span of one job."""
        self.job = job
        self.stack.append(len(self.spans))
        self.spans.append([JOB, self.clock(), 0.0, -1, job, None])
        try:
            yield
        finally:
            self.spans[self.stack.pop()][2] = self.clock()
            self.job = -1


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-function counts and times, derived ratios, and each layer's share
    of job time (self time summed over the layer's functions)."""
    n = len(spans)
    child = [0.0] * n
    lp_under = [0] * n
    kn_value_under = [0] * n
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    for name, counter in (("exactlin.lp_maximize", lp_under), ("kempf_ness.kn_value", kn_value_under)):
        for s in spans:
            if s[0] == name:
                p = s[3]
                while p >= 0:
                    counter[p] += 1
                    p = spans[p][3]

    calls: Counter = Counter()
    total: dict[str, float] = defaultdict(float)
    self_t: dict[str, float] = defaultdict(float)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        dur = s[2] - s[1]
        calls[s[0]] += 1
        total[s[0]] += dur
        self_t[s[0]] += dur - child[i]
        by_name[s[0]].append(i)

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for layer, names in TARGETS.items():
        for fname in names:
            key = f"{layer}.{fname}"
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.time_s"] = total[key]
            out[f"{key}.self_s"] = self_t[key]

    lps = [spans[i][5] for i in by_name["exactlin.lp_maximize"]]
    out["exactlin.lp_maximize.rows_mean"] = ratio(sum(r for r, _, _ in lps), len(lps))
    out["exactlin.lp_maximize.vars_mean"] = ratio(sum(v for _, v, _ in lps), len(lps))
    out["exactlin.lp_maximize.infeasible"] = sum(st == "infeasible" for _, _, st in lps)

    cs = by_name["git_stability.classify_support"]
    out["git_stability.classify_support.lp_per_call"] = ratio(sum(lp_under[i] for i in cs), len(cs))
    out["git_stability.classify_support.hit_ratio"] = ratio(sum(lp_under[i] == 0 for i in cs), len(cs))
    for fname in ("unstable_maximal_supports", "semistable_supports"):
        idx = by_name[f"git_stability.{fname}"]
        out[f"git_stability.{fname}.lp_per_support"] = ratio(
            sum(lp_under[i] for i in idx), sum(spans[i][5] for i in idx))
    hk = by_name["strata_examples.hk_candidate_strata"]
    out["strata_examples.hk_candidate_strata.candidates_out"] = sum(spans[i][5] for i in hk)

    solves = [i for i in by_name["kempf_ness.solve_kahler"] if spans[i][5] is not None]
    converged = [i for i in solves if spans[i][5][0] == "converged"]
    out["kempf_ness.newton_iterations_per_solve"] = ratio(
        sum(spans[i][5][1] for i in converged), len(converged))
    out["kempf_ness.kn_value_calls_per_solve"] = ratio(
        sum(kn_value_under[i] for i in converged), len(converged))
    out["kempf_ness.converged_ratio"] = ratio(len(converged), calls["kempf_ness.solve_kahler"])

    job_time = total[JOB]
    out["trace.jobs"] = calls[JOB]
    for layer in LAYERS:
        out[f"share.{layer}"] = ratio(
            sum(t for name, t in self_t.items() if name.startswith(layer + ".")), job_time)
    out["share.harness"] = ratio(self_t[JOB], job_time)
    out["share.lp_maximize"] = ratio(total["exactlin.lp_maximize"], job_time)
    return out


def _expand(spec: str) -> list[str]:
    """'a.{b,c}.{d,e}' -> ['a.b.d', 'a.b.e', 'a.c.d', 'a.c.e']."""
    if "{" not in spec:
        return [spec]
    head, rest = spec.split("{", 1)
    options, tail = rest.split("}", 1)
    return [name for opt in options.split(",") for name in _expand(head + opt + tail)]


_UNITS = {"calls": "count", "time_s": "s", "self_s": "s", "rows_mean": "rows", "vars_mean": "vars",
          "infeasible": "count", "lp_per_call": "lp/call", "hit_ratio": "ratio",
          "lp_per_support": "lp/support", "candidates_out": "count",
          "newton_iterations_per_solve": "iter/solve", "kn_value_calls_per_solve": "calls/solve",
          "converged_ratio": "ratio", "jobs": "count", "overhead": "ratio"}

#: the per-layer metrics a traced run reports, with their units
PER_LAYER = [
    (name, "ratio" if name.startswith("share.") else _UNITS[name.rsplit(".", 1)[1]])
    for spec in (
        "exactlin.lp_maximize.{calls,time_s,rows_mean,vars_mean,infeasible}",
        "exactlin.{rref,kernel_basis,smith_invariant_factors}.{calls,time_s}",
        "git_stability.classify_support.{calls,time_s,lp_per_call,hit_ratio}",
        "git_stability.{unstable_maximal_supports,semistable_supports}.{calls,time_s,lp_per_support}",
        "git_stability.{semistable_support,stabilizer,kahler_strata,quotient_smooth,"
        "quotient_compact}.{calls,time_s}",
        "moment_maps.{mu,mu_hyperkahler,hol_moment}.{calls,time_s}",
        "kempf_ness.{solve_kahler,solve_hyperkahler}.{calls,time_s,self_s}",
        "kempf_ness.{kn_value,kn_gradient,kn_hessian}.{calls,time_s}",
        "kempf_ness.{newton_iterations_per_solve,kn_value_calls_per_solve,converged_ratio}",
        "hk_reduction.horizontal_frame.{calls,time_s,self_s}",
        "hk_reduction.{frame_report_json,quaternion_check}.{calls,time_s}",
        "strata_examples.hk_candidate_strata.{calls,time_s,self_s,candidates_out}",
        "strata_examples.hol_consistent.{calls,time_s}",
        "rep_core.{act_imaginary,doubled_weights,weight_system_from_json}.{calls,time_s}",
        "cli.{cmd_analyze,cmd_classify,cmd_kn,cmd_metric,render}.time_s",
        "trace.{jobs,overhead}",
        "share.{" + ",".join(LAYERS) + ",harness,lp_maximize}",
    )
    for name in _expand(spec)
]
