"""hkquot benchmark: the CLI's per-command work, timed in process, with every output checked.

    python3 bench/run.py --workload {analyze,classify,reduce} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --workload all --seconds S    # each workload in a fresh process
    python3 bench/run.py --selfcheck                   # the checks catch corrupted outputs

Run from the root of a checkout; the program is imported from its ``src``.
One client runs jobs in a closed loop: the next job starts when the
previous one returns.  A job is what one ``hkquot <command>`` invocation
computes: ``cmd_<command>`` on JSON text, then ``render(payload, "json")``.
Argument parsing is not timed; interpreter start, ``import hkquot``, one
``build_parser()`` and loading the corpus are timed as ``setup_s`` in fresh
interpreters.  The loop stops once the summed job time reaches ``--seconds``
(analyze: at the end of that cycle of its systems); harness work between
jobs (drawing inputs, checking outputs) is not counted.  Every time is
scaled to a reference host speed, measured during jobs with a fixed
kernel (see calibration.py), and the metrics are taken over the whole run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps each
layer's public functions (see tracing.py), runs half the time traced, then
runs the same jobs untraced from cold caches to measure the tracing
overhead, and reports the per-layer metrics.  The last line of standard
output is the result as JSON; a summary and a results file under
``bench/results`` carry the error ratio, sample counts, provenance and a
digest of every job's input and output.  The exit code is non-zero if any
job failed its check.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 9

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def import_hkquot():
    if not (SRC / "hkquot" / "__init__.py").is_file():
        raise SystemExit(f"bench: no hkquot sources at {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import hkquot.cli
    import hkquot.errors
    import hkquot.strata_examples

    if Path(hkquot.__file__).resolve().parent != (SRC / "hkquot").resolve():
        raise SystemExit(f"bench: imported hkquot from {hkquot.__file__}, not from {SRC}")
    return hkquot


def setup(workload: str, seed: int):
    """Everything a run needs before its first job: what setup_s times."""
    hkquot = import_hkquot()
    hkquot.cli.build_parser()
    stream = wl.STREAMS[workload](seed)
    first = next(stream)
    runner = wl.Runner(hkquot.cli, hkquot.errors)
    checker = wl.Checker(hkquot.strata_examples, workload)
    return stream, first, runner, checker


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from launching a fresh interpreter to its first job being
    ready, as measured and scaled to the reference speed by the kernel
    times the same interpreter measures right after."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        rest = proc.stdout.read().split()
    if proc.returncode != 0 or line != "ready" or len(rest) != 1:
        raise SystemExit(f"bench: setup probe failed with exit code {proc.returncode}")
    return elapsed, elapsed * calibration.REFERENCE_S / float(rest[0])


def run_jobs(stream, job, runner, checker, seed, speed, budget=None, count=None, tracer=None,
             between=None):
    """Closed loop with one client, until the summed job time reaches budget
    seconds or count jobs have run.  ``between(busy)`` runs after each job,
    outside the timed part.  Returns one record per job; ``scaled_s`` is its
    latency at the reference speed."""
    records = []
    busy = 0.0
    while True:
        scope = tracer.job_span(job.index) if tracer else contextlib.nullcontext()
        try:
            with speed.job() as marks, scope:
                t0 = speed.clock()
                try:
                    out = runner.run(job)
                finally:
                    dt = speed.clock() - t0
        except Exception as exc:  # a job that raises is a failed job, not a dead run
            out, problems = {"exit": "raised"}, [f"raised {type(exc).__name__}: {exc}"]
        else:
            try:
                problems = checker.check(job, out, seed)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                problems = [f"malformed output: {type(exc).__name__}: {exc}"]
        records.append({"index": job.index, "latency_s": dt,
                        "marks": marks, "input": job.input_digest(),
                        "output": wl.output_digest(out), "problems": problems})
        busy += dt
        if between is not None:
            between(busy)
        if (count is not None and len(records) >= count
                or budget is not None and busy >= budget and job.cycle_end):
            break
        job = next(stream)
    for r in records:
        r["scaled_s"] = r["latency_s"] * speed.factor(*r["marks"])
    return records


def throughput(records) -> float:
    """Jobs that passed their check per second of job time at the reference speed."""
    return sum(not r["problems"] for r in records) / sum(r["scaled_s"] for r in records)


def percentile(values, q: int) -> float:
    """Nearest rank."""
    return sorted(values)[math.ceil(q / 100 * len(values)) - 1]


def clear_caches() -> None:
    for name, mod in list(sys.modules.items()):
        if name == "hkquot" or name.startswith("hkquot."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def provenance() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or "unknown"
    import numpy

    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__, "commit": commit,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def benchmark(workload: str, seed: int, seconds: int, trace: bool) -> int:
    stream, first, runner, checker = setup(workload, seed)
    speed = calibration.Speedometer()
    extra = {}
    if trace:
        tracer = tracing.Tracer(speed.clock)
        tracer.install()
        try:
            records = run_jobs(stream, first, runner, checker, seed, speed, budget=seconds / 2,
                               tracer=tracer)
        finally:
            tracer.uninstall()
        layer = tracing.layer_metrics(tracer.spans)
        del tracer.spans[:]
        clear_caches()
        stream = wl.STREAMS[workload](seed)
        untraced = run_jobs(stream, next(stream), runner, checker, seed, speed, count=len(records))
        layer["trace.overhead"] = throughput(records) / throughput(untraced)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in tracing.PER_LAYER}
        extra["untraced_jobs"] = len(untraced)
        extra["missing_functions"] = tracer.missing
        all_records = records + untraced
    else:
        # set-up probes are spread over the run, between jobs
        setup_samples = [probe_setup(workload, seed)]

        def between(busy):
            if len(setup_samples) < SETUP_SAMPLES and busy >= len(setup_samples) * seconds / SETUP_SAMPLES:
                setup_samples.append(probe_setup(workload, seed))

        records = run_jobs(stream, first, runner, checker, seed, speed, budget=seconds,
                           between=between)
        while len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(probe_setup(workload, seed))
        extra["setup_samples_s"] = [measured for measured, _ in setup_samples]
        extra["setup_scaled_s"] = [scaled for _, scaled in setup_samples]
        raw = [r["latency_s"] * 1e3 for r in records]
        extra["unscaled"] = {"jobs_per_s": len(raw) / sum(raw) * 1e3,
                             "job_p50_ms": percentile(raw, 50), "job_p90_ms": percentile(raw, 90),
                             "setup_s": statistics.median(extra["setup_samples_s"])}

        scaled = [r["scaled_s"] * 1e3 for r in records]
        metrics = {
            "jobs_per_s": {"value": throughput(records), "unit": "1/s"},
            "job_p50_ms": {"value": percentile(scaled, 50), "unit": "ms"},
            "job_p90_ms": {"value": percentile(scaled, 90), "unit": "ms"},
            "setup_s": {"value": statistics.median(extra["setup_scaled_s"]), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        all_records = records
    failed = [r for r in all_records if r["problems"]]
    error_ratio = len(failed) / len(all_records)

    RESULTS.mkdir(exist_ok=True)
    extra["kernel_median_s"] = speed.median_s()
    extra["kernel_samples"] = len(speed.samples)
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "provenance": provenance(), "metrics": metrics, "error_ratio": error_ratio,
              **extra,
              "failures": [{"index": r["index"], "problems": r["problems"]} for r in failed[:50]],
              "jobs": [[r["index"], r["input"], r["output"], round(r["latency_s"] * 1e3, 4),
                        round(r["scaled_s"] * 1e3, 4)] for r in all_records]}
    path = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")

    print(f"{workload} seed={seed} seconds={seconds} trace={int(trace)}: "
          f"{len(all_records)} jobs, {len(failed)} failed, error_ratio={error_ratio:g} [ratio]")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} [{m['unit']}]")
    for name, value in extra.get("unscaled", {}).items():
        print(f"  unscaled {name} = {value:.6g}")
    print(f"  samples: {len(records)} job latencies, "
          f"{len(extra.get('setup_samples_s', []))} setups, {len(speed.samples)} kernel runs "
          f"(median {speed.median_s() * 1e3:.4g} ms, reference "
          f"{calibration.REFERENCE_S * 1e3:g} ms); details in {path.relative_to(ROOT)}")
    for r in failed[:5]:
        print(f"  FAILED job {r['index']}: {'; '.join(r['problems'])}")
    print(json.dumps({"correct": not failed, "attempted": len(all_records), "failed": len(failed),
                      "metrics": metrics}))
    return 1 if failed else 0


def run_all(seed: int, seconds: int) -> int:
    """Each workload in a fresh process, as a benchmark run would be."""
    results, code = {}, 0
    for workload in wl.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), proc.stderr, sep="", flush=True)
        code = code or proc.returncode
        results[workload] = json.loads(lines[-1]) if lines else None
    print(json.dumps(results))
    return code


def selfcheck() -> int:
    """The smallest job of each workload passes its check, and corrupting
    its output makes the check fail."""
    import copy

    def corrupt(out, key, edit):
        bad = copy.deepcopy(out)
        payload = json.loads(bad[key])
        edit(payload)
        bad[key] = json.dumps(payload)
        return bad

    def drop_last(path):
        def edit(p):
            target = p
            for k in path:
                target = target[k]
            target.pop()
        return edit

    def set_field(path, value):
        def edit(p):
            target = p
            for k in path[:-1]:
                target = target[k]
            target[path[-1]] = value(target[path[-1]])
        return edit

    cases = {
        "analyze": lambda job: job.index == 0,
        "classify": lambda job: job.meta["support"],
        "reduce": lambda job: job.meta["pair"]["kind"] == "hyperkahler",
    }
    corruptions = {
        "analyze": [("analyze", drop_last(["unstable_maximal_supports"])),
                    ("analyze", drop_last(["hk_candidates"])),
                    ("analyze", set_field(["compact"], lambda v: not v))],
        "classify": [("classify", set_field(["verdict", "polystable"], lambda v: not v)),
                     ("classify", set_field(["verdict", "certificate"], lambda v: ["0"] * 9))],
        "reduce": [("metric", set_field(["horizontal_dim"], lambda v: v + 1)),
                   ("metric", set_field(["quaternion_deviation"], lambda v: 1e-6)),
                   ("kn", set_field(["outcome", "residual"], lambda v: 1e-6))],
    }
    ok = True
    for workload in wl.WORKLOADS:
        stream, job, runner, checker = setup(workload, wl.DEFAULT_SEED)
        while not cases[workload](job):
            job = next(stream)
        out = runner.run(job)
        problems = checker.check(job, out, wl.DEFAULT_SEED)
        print(f"{workload} job {job.index}: {'passes' if not problems else problems}")
        ok &= not problems
        for key, edit in corruptions[workload]:
            caught = checker.check(job, corrupt(out, key, edit), wl.DEFAULT_SEED)
            print(f"  corrupted {key}: {'caught: ' + caught[0] if caught else 'NOT CAUGHT'}")
            ok &= bool(caught)
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        print(repr(calibration.kernel_median()))
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return benchmark(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
