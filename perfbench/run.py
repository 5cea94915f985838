#!/usr/bin/env python3
"""Benchmark of the spiked-tensor CLI.

    python3 perfbench/run.py --workload thresholds --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload, one table
    python3 perfbench/run.py --self-check                   # steadiness and repeatability

Run from the root of a source tree (the package is imported from ``src/``).
One run is a fresh interpreter that runs the workload's tasks back to back,
a closed loop with one caller: each task is one in-process
``spiked_tensor.cli.main(argv)`` call at ``--threads 1`` with stdout
captured, and the BLAS thread count pinned to one.  ``--seconds`` sets the
number of rounds from each workload's nominal round time, so both sides of a
comparison run identical work.  Every task's output is checked; a task that
exits non-zero, raises or fails its check counts as failed and as missing
every latency limit.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see spans.py).  The last line of stdout is one JSON
object; the lines above it are a readable report.  A record of the run
(environment, every task's argv, latency, verdict and output digest) is
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is timed in this many fresh interpreters, spread evenly over the
# untraced task list so that their median spans the whole run, not a burst.
SETUP_SAMPLES = 13
SETUP_SNIPPET = (
    "import sys, time\n"
    "sys.path.insert(0, 'src')\n"
    "import spiked_tensor.cli as cli\n"
    "cli.build_parser()\n"
    "print(time.monotonic(), time.process_time())\n"
)
TAIL_BEYOND = 10  # the tail percentile leaves at least this many tasks beyond it
# A pass over the task list starts no task after this many seconds of its
# tasks (a traced run's two passes get half each), so that a run on a much
# slower commit still ends within three minutes.  A cut list is reported as
# not correct: the two sides of a comparison no longer ran the same work.
TASK_TIME_LIMIT_S = 120.0
SELF_CHECK_RUNS = 10  # untraced runs per set in --self-check


def pin_environment() -> None:
    """One BLAS thread and one package thread, before numpy is imported."""
    for var in BLAS_ENV:
        os.environ[var] = "1"
    os.environ.pop("SPIKED_TENSOR_THREADS", None)


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def _fresh_interpreter(extra_flags=()) -> tuple[float, float, str]:
    """(wall, CPU) seconds from interpreter start until the CLI parser is built,
    and the interpreter's stderr."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, *extra_flags, "-c", SETUP_SNIPPET],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
    done, cpu = (float(x) for x in proc.stdout.split())
    return done - t0, cpu, proc.stderr


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "spiked_tensor").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas_threads() -> dict:
    """Thread count reported by each OpenBLAS bundled with numpy and scipy."""
    import ctypes

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs = pathlib.Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))  # already loaded by the import: same handle
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[path.name] = fn()
                    break
    return found


def environment(workload: str, seed: int, tasks: int, rounds: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "workload": workload,
        "seed": seed,
        "tasks": tasks,
        "copies_of_mix": rounds,
    }


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

def run_task(cli, argv) -> tuple[float, float, int | None, str, str | None]:
    """(seconds, CPU seconds, exit code, stdout, exception) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception as exc:  # a crashing task is a failed task, never a crashed run
        error = f"{type(exc).__name__}: {str(exc)[:200]}"
    seconds = time.perf_counter() - t0
    cpu = time.process_time() - c0
    if error is None and code != 0:
        error = f"exit code {code}: {err.getvalue().strip()[-200:]}"
    return seconds, cpu, code, out.getvalue(), error


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND tasks beyond it."""
    if count < 2 * TAIL_BEYOND:
        return 50
    return math.floor(100 * (count - TAIL_BEYOND) / count)


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile; failed tasks enter as +inf."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    import checks

    sys.path.insert(0, str(SRC))
    import spiked_tensor.cli as cli  # also writes the bytecode the set-up runs reuse

    layer = {}
    if trace:
        from spans import Tracer, import_times, layer_metrics

        layer.update(import_times(_fresh_interpreter(("-X", "importtime"))[2]))
        tracer = Tracer()
        tracer.plan()
    reference = checks.load_reference()
    # a traced run executes its list twice: traced first, so that it pays the
    # same cold caches as an untraced run, then untraced for the overhead
    rounds = workloads.rounds_for(workload, seconds / (2 if trace else 1))
    tasks = workloads.make_tasks(workload, seed, rounds)

    passes = (True, False) if trace else (False,)
    # set-up samples go before the tasks at these indices (traced runs take none)
    setup_at = set() if trace else {
        k * len(tasks) // SETUP_SAMPLES for k in range(SETUP_SAMPLES)}
    setup = []
    truncated = False
    executions = []
    for traced in passes:
        if traced:
            tracer.install()
        try:
            pass_s = 0.0
            for index, argv in enumerate(tasks):
                if pass_s > TASK_TIME_LIMIT_S / len(passes):
                    truncated = True
                    break
                if index in setup_at:
                    setup.append(_fresh_interpreter()[:2])
                if traced:
                    tracer.task_id = len(executions)
                secs, cpu, code, stdout, error = run_task(cli, argv)
                pass_s += secs
                reason = error or checks.check_output(argv, code, stdout, reference)
                executions.append({
                    "index": index, "traced": traced, "argv": list(argv),
                    "seconds": secs, "cpu_s": cpu,
                    "ok": reason is None, "reason": reason,
                    "digest": hashlib.sha256(stdout.encode()).hexdigest()[:16],
                })
        finally:
            if traced:
                tracer.uninstall()
    if trace:  # tracing must not change a single output byte
        plain = {e["index"]: e for e in executions if not e["traced"]}
        for e in executions:
            if e["traced"] and e["ok"] and e["index"] in plain and e["digest"] != plain[e["index"]]["digest"]:
                e["ok"], e["reason"] = False, "output differs from the untraced run"

    probe = []
    if workload == "thresholds":
        for argv in workloads.KNOWN_DEFECT_PROBE:
            error = run_task(cli, argv)[4]
            probe.append({"argv": list(argv), "failed": error is not None, "reason": error})

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed = [e for e in executions if e["traced"] == trace]
    attempted = len(timed)
    failed = sum(not e["ok"] for e in timed)
    wall_s = sum(e["seconds"] for e in timed)
    cpu_s = sum(e["cpu_s"] for e in timed)
    latencies = [e["seconds"] if e["ok"] else math.inf for e in timed]
    cpu_latencies = [e["cpu_s"] if e["ok"] else math.inf for e in timed]
    q = tail_percentile(len(latencies))
    n = f"N={attempted}"

    if trace:
        wall = {}
        agg = tracer.aggregate({k for k, e in enumerate(executions) if e["traced"]})
        layer.update(layer_metrics(agg, wall_s))
        # over the tasks that ran in both passes
        layer["trace.overhead_s"] = sum(e["cpu_s"] - plain[e["index"]]["cpu_s"]
                                        for e in timed if e["index"] in plain)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{workload}-seed{seed}.spans.tsv.gz")
        metrics = {name: (value, None) for name, value in layer.items()}
    else:
        # Wall-clock times, reported but not gated: on a shared host they
        # also count time other tenants held the CPU.
        wall = {
            "setup_s": (statistics.median(w for w, _ in setup), f"median of {len(setup)} fresh interpreters"),
            "wall_s": (wall_s, f"whole task list, {n}"),
            "task_p50_s": (statistics.median(latencies), n),
            "task_tail_s": (percentile(latencies, q), f"p{q}, {n}"),
        }
        metrics = {
            "setup_s": (statistics.median(c for _, c in setup),
                        f"CPU, median of {len(setup)} fresh interpreters"),
            "list_cpu_s": (cpu_s, f"whole task list, {n}"),
            "task_p50_cpu_s": (statistics.median(cpu_latencies), n),
            "task_tail_cpu_s": (percentile(cpu_latencies, q), f"p{q}, {n}"),
            "peak_rss_mb": (peak_rss_mb, "benchmark process"),
        }
    env = environment(workload, seed, len(tasks), rounds)
    record = {
        "environment": env,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "task_fail_ratio": failed / attempted,
        "truncated": truncated,
        "setup_samples_wall_cpu_s": setup,
        "wall_clock": {k: v for k, (v, _) in wall.items()},
        "tail_percentile": q,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "known_defect_probe": probe,
        "executions": executions,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return {"record": record, "metrics": metrics, "wall_clock": wall}


def print_report(workload: str, result: dict, units: dict) -> None:
    rec = result["record"]
    env = rec["environment"]
    print(f"workload {workload}  seed {env['seed']}  {env['tasks']} tasks "
          f"({env['copies_of_mix']} copies of the mix), closed loop, 1 caller, --threads 1")
    for name, (value, note) in result["metrics"].items():
        unit = units.get(name, "")
        print(f"  {name:48s} {value:14.6g} {unit:6s} {note or ''}")
    print(f"  {'task_fail_ratio':48s} {rec['task_fail_ratio']:14.6g} {'1':6s} "
          f"{rec['failed']}/{rec['attempted']} tasks")
    if not rec["trace"]:
        for name, (value, note) in result["wall_clock"].items():
            print(f"  {name + ' (wall clock, not gated)':48s} {value:14.6g} {'s':6s} {note}")
    if rec["truncated"]:
        print(f"  NOT CORRECT: task list cut short after {TASK_TIME_LIMIT_S:g} s of tasks")
    for e in rec["executions"]:
        if not e["ok"]:
            print(f"  FAILED {' '.join(e['argv'])}: {e['reason']}")
    if rec["known_defect_probe"]:
        bad = sum(p["failed"] for p in rec["known_defect_probe"])
        print(f"  known-defect probe (not timed, not counted): {bad}/{len(rec['known_defect_probe'])} "
              f"spherical --replica tasks at d in 40, 42, 50 fail")
        for p in rec["known_defect_probe"]:
            if p["failed"]:
                print(f"    d={p['argv'][4]}: {p['reason']}")
    print(f"  env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas']} threads {env['blas_threads']}, nproc {env['nproc']}, "
          f"git {env['git_revision']}, src sha256 {env['source_sha256'][:12]}")


# ---------------------------------------------------------------------------
# several runs: --workload all and --self-check
# ---------------------------------------------------------------------------

def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _subrun(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed: {proc.stderr.strip()[-800:]}")
    return {"report": proc.stdout.rsplit("\n", 2)[0], "result": json.loads(proc.stdout.strip().splitlines()[-1])}


def run_all(seed: int, seconds: float) -> int:
    spec = _spec()
    failed = 0
    for w in spec["workloads"]:
        out = _subrun(w["name"], seed, seconds, 0)
        print(out["report"])
        failed += out["result"]["failed"]
    return 0 if failed == 0 else 1


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else math.inf


def self_check(seconds: float, only: list[str] | None) -> int:
    """Two sets of SELF_CHECK_RUNS untraced runs, plus two traced runs of one seed.

    Reports, per workload and end-to-end metric, each set's median and
    quartiles, whether each set's spread is within the bound, and whether
    the two medians differ by no more than the bound, in either direction.
    Then checks that exact counts and output digests repeat between two
    runs of one seed.
    """
    runs = SELF_CHECK_RUNS
    spec = _spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = only or [w["name"] for w in spec["workloads"]]
    summary = {}
    steady = True
    for w in names:
        sets = []
        for s in range(2):
            seeds = range(1 + s * runs, 1 + (s + 1) * runs)
            sets.append([_subrun(w, seed, seconds, 0)["result"] for seed in seeds])
        summary[w] = {}
        print(f"{w}: {runs} runs per set")
        for name, m in bounds.items():
            rows = [[r["metrics"][name]["value"] for r in runs_] for runs_ in sets]
            (m1, a1, b1, s1), (m2, a2, b2, s2) = (_spread(v) for v in rows)
            apart = abs(m2 - m1) / min(m1, m2)
            ok = s1 <= m["bound"] and s2 <= m["bound"] and apart <= m["bound"]
            steady &= ok
            summary[w][name] = {"set1": {"median": m1, "q1": a1, "q3": b1, "spread": s1, "n": runs},
                                "set2": {"median": m2, "q1": a2, "q3": b2, "spread": s2, "n": runs},
                                "bound": m["bound"], "medians_apart": apart, "agree": ok}
            print(f"  {name:14s} set1 {m1:10.5g} [{a1:.5g}, {b1:.5g}] spread {s1:6.3f}   "
                  f"set2 {m2:10.5g} [{a2:.5g}, {b2:.5g}] spread {s2:6.3f}   "
                  f"apart {apart:6.3f}   bound {m['bound']:.3f} (third {m['bound'] / 3:.3f})  "
                  f"{'agree' if ok else 'DISAGREE'}")
        failed = sum(r["failed"] for runs_ in sets for r in runs_)
        print(f"  failed tasks over all runs: {failed}")
        steady &= failed == 0
        # exact counts and output digests repeat between two traced runs of one seed
        traced = []
        for _ in range(2):
            metrics = _subrun(w, 1, seconds, 1)["result"]["metrics"]
            rec = json.loads((OUT / f"{w}-seed1-trace1.json").read_text())
            traced.append((metrics, [(e["index"], e["traced"], e["ok"], e["digest"]) for e in rec["executions"]]))
        (a, da), (b, db) = traced
        exact = [k for k in a if not k.endswith(("_s", "_per_s", "_ratio")) and not k.startswith("share.")]
        differ = [k for k in exact if a[k]["value"] != b[k]["value"]]
        digests_ok = da == db and all(ok for _, _, ok, _ in da)
        print(f"  two traced runs of seed 1: exact counts {'repeat' if not differ else 'DIFFER: ' + ', '.join(differ)}"
              f" ({len(exact)} counts); output digests {'repeat' if digests_ok else 'DIFFER'}")
        summary[w]["counts_repeat"] = not differ
        summary[w]["digests_repeat"] = digests_ok
        steady &= not differ and digests_ok
    OUT.mkdir(exist_ok=True)
    (OUT / "selfcheck.json").write_text(json.dumps(summary, indent=1))
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    if not (SRC / "spiked_tensor" / "cli.py").is_file():
        print(f"no spiked_tensor sources under {SRC}; run from the root of a source tree",
              file=sys.stderr)
        return 2
    pin_environment()
    if args.self_check:
        return self_check(args.seconds, [args.workload] if args.workload else None)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    spec = _spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(args.workload, result, units)
    rec = result["record"]
    print(json.dumps({
        "correct": rec["failed"] == 0 and not rec["truncated"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {
            name: {"value": value, "unit": units.get(name, "")}
            for name, (value, _) in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
