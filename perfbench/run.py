"""Benchmark for entwit: timed program runs, output checks and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.py``, or ``all`` to run each of
them in turn.  Run from any directory; the benchmark uses the checkout that
holds this file and runs ``src/entwit`` from source.

After one untimed warm-up run, for S seconds the benchmark starts one
program run after another as a fresh process (closed loop, one client,
``--workers`` left at its default of 1).  Timings are taken by this process
around each child: wall time from just before the child is started until it
has been reaped, set-up time until the child has imported entwit and parsed
its config, and the child's CPU time and peak RSS from ``wait4``.  On the last
line, ``wall_s`` and ``cpu_s`` are the mean over the timed runs,
``items_per_s`` is all their items over all their time after set-up, and
``setup_s`` and ``peak_rss_mb`` are the median (see ``end_to_end``).  The
summary lines and the results file add the median, the mean, the quartiles,
the highest whole percentile with ten runs above it, and the run count.
After the timed loop every distinct output, the warm-up run's too, is checked
against ``oracle``; a run whose exit code or output is wrong counts as failed.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` runs alternate between untraced and traced children, and the
last line holds the per-layer metrics from the traced ones plus the tracing
overhead (median traced wall time minus median untraced wall time).

A results file with every run, the config SHA-256 values and an environment
record is written to ``.perfbench/results/``.  The program exits 1 when an
output check failed and 2 when the checkout has no entwit sources.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".perfbench"

# Fewest program runs in one benchmark run, whatever --seconds says; in a
# traced run this many of each kind.
MIN_RUNS = 3
MIN_TRACED_RUNS = 2
# A program run normally takes 2-4 s; one still running after this is killed
# and counted as failed, so a hung program cannot hang the benchmark.
CHILD_TIMEOUT_S = 60.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
FUNCTION_STATS = {
    "operators": {f: ("calls", "self_s") for f in
                  ("spectral_decompose", "evolution_operator", "embed_pauli", "embed_operator", "validate")},
    "spin_models": {"build_xxz": ("calls", "self_s")},
    "thermo": {f: ("calls", "self_s") for f in ("thermal_state", "relative_entropy", "gibbs_relative_entropy")},
    "work_stats": {f: ("calls", "self_s") for f in
                   ("trotter_evolution", "exact_evolution", "transition", "relative_entropy_via_work", "sample_tpm")},
    "witness": {"sweep_detection": ("calls", "self_s"), "witness_evaluate": ("calls", "self_s"),
                "sweep_reference": ("calls", "self_s"), "write_sweep_csv": ("self_s",),
                "protocol_spec": ("calls",)},
    "open_system": {f: ("calls", "self_s") for f in
                    ("open_trotter_evolution", "full_hamiltonian", "effective_hamiltonian", "open_witness")},
    "cli": {"main": ("self_s",)},
    "kernel": {"eigh": ("calls", "self_s"), "eigvalsh": ("calls", "self_s"), "einsum": ("calls", "self_s")},
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, functions in FUNCTION_STATS.items():
        for function, stats in functions.items():
            for stat in stats:
                units[f"{module}.{function}.{stat}"] = "s" if stat == "self_s" else "count"
        units[f"{module}.self_s"] = "s"
        if module != "kernel":
            units[f"{module}.errors"] = "count"
    units.update({
        "spin_models.build_xxz.distinct_ratio": "ratio",
        "thermo.spectrum_hit_ratio": "ratio",
        "witness.write_sweep_csv.bytes": "bytes",
        "cli.output_bytes": "bytes",
        "kernel.eigh.work_n3": "count",
        "trace.overhead_s": "s",
        "trace.uncovered_s": "s",
        "trace.wall_s": "s",
        "trace.spans": "count",
    })
    return units


# ---------------------------------------------------------------------------
# Environment


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SOURCE / "entwit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas_threads() -> dict:
    """Thread counts reported by each OpenBLAS library loaded in this process."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libraries:
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                found[os.path.basename(path)] = function()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy
    import scipy.special  # noqa: F401  (loads scipy's BLAS, as entwit does)

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    mem_total_kb = None
    with open("/proc/meminfo", encoding="utf-8") as meminfo:
        for line in meminfo:
            if line.startswith("MemTotal:"):
                mem_total_kb = int(line.split()[1])
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "mem_total_kb": mem_total_kb,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Program runs


def _hash_outputs(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
    return digest.hexdigest()


def run_child(plan, run_dir: Path, traced: bool) -> dict:
    """One program run in a fresh process; returns its measurements."""
    run_dir.mkdir(parents=True)
    out_dir = run_dir / "out"
    report = run_dir / "child.json"
    command = [sys.executable, str(HERE / "child.py"), "--report", str(report), "--trace", "1" if traced else "0",
               *plan.args, "--out", str(out_dir)]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SOURCE) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with open(run_dir / "stderr.txt", "wb") as stderr:
        started = time.monotonic()
        child = subprocess.Popen(command, cwd=run_dir, env=env, stdin=subprocess.DEVNULL,
                                 stdout=subprocess.DEVNULL, stderr=stderr)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        watchdog.start()
        _, status, usage = os.wait4(child.pid, 0)
        ended = time.monotonic()
        watchdog.cancel()
    # reaped by wait4 for its rusage, so Popen must not wait for it again
    child.returncode = exit_code = os.waitstatus_to_exitcode(status)
    sample = {
        "traced": traced,
        "exit_code": exit_code,
        "wall_s": ended - started,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "problems": [],
    }
    try:
        record = json.loads(report.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        record = {}
    if "setup_end" in record:
        sample["setup_s"] = record["setup_end"] - started
        sample["items_per_s"] = plan.items / (sample["wall_s"] - sample["setup_s"])
    else:
        sample["problems"].append("the run ended before set-up finished")
    if exit_code < 0:
        sample["problems"].append(f"killed by signal {-exit_code}")
    if traced and "trace" in record:
        import spans

        sample["trace"] = spans.summarize(record["trace"])
    elif traced:
        sample["problems"].append("no trace was written")
    sample["output_bytes"] = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()) if out_dir.exists() else 0
    sample["output_sha256"] = _hash_outputs(out_dir) if out_dir.exists() else None
    if sample["problems"] or exit_code != 0:
        tail = (run_dir / "stderr.txt").read_bytes()[-2000:].decode("utf-8", "replace").strip()
        if tail:
            sample["stderr_tail"] = tail
    return sample


def measure(plan, seconds: float, trace: bool, work_dir: Path) -> list[dict]:
    """A warm-up run, program runs back to back for ``seconds``, then check
    every output.

    Runs of one plan write identical outputs, so each distinct output (by
    hash and exit code) is checked once and the other copies are deleted as
    soon as they are hashed.
    """
    samples: list[dict] = []
    kept: dict[tuple, Path] = {}

    def run_one(traced: bool, warmup: bool = False) -> dict:
        run_dir = work_dir / f"run-{len(samples):03d}"
        sample = run_child(plan, run_dir, traced=traced)
        sample["warmup"] = warmup
        samples.append(sample)
        key = (sample["output_sha256"], sample["exit_code"])
        if key in kept:
            shutil.rmtree(run_dir)
        else:
            kept[key] = run_dir
        return sample

    # One untimed run first, so that no timed run loads the interpreter,
    # numpy and scipy from a cold page cache.
    run_one(traced=False, warmup=True)
    timed: list[dict] = []
    began = time.monotonic()
    while True:
        traced_count = sum(s["traced"] for s in timed)
        untraced_count = len(timed) - traced_count
        enough = (min(traced_count, untraced_count) >= MIN_TRACED_RUNS) if trace else len(timed) >= MIN_RUNS
        # Start no run that would end more than half a run after the window.
        if enough and time.monotonic() - began + statistics.median(s["wall_s"] for s in timed) / 2 >= seconds:
            break
        timed.append(run_one(traced=trace and len(timed) % 2 == 1))
    verdicts = {}
    for key, run_dir in kept.items():
        try:
            plan.check(run_dir / "out", key[1])
            verdicts[key] = None
        except Exception as err:  # any failure to read or match an output fails the run
            verdicts[key] = f"{type(err).__name__}: {err}"
    for sample in samples:
        verdict = verdicts[(sample["output_sha256"], sample["exit_code"])]
        if verdict:
            sample["problems"].append(verdict)
    return samples


# ---------------------------------------------------------------------------
# Metrics


def describe(values: list[float]) -> dict:
    """Mean, median, quartiles, and the highest whole percentile with at least
    ten runs above it (none below 11 runs)."""
    ordered = sorted(values)
    n = len(ordered)
    summary = {"n": n, "mean": statistics.fmean(ordered), "median": statistics.median(ordered),
               "min": ordered[0], "max": ordered[-1]}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        summary.update(q1=q1, q3=q3)
    if n >= 11:
        percentile = math.floor(100 * (n - 10) / n)
        summary["tail"] = {"percentile": percentile, "value": ordered[math.ceil(percentile / 100 * n) - 1]}
    return summary


def end_to_end(samples: list[dict], items: int) -> dict:
    """Each metric's summary over the timed untraced runs, with the value the
    last line reports under ``value``.

    On a shared 2-core virtual machine whose speed drifts by tens of percent
    over seconds to minutes, the mean of a window's runs spread less across
    invocations than their median on most workloads once the warm-up run keeps
    cold-cache runs out, and a rate spread least as all items over all compute
    time.  Set-up time and peak RSS report the median.
    """
    good = [s for s in samples if not s["problems"] and not s["traced"] and not s["warmup"]]
    if not good:
        return {}
    stats = {name: describe([s[name] for s in good]) for name in END_TO_END}
    for name, stat in (("wall_s", "mean"), ("setup_s", "median"), ("cpu_s", "mean"), ("peak_rss_mb", "median")):
        stats[name]["value"] = stats[name][stat]
    stats["items_per_s"]["value"] = items * len(good) / sum(s["wall_s"] - s["setup_s"] for s in good)
    return stats


def per_layer(samples: list[dict]) -> dict:
    traced = [s for s in samples if s["traced"] and not s["problems"]]
    untraced = [s for s in samples if not s["traced"] and not s["problems"] and not s["warmup"]]
    if not traced or not untraced:
        return {}
    rows = []
    for sample in traced:
        trace = sample["trace"]
        by_name, counters = trace["by_name"], trace["counters"]
        row = {}
        for module, functions in FUNCTION_STATS.items():
            for function, stats in functions.items():
                entry = by_name.get(f"{module}.{function}", {"calls": 0, "self_s": 0.0})
                for stat in stats:
                    row[f"{module}.{function}.{stat}"] = entry[stat]
            row[f"{module}.self_s"] = sum(v["self_s"] for k, v in by_name.items() if k.startswith(module + "."))
            if module != "kernel":
                row[f"{module}.errors"] = counters.get(f"{module}.errors", 0)
        builds = by_name.get("spin_models.build_xxz", {"calls": 0})["calls"]
        reads = counters.get("thermo.spectrum_reads", 0)
        row.update({
            "spin_models.build_xxz.distinct_ratio":
                counters.get("spin_models.build_xxz.distinct", 0) / builds if builds else 0.0,
            "thermo.spectrum_hit_ratio": counters.get("thermo.spectrum_hits", 0) / reads if reads else 0.0,
            "witness.write_sweep_csv.bytes": counters.get("witness.write_sweep_csv.bytes", 0),
            "cli.output_bytes": sample["output_bytes"] if by_name.get("cli.main", {}).get("calls") else 0,
            "kernel.eigh.work_n3": counters.get("kernel.eigh.work_n3", 0),
            "trace.uncovered_s": sample["wall_s"] - trace["top_level_s"],
            "trace.wall_s": sample["wall_s"],
            "trace.spans": trace["spans"],
        })
        rows.append(row)
    layer = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    layer["trace.overhead_s"] = layer["trace.wall_s"] - statistics.median(s["wall_s"] for s in untraced)
    return layer


# ---------------------------------------------------------------------------
# Driver


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    import workloads

    plan = workloads.make_plan(name, seed, work_dir / "config")
    configs = {f: hashlib.sha256((work_dir / "config" / f).read_bytes()).hexdigest() for f in plan.configs}
    samples = measure(plan, seconds, trace, work_dir / "runs")
    failed = sum(1 for s in samples if s["problems"])
    stats = end_to_end(samples, plan.items)
    if trace:
        units = per_layer_units()
        values = per_layer(samples)
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units if k in values}
    else:
        metrics = {k: {"value": stats[k]["value"], "unit": u} for k, u in END_TO_END.items() if k in stats}
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "items_per_run": plan.items,
        "config_sha256": configs,
        "attempted": len(samples),
        "failed": failed,
        "error_rate": failed / len(samples),
        "end_to_end": stats,
        "metrics": metrics,
        "samples": samples,
    }


def print_summary(result: dict) -> None:
    name = result["workload"]
    print(f"{name}: {result['attempted']} runs (one an untimed warm-up) of {result['items_per_run']} items,"
          f" seed {result['seed']}")
    for metric, unit in END_TO_END.items():
        stats = result["end_to_end"].get(metric)
        if stats is None:
            print(f"  {metric:<12} no successful untraced run")
            continue
        tail = stats.get("tail")
        tail_text = f"p{tail['percentile']} {tail['value']:.6g}" if tail else f"max {stats['max']:.6g} (no percentile: under 11 runs)"
        print(f"  {metric:<12} {stats['value']:.6g} {unit}  median {stats['median']:.6g}  mean {stats['mean']:.6g}"
              f"  {tail_text}  n={stats['n']}")
    print(f"  {'error_rate':<12} {result['failed']}/{result['attempted']} = {result['error_rate']:.3g} (failed/attempted)")
    if result["trace"]:
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<48} {entry['value']:.6g} {entry['unit']}")
    for index, sample in enumerate(result["samples"]):
        for problem in sample["problems"]:
            print(f"  run {index} failed: {problem}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SOURCE / "entwit" / "__init__.py").is_file():
        print(f"error: no entwit sources under {SOURCE}", file=sys.stderr)
        return 2
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    import compileall

    # Compile the sources once, so no timed run pays for writing bytecode.
    compileall.compile_dir(str(SOURCE), quiet=2)
    work_dir = WORK / f"work-{os.getpid()}"
    env = environment()
    results = []
    try:
        for name in names:
            shutil.rmtree(work_dir, ignore_errors=True)
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), work_dir)
            result["environment"] = env
            results.append(result)
            print_summary(result)
            out = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
