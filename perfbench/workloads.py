"""The benchmark's workloads: seeded inputs, work counts and output checks.

Each workload turns a seed into config files and a command line for one
program run.  The seed moves the inputs (grid origins, the candidate state,
the sampler seed, the bath field) but not the amount of work, so runs on
different seeds time the same computation.  Every output is checked against
``oracle``, which shares no code with entwit.

Sizes are cut from the acceptance grids and the standard protocols so that
one program run takes 2-4 s on a 2-core machine; each is named where it is
defined.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

# A candidate is detected when s_right < s_left - STRICTNESS_EPSILON
# (entwit.witness.STRICTNESS_EPSILON).
STRICTNESS_EPSILON = 1e-9
# Agreement required between a reported distance and the oracle's.
DISTANCE_TOL = 1e-8
# Largest |z| accepted for the sampler's estimate of the exact work average.
MAX_ABS_Z = 5.0

EXIT_DETECTED = 0
EXIT_NOT_DETECTED = 3


class CheckFailed(Exception):
    """An output does not match what the oracle expects."""


@dataclass
class Plan:
    """One workload instance: what to run, how much work it is, how to check it."""

    args: list[str]  # child.py arguments after the mode; the runner appends --out
    configs: dict[str, dict]  # config file name -> payload
    items: int  # grid points, Trotter steps or trajectories per program run
    check: Callable[[Path, int], None]  # (output directory, exit code) -> raises CheckFailed


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise CheckFailed(f"{path.name}: {err}") from None


def _read_csv(path: Path, header: str, rows: int, columns: int) -> np.ndarray:
    """Parse a numeric CSV (true/false read as 1/0), requiring its exact shape."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise CheckFailed(f"{path.name}: {err}") from None
    _require(text.endswith("\n"), f"{path.name}: does not end with a newline (truncated?)")
    first, _, body = text.partition("\n")
    _require(first == header, f"{path.name}: header {first!r} != {header!r}")
    lines = body.count("\n")
    _require(lines == rows, f"{path.name}: {lines} data rows, expected {rows}")
    body = body.replace("true", "1").replace("false", "0").replace("\n", ",")
    values = np.array(body.rstrip(",").split(","), dtype=np.float64) if rows else np.empty(0)
    _require(values.size == rows * columns, f"{path.name}: expected {columns} columns per row")
    return values.reshape(rows, columns)


def _expected_exit(detected: bool) -> int:
    return EXIT_DETECTED if detected else EXIT_NOT_DETECTED


def _check_distances(report: dict, s_left: float, s_right: float, what: str) -> None:
    for key, expected in (("s_left", s_left), ("s_right", s_right)):
        got = float(report[key])
        _require(
            abs(got - expected) <= DISTANCE_TOL * max(1.0, abs(expected)),
            f"{what}: {key} = {got!r}, oracle {expected!r}",
        )
    margin = s_left - s_right
    if abs(margin - STRICTNESS_EPSILON) > DISTANCE_TOL:
        _require(
            bool(report["detected"]) == (margin > STRICTNESS_EPSILON),
            f"{what}: detected = {report['detected']}, oracle margin {margin!r}",
        )


# ---------------------------------------------------------------------------
# Protocol endpoints, from the formulas in entwit.witness.


def seven_qubit_endpoints(beta: float, coupling: float = 1.0) -> tuple[dict, dict]:
    initial = {"n": 7, "J": coupling, "Jz": 0.0, "boundary": "periodic",
               "B": math.log(70993.0 / 46656.0) / (2.0 * beta) + coupling}
    final = {"n": 7, "J": coupling, "Jz": 0.0, "B": 0.92, "boundary": "periodic"}
    return initial, final


def three_qubit_endpoints(beta: float, coupling: float = 1.0) -> tuple[dict, dict]:
    initial = {"n": 3, "J": coupling, "Jz": (2.0 * coupling - math.log(3.0) / beta) / 4.0,
               "B": math.log(2.0) / (2.0 * beta), "boundary": "periodic"}
    final = {"n": 3, "J": coupling, "Jz": 0.0, "B": 0.5, "boundary": "periodic"}
    return initial, final


# ---------------------------------------------------------------------------
# Sweeps


@dataclass(frozen=True)
class SweepSize:
    n: int
    # axis -> (first value before the seeded shift, step, number of values)
    axes: dict
    oracle_points: int


SWEEP_SIZES = {
    # The acceptance coarse n=7 grid keeps its ranges (B 0-1.2, Jz 0-1) and its
    # T axis (0.05-2 by 0.05); B and Jz are strided to 35 of its 525 columns.
    "sweep-n7": SweepSize(7, {"B": (0.0, 0.2, 7), "Jz": (0.0, 0.25, 5), "T": (0.05, 0.05, 40)}, 40),
    # The acceptance full n=3 grid keeps its 0.02 steps in B and T; Jz is
    # strided to 13 of 51 values (79,300 of 311,100 points).
    "sweep-n3-fine": SweepSize(3, {"B": (0.0, 0.02, 61), "Jz": (0.0, 0.08, 13), "T": (0.02, 0.02, 100)}, 200),
}


def _sweep_plan(size: SweepSize, rng: random.Random) -> Plan:
    grid = {}
    values = {}
    for axis in ("B", "Jz", "T"):
        first, step, count = size.axes[axis]
        low = first + rng.random() * step  # within one step; T stays > 0
        grid[axis] = {"min": low, "max": low + step * (count - 1), "step": step}
        values[axis] = low + step * np.arange(count)
    config = {"n": size.n, "J": 1.0, "beta": 100.0, "boundary": "periodic", "reference": "ideal", "grid": grid}
    points = values["B"].size * values["Jz"].size * values["T"].size
    sample_rows = sorted(rng.sample(range(points), size.oracle_points))

    def check(out: Path, exit_code: int) -> None:
        data = _read_csv(out / "sweep.csv", "B,Jz,T,s_left,s_right,margin,detected", points, 7)
        b, jz, t = np.meshgrid(values["B"], values["Jz"], values["T"], indexing="ij")
        for col, expected in enumerate((b, jz, t)):
            _require(np.allclose(data[:, col], expected.ravel(), rtol=0, atol=1e-12),
                     f"sweep.csv: grid column {col} does not match the configured axes")
        s_left, s_right, margin, flags = data[:, 3], data[:, 4], data[:, 5], data[:, 6] == 1
        _require(np.allclose(margin, s_left - s_right, rtol=1e-12, atol=1e-12),
                 "sweep.csv: margin != s_left - s_right")
        decided = np.abs(s_left - s_right - STRICTNESS_EPSILON) > 1e-12
        bad = decided & (flags != (s_right < s_left - STRICTNESS_EPSILON))
        _require(not bad.any(), f"sweep.csv: {int(bad.sum())} detection flags disagree with their margins")

        w = oracle.projector(oracle.dicke_vector(size.n, 1))
        log_ref, outside = oracle.log_state(oracle.separable_reference(size.n))
        want_left = oracle.relative_entropy(w, log_ref, outside)
        _require(np.all(np.abs(s_left - want_left) <= DISTANCE_TOL),
                 f"sweep.csv: s_left differs from the oracle {want_left!r}")
        pieces = oracle.XXZPieces(size.n)
        for row in sample_rows:
            h = pieces.hamiltonian(1.0, data[row, 1], data[row, 0])
            want_right = oracle.relative_entropy(w, oracle.log_gibbs(h, 1.0 / data[row, 2]))
            _check_distances(
                {"s_left": s_left[row], "s_right": s_right[row], "detected": flags[row]},
                want_left, want_right, f"sweep.csv row {row + 1}",
            )
        meta = _load_json(out / "sweep_meta.json")["grid"]
        _require(meta["points"] == points and meta["detected_points"] == int(flags.sum()),
                 "sweep_meta.json: point or detection count disagrees with sweep.csv")
        expected = _expected_exit(bool(flags.any()))
        _require(exit_code == expected, f"exit code {exit_code}, expected {expected}")

    return Plan(["cli", "sweep", "--config", "sweep.json"], {"sweep.json": config}, points, check)


# ---------------------------------------------------------------------------
# Driven witness, closed system

# The seven-qubit protocol runs 1000 Trotter steps; 80 keep one run near 3 s.
DRIVE_STEPS = 80
PROTOCOL_BETA = 100.0


def _drive_plan(rng: random.Random) -> Plan:
    initial, final = seven_qubit_endpoints(PROTOCOL_BETA)
    star = {"n": 7, "J": 1.0, "Jz": 0.0, "B": round(0.8 + 0.2 * rng.random(), 6), "boundary": "periodic"}
    temperature = round(0.05 + 0.45 * rng.random(), 6)
    config = {
        "protocol": {"initial": initial, "final": final, "t_f": 1.0, "steps": DRIVE_STEPS},
        "beta": PROTOCOL_BETA,
        "rho_star": {"params": star, "temperature": temperature},
        "evolution": "trotter",
        "sampling": "left",
    }

    def check(out: Path, exit_code: int) -> None:
        report = _load_json(out / "witness_report.json")["report"]
        _require(report["route"] == "via_work", f"route {report['route']!r}, expected 'via_work'")
        rho = oracle.gibbs_state(oracle.xxz_hamiltonian(final), PROTOCOL_BETA)
        s_left = oracle.relative_entropy(rho, oracle.log_gibbs(oracle.xxz_hamiltonian(initial), PROTOCOL_BETA))
        s_right = oracle.relative_entropy(rho, oracle.log_gibbs(oracle.xxz_hamiltonian(star), 1.0 / temperature))
        _check_distances(report, s_left, s_right, "witness_report.json")
        expected = _expected_exit(bool(report["detected"]))
        _require(exit_code == expected, f"exit code {exit_code}, expected {expected}")

    args = ["cli", "witness", "--route", "via-work", "--config", "witness.json"]
    return Plan(args, {"witness.json": config}, DRIVE_STEPS, check)


# ---------------------------------------------------------------------------
# Trajectory sampling

# The ROADMAP baseline draws 10^6 trajectories; 2 x 10^5 keep one run near 2.5 s.
SAMPLE_COUNT = 200_000
# beta <= 10 keeps the work distribution wide enough for a meaningful z-score.
SAMPLE_BETA = 10.0


def _sample_plan(rng: random.Random) -> Plan:
    config = {"protocol": "seven-qubit", "beta": SAMPLE_BETA, "count": SAMPLE_COUNT, "evolution": "exact"}
    sampler_seed = rng.randrange(2**31)

    def check(out: Path, exit_code: int) -> None:
        _require(exit_code == 0, f"exit code {exit_code}, expected 0")
        summary = _load_json(out / "sample_summary.json")
        _require(summary["count"] == SAMPLE_COUNT and summary["seed"] == sampler_seed,
                 "sample_summary.json: count or seed differs from the request")
        header = "n_index,m_index,energy_initial,energy_final,work,generalized_exponent"
        data = _read_csv(out / "trajectories.csv", header, SAMPLE_COUNT, 6)
        initial, final = seven_qubit_endpoints(SAMPLE_BETA)
        h_i, h_f = oracle.xxz_hamiltonian(initial), oracle.xxz_hamiltonian(final)
        e_i, e_f = np.linalg.eigvalsh(h_i), np.linalg.eigvalsh(h_f)
        n_idx, m_idx = data[:, 0].astype(np.int64), data[:, 1].astype(np.int64)
        _require(np.all((n_idx >= 0) & (n_idx < e_i.size) & (m_idx >= 0) & (m_idx < e_f.size)),
                 "trajectories.csv: level index out of range")
        _require(np.allclose(data[:, 2], e_i[n_idx], rtol=0, atol=1e-9)
                 and np.allclose(data[:, 3], e_f[m_idx], rtol=0, atol=1e-9),
                 "trajectories.csv: energies are not the measured levels")
        _require(np.allclose(data[:, 4], data[:, 3] - data[:, 2], rtol=0, atol=1e-12)
                 and np.allclose(data[:, 5], SAMPLE_BETA * data[:, 4], rtol=1e-12, atol=1e-9),
                 "trajectories.csv: work or exponent column inconsistent with the energies")
        log_exact = oracle.log_partition(h_f, SAMPLE_BETA) - oracle.log_partition(h_i, SAMPLE_BETA)
        ratio = np.exp(-data[:, 5] - log_exact)
        mean = float(ratio.mean())
        z = (mean - 1.0) / float(ratio.std(ddof=1) / math.sqrt(ratio.size))
        _require(math.isclose(summary["exact"], math.exp(log_exact), rel_tol=1e-9),
                 f"sample_summary.json: exact {summary['exact']!r}, oracle {math.exp(log_exact)!r}")
        _require(math.isclose(summary["mean"], mean * math.exp(log_exact), rel_tol=1e-9)
                 and abs(summary["z_score"] - z) <= 1e-6,
                 "sample_summary.json: estimator disagrees with trajectories.csv")
        _require(abs(z) <= MAX_ABS_Z, f"|z| = {abs(z):.2f} > {MAX_ABS_Z}")

    args = ["cli", "sample", "--config", "sample.json", "--seed", str(sampler_seed)]
    return Plan(args, {"sample.json": config}, SAMPLE_COUNT, check)


# ---------------------------------------------------------------------------
# Driven witness, open system (API; no CLI subcommand reaches open_system)

OPEN_STEPS = 1000
OPEN_BETA = 1.0


def _open_plan(rng: random.Random) -> Plan:
    bath_field = round(0.2 + 0.6 * rng.random(), 6)
    chain = {"n": 6, "J": 1.0, "Jz": 0.3, "B": bath_field, "boundary": "open"}
    initial, final = three_qubit_endpoints(PROTOCOL_BETA)
    star = {"n": 3, "J": 1.0, "Jz": 0.2, "B": 0.4, "boundary": "periodic"}
    config = {
        "chain": chain,
        "subsystem_sites": [1, 2, 3],
        "beta": OPEN_BETA,
        "schedule": {"initial": initial, "final": final, "t_f": 1.0, "steps": OPEN_STEPS},
        "rho_star": {"params": star, "beta": OPEN_BETA},
    }

    def full_hamiltonian(sub: dict) -> np.ndarray:
        # subsystem = sites 1-3 with the schedule's 3-site chain; bond (3, 4)
        # couples it to the bath sites 4-6 of the open 6-site chain
        bonds = [(l, m, sub["J"], sub["Jz"]) for l, m in oracle.xxz_bonds(3, sub["boundary"])]
        bonds += [(l, l + 1, chain["J"], chain["Jz"]) for l in (3, 4, 5)]
        fields = [(s, sub["B"]) for s in (1, 2, 3)] + [(s, bath_field) for s in (4, 5, 6)]
        return oracle.chain_hamiltonian(6, bonds, fields)

    def check(out: Path, exit_code: int) -> None:
        _require(exit_code == 0, f"exit code {exit_code}, expected 0")
        report = _load_json(out / "open_report.json")["report"]
        _require(report["route"] == "via_work", f"route {report['route']!r}, expected 'via_work'")
        reduced = [
            oracle.partial_trace_right(oracle.gibbs_state(full_hamiltonian(p), OPEN_BETA), 3, 6)
            for p in (initial, final)
        ]
        s_left = oracle.relative_entropy(reduced[1], *oracle.log_state(reduced[0]))
        s_right = oracle.relative_entropy(reduced[1], oracle.log_gibbs(oracle.xxz_hamiltonian(star), OPEN_BETA))
        _check_distances(report, s_left, s_right, "open_report.json")

    return Plan(["open-drive", "--config", "open.json"], {"open.json": config}, OPEN_STEPS, check)


WORKLOADS = ("sweep-n7", "sweep-n3-fine", "drive-n7", "sample-n7", "open-drive")


def make_plan(name: str, seed: int, config_dir: Path) -> Plan:
    """Seeded inputs for ``name``; writes the config files into ``config_dir``."""
    rng = random.Random(f"{name}:{seed}")
    if name in SWEEP_SIZES:
        plan = _sweep_plan(SWEEP_SIZES[name], rng)
    elif name == "drive-n7":
        plan = _drive_plan(rng)
    elif name == "sample-n7":
        plan = _sample_plan(rng)
    elif name == "open-drive":
        plan = _open_plan(rng)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    config_dir.mkdir(parents=True, exist_ok=True)
    for file_name, payload in plan.configs.items():
        (config_dir / file_name).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    plan.args = [str(config_dir / a) if a in plan.configs else a for a in plan.args]
    return plan
