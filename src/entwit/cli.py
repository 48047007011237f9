"""Command line interface.

Four subcommands: ``witness`` evaluates the entanglement test for one
candidate state, ``sweep`` maps detection over a (B, Jz, T) grid, ``verify``
exercises the statistical identities the machinery rests on, and ``sample``
draws two-point-measurement trajectories.

Exit codes: 0 success (and detection, where that applies), 1 configuration or
usage error, 2 numerical check failure, 3 clean run without detection.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import functools
import gc
import json
import math
import os
import sys

import numpy as np

from .errors import ConfigError, NumericalCheckError
from .operators import (
    QubitRegister,
    UnitaryOperator,
    density_from_json,
    unitary_from_json,
)
from .spin_models import build_xxz, schedule_from_config, xxz_params_from_config
from .thermo import ThermalSpec, delta_beta_f
from .witness import (
    DetectionProtocol,
    GridAxis,
    SweepGrid,
    _identity_unitary,
    detection_protocol,
    sweep_detection,
    sweep_metadata,
    sweep_reference,
    witness_evaluate,
    write_sweep_csv,
)
from .work_stats import (
    SAMPLE_BLOCK,
    SAMPLING_RULES,
    TrajectoryBatch,
    exact_evolution,
    log_jarzynski_average,
    log_tasaki_average,
    sample_tpm,
    trotter_evolution,
)

PROTOCOL_NAMES = {"three-qubit": 3, "seven-qubit": 7}
EVOLUTION_KINDS = ("identity", "exact", "trotter")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_NOT_DETECTED = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="entwit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required: bool) -> None:
        p.add_argument(
            "--config",
            required=config_required,
            help="JSON configuration file",
        )
        p.add_argument("--out", default=".", help="output directory (default: .)")

    witness = sub.add_parser("witness", help="evaluate the witness for one candidate")
    add_common(witness, True)
    witness.add_argument(
        "--route",
        choices=["direct", "via-work"],
        default="direct",
        help="compute distances spectrally or from work statistics",
    )

    sweep = sub.add_parser("sweep", help="map detection over a (B, Jz, T) grid")
    add_common(sweep, True)
    sweep.add_argument("--route", choices=["direct", "via-work"], default="direct")
    sweep.add_argument("--workers", type=int, default=None, help="parallel workers")

    verify = sub.add_parser("verify", help="check the statistical identities")
    add_common(verify, False)
    verify.add_argument("--seed", type=int, default=0, help="seed for the random protocol")

    sample = sub.add_parser("sample", help="draw measurement trajectories")
    add_common(sample, True)
    sample.add_argument("--seed", type=int, default=0, help="random seed")
    sample.add_argument("--workers", type=int, default=None, help="parallel workers")

    return parser


def _resolve_workers(args) -> int:
    value = getattr(args, "workers", None)
    if value is None:
        raw = os.environ.get("ENTWIT_WORKERS")
        if raw is None:
            return 1
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(
                f"ENTWIT_WORKERS must be a positive integer, got {raw!r}"
            ) from None
    if value < 1:
        raise ConfigError(f"workers must be >= 1, got {value}")
    return value


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as err:
        raise ConfigError(f"{path}: {err.strerror or err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"{path}: config parse error at line {err.lineno}, column {err.colno}"
        ) from err
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return payload


def _check_keys(payload: dict, allowed: set, required: set, file: str, prefix: str = "") -> None:
    anchor = f"{file}: {prefix}" if prefix else file
    unknown = set(payload) - allowed
    if unknown:
        raise ConfigError(f"{anchor}: unknown keys {sorted(unknown)}")
    for key in sorted(required):
        if key not in payload:
            raise ConfigError(f"{anchor}: missing required key {key!r}")


def _float_key(payload: dict, key: str, default: float, file: str) -> float:
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{file}: {key}: expected a number, got {value!r}")
    return float(value)


def _protocol_from_config(value, beta: float, file: str) -> DetectionProtocol:
    if not (math.isfinite(beta) and beta > 0):
        raise ConfigError(f"{file}: beta: must be a finite positive number, got {beta!r}")
    if isinstance(value, str):
        if value not in PROTOCOL_NAMES:
            raise ConfigError(
                f"{file}: protocol: unknown name {value!r}; use "
                "'three-qubit', 'seven-qubit', or a schedule object"
            )
        try:
            return detection_protocol(PROTOCOL_NAMES[value], beta=beta)
        except ValueError as err:  # endpoint parameters out of range at this beta
            raise ConfigError(f"{file}: protocol: {err}") from err
    if isinstance(value, dict):
        try:
            schedule = schedule_from_config(value, "protocol")
        except ConfigError as err:
            raise ConfigError(f"{file}: {err}") from err
        return DetectionProtocol(schedule=schedule, beta=beta)
    raise ConfigError(f"{file}: protocol: expected a name or a schedule object")


def _state_from_config(value, path: str, file: str, expected_n: int):
    """Parse a candidate/reference state: thermal (params + temperature or
    beta) or an explicit density matrix.  Returns ThermalSpec or DensityMatrix."""
    if not isinstance(value, dict):
        raise ConfigError(f"{file}: {path}: expected an object")
    if "matrix" in value:
        _check_keys(value, {"matrix"}, {"matrix"}, file, path)
        try:
            state = density_from_json(value["matrix"])
        except (ValueError, TypeError) as err:
            raise ConfigError(f"{file}: {path}.matrix: {err}") from err
        if state.register.n != expected_n:
            raise ConfigError(
                f"{file}: {path}.matrix: state is on {state.register.n} qubits, "
                f"protocol uses {expected_n}"
            )
        return state
    _check_keys(value, {"params", "temperature", "beta"}, {"params"}, file, path)
    if ("temperature" in value) == ("beta" in value):
        raise ConfigError(
            f"{file}: {path}: give exactly one of 'temperature' or 'beta'"
        )
    try:
        params = xxz_params_from_config(value["params"], f"{path}.params")
    except ConfigError as err:
        raise ConfigError(f"{file}: {err}") from err
    if params.n != expected_n:
        raise ConfigError(
            f"{file}: {path}.params: chain has {params.n} sites, protocol uses {expected_n}"
        )
    if "temperature" in value:
        temperature = _float_key(value, "temperature", 0.0, file)
        if temperature <= 0:
            raise ConfigError(f"{file}: {path}.temperature: must be positive")
        beta = 1.0 / temperature
    else:
        beta = _float_key(value, "beta", 0.0, file)
        if beta <= 0:
            raise ConfigError(f"{file}: {path}.beta: must be positive")
    try:
        return ThermalSpec(build_xxz(params), beta)
    except ValueError as err:  # NaN or infinite beta, or 1/temperature out of range
        raise ConfigError(f"{file}: {path}: {err}") from err


def _sampling_from_config(cfg: dict, file: str) -> str:
    sampling = cfg.get("sampling", "left")
    if sampling not in SAMPLING_RULES:
        raise ConfigError(
            f"{file}: sampling: expected one of {SAMPLING_RULES}, got {sampling!r}"
        )
    return sampling


def _resolve_evolution(kind: str, protocol: DetectionProtocol, sampling: str, file: str):
    if kind == "identity":
        return None
    if kind == "exact":
        return exact_evolution(protocol.schedule)
    if kind == "trotter":
        return trotter_evolution(protocol.schedule, sampling=sampling)
    raise ConfigError(f"{file}: evolution: expected one of {EVOLUTION_KINDS}, got {kind!r}")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _ensure_out(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


# ---------------------------------------------------------------------------
# Subcommands


def _run_witness(args) -> int:
    file = args.config
    cfg = _load_config(file)
    _check_keys(
        cfg,
        {"protocol", "beta", "rho_star", "sigma_ref", "evolution", "sampling"},
        {"protocol", "rho_star"},
        file,
    )
    beta = _float_key(cfg, "beta", 100.0, file)
    protocol = _protocol_from_config(cfg["protocol"], beta, file)
    n = protocol.schedule.n
    route = args.route.replace("-", "_")
    rho_star = _state_from_config(cfg["rho_star"], "rho_star", file, n)
    sigma_override = (
        _state_from_config(cfg["sigma_ref"], "sigma_ref", file, n)
        if "sigma_ref" in cfg
        else None
    )
    sampling = _sampling_from_config(cfg, file)
    evolution_kind = cfg.get("evolution", "identity")
    metadata = {
        "source": "cli",
        "beta": beta,
        "protocol": cfg["protocol"] if isinstance(cfg["protocol"], str) else "custom",
    }
    report = witness_evaluate(
        protocol.final_spec,
        sigma_override if sigma_override is not None else protocol.initial_spec,
        rho_star,
        route,
        evolution=(
            _resolve_evolution(evolution_kind, protocol, sampling, file)
            if route == "via_work"
            else None
        ),
        metadata=metadata,
    )
    out = _ensure_out(args)
    _write_json(
        os.path.join(out, "witness_report.json"),
        {"command": "witness", "config": cfg, "report": report.to_json_dict()},
    )
    return EXIT_OK if report.detected else EXIT_NOT_DETECTED


def _axis_from_config(value, path: str, file: str) -> GridAxis:
    if not isinstance(value, dict):
        raise ConfigError(f"{file}: {path}: expected an object with min, max, step")
    _check_keys(value, {"min", "max", "step"}, {"min", "max", "step"}, file, path)
    try:
        return GridAxis(
            minimum=float(value["min"]),
            maximum=float(value["max"]),
            step=float(value["step"]),
        )
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{file}: {path}: {err}") from err


def _run_sweep(args) -> int:
    file = args.config
    cfg = _load_config(file)
    _check_keys(
        cfg,
        {"n", "J", "beta", "boundary", "reference", "grid"},
        {"n", "grid"},
        file,
    )
    n = cfg["n"]
    if n not in (3, 7):
        raise ConfigError(f"{file}: n: standard sweeps support n=3 and n=7, got {n!r}")
    coupling_j = _float_key(cfg, "J", 1.0, file)
    beta = _float_key(cfg, "beta", 100.0, file)
    boundary = cfg.get("boundary", "periodic")
    reference_kind = cfg.get("reference", "ideal")
    if reference_kind not in ("ideal", "thermal"):
        raise ConfigError(
            f"{file}: reference: expected 'ideal' or 'thermal', got {reference_kind!r}"
        )
    grid_cfg = cfg["grid"]
    if not isinstance(grid_cfg, dict):
        raise ConfigError(f"{file}: grid: expected an object with axes B, Jz, T")
    _check_keys(grid_cfg, {"B", "Jz", "T"}, {"B", "Jz", "T"}, file, "grid")
    route = args.route.replace("-", "_")
    try:
        grid = SweepGrid(
            b_axis=_axis_from_config(grid_cfg["B"], "grid.B", file),
            jz_axis=_axis_from_config(grid_cfg["Jz"], "grid.Jz", file),
            t_axis=_axis_from_config(grid_cfg["T"], "grid.T", file),
            n=n,
            coupling_j=coupling_j,
            boundary=boundary,
            route=route,
        )
        reference = sweep_reference(
            n,
            coupling_j=coupling_j,
            beta=beta,
            boundary=boundary,
            thermal=(reference_kind == "thermal" or route == "via_work"),
        )
    except ValueError as err:
        raise ConfigError(f"{file}: {err}") from err
    workers = _resolve_workers(args)
    result = sweep_detection(grid, reference, workers=workers)
    out = _ensure_out(args)
    write_sweep_csv(result, os.path.join(out, "sweep.csv"))
    _write_json(
        os.path.join(out, "sweep_meta.json"),
        {
            "command": "sweep",
            "config": cfg,
            "grid": sweep_metadata(result, reference),
        },
    )
    return EXIT_OK if result.detected.any() else EXIT_NOT_DETECTED


def _haar_unitary(register: QubitRegister, seed: int) -> UnitaryOperator:
    rng = np.random.default_rng(seed)
    dim = register.dim
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return UnitaryOperator(register, q * phases[None, :])


def _run_verify(args) -> int:
    file = args.config
    cfg = _load_config(file) if file else {}
    anchor = file or "defaults"
    _check_keys(cfg, {"protocol", "beta", "unitary_file"}, set(), anchor)
    beta = _float_key(cfg, "beta", 100.0, anchor)
    protocol = _protocol_from_config(cfg.get("protocol", "three-qubit"), beta, anchor)
    schedule = protocol.schedule
    register = QubitRegister(schedule.n)
    # every work average below reuses these two spectra
    h_initial = protocol.initial_spec.spectrum
    h_final = protocol.final_spec.spectrum

    external_u: UnitaryOperator | None = None
    if "unitary_file" in cfg:
        path = cfg["unitary_file"]
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as err:
            raise ConfigError(f"{anchor}: unitary_file: {err.strerror or err}") from err
        except json.JSONDecodeError as err:
            raise ConfigError(
                f"{path}: config parse error at line {err.lineno}, column {err.colno}"
            ) from err
        try:
            external_u = unitary_from_json(payload)
        except (ValueError, TypeError) as err:
            if isinstance(err, NumericalCheckError):
                raise
            raise ConfigError(f"{anchor}: unitary_file: {err}") from err
        if external_u.register != register:
            raise ConfigError(
                f"{anchor}: unitary_file: unitary is on {external_u.register.n} qubits, "
                f"protocol uses {register.n}"
            )

    checks: list[dict] = []

    def record(name: str, value: float, tolerance: float, detail: str) -> None:
        checks.append(
            {
                "name": name,
                "value": value,
                "tolerance": tolerance,
                "passed": bool(value <= tolerance),
                "detail": detail,
            }
        )

    u_trotter = trotter_evolution(schedule)
    identity = _identity_unitary(register)
    eye = np.eye(register.dim)
    unitarity_dev = float(
        np.abs(u_trotter.entries.conj().T @ u_trotter.entries - eye).max()
    )
    record(
        "unitarity",
        unitarity_dev,
        1e-10,
        f"max |U+U - 1| over the {schedule.steps}-step product",
    )

    expected = -delta_beta_f(protocol.initial_spec, protocol.final_spec)
    log_trotter = log_jarzynski_average(beta, h_initial, h_final, u_trotter)
    jarzynski_dev = abs(log_trotter - expected)
    record(
        "jarzynski",
        jarzynski_dev,
        1e-9,
        "log work average vs log partition ratio at equal temperatures",
    )

    half_spec = ThermalSpec.with_spectrum(
        protocol.final_spec.hamiltonian, beta / 2.0, h_final
    )
    expected_cross = half_spec.log_partition - protocol.initial_spec.log_partition
    tasaki_dev = abs(
        log_tasaki_average(beta, beta / 2.0, h_initial, h_final, u_trotter)
        - expected_cross
    )
    record(
        "tasaki",
        tasaki_dev,
        1e-9,
        "cross-temperature log average vs its partition ratio",
    )

    base = log_jarzynski_average(beta, h_initial, h_final, identity)
    protocol_dev = abs(log_trotter - base)
    if external_u is not None:
        protocol_dev = max(
            protocol_dev,
            abs(log_jarzynski_average(beta, h_initial, h_final, external_u) - base),
        )
    haar_dev = abs(
        log_jarzynski_average(beta, h_initial, h_final, _haar_unitary(register, args.seed))
        - base
    )
    record(
        "protocol_independence",
        max(protocol_dev, haar_dev),
        1e-9,
        "log work average is the same for identity, protocol, and random drives",
    )

    direct = witness_evaluate(
        protocol.final_spec, protocol.initial_spec, protocol.initial_spec, "direct"
    )
    via = witness_evaluate(
        protocol.final_spec, protocol.initial_spec, protocol.initial_spec, "via_work"
    )
    route_dev = max(abs(direct.s_left - via.s_left), abs(direct.s_right - via.s_right))
    record(
        "route_equivalence",
        route_dev,
        1e-8,
        "spectral vs work-statistics distances on the protocol endpoints",
    )

    try:
        u_exact = exact_evolution(schedule)
        u_mid = trotter_evolution(schedule, sampling="midpoint")
        trotter_dev = float(np.abs(u_mid.entries - u_exact.entries).max())
        record(
            "trotter_vs_exact",
            trotter_dev,
            1e-4,
            "midpoint product vs closed-form evolution",
        )
    except NumericalCheckError:
        checks.append(
            {
                "name": "trotter_vs_exact",
                "value": None,
                "tolerance": 1e-4,
                "passed": None,
                "detail": "skipped: protocol Hamiltonians do not commute",
            }
        )

    all_passed = all(c["passed"] is not False for c in checks)
    out = _ensure_out(args)
    _write_json(
        os.path.join(out, "verify_report.json"),
        {"command": "verify", "config": cfg, "checks": checks, "all_passed": all_passed},
    )
    for check in checks:
        status = {True: "pass", False: "FAIL", None: "skip"}[check["passed"]]
        print(f"{check['name']}: {status}")
    return EXIT_OK if all_passed else EXIT_NUMERICAL


def _write_trajectories(path: str, batch: TrajectoryBatch, dim: int) -> None:
    """trajectories.csv, one row per draw.

    Every column is a function of the level pair (n_index, m_index), so each
    block of SAMPLE_BLOCK rows formats one row per distinct pair and writes
    the block by lookup; memory stays O(block) however many pairs occur.
    """
    columns = [getattr(batch, field.name) for field in dataclasses.fields(batch)]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("n_index,m_index,energy_initial,energy_final,work,generalized_exponent\n")
        for start in range(0, len(batch), SAMPLE_BLOCK):
            rows = slice(start, start + SAMPLE_BLOCK)
            pairs = batch.n_index[rows] * dim + batch.m_index[rows]
            _, first, inverse = np.unique(pairs, return_index=True, return_inverse=True)
            table = np.array(
                [
                    f"{n},{m},{e_i:.17g},{e_f:.17g},{w:.17g},{x:.17g}\n"
                    for n, m, e_i, e_f, w, x in zip(*(c[first + start].tolist() for c in columns))
                ],
                dtype=object,
            )
            handle.write("".join(table[inverse]))


def _run_sample(args) -> int:
    file = args.config
    cfg = _load_config(file)
    _check_keys(
        cfg,
        {"protocol", "beta", "count", "evolution", "sampling"},
        {"protocol"},
        file,
    )
    beta = _float_key(cfg, "beta", 100.0, file)
    protocol = _protocol_from_config(cfg["protocol"], beta, file)
    count = cfg.get("count", 100000)
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ConfigError(f"{file}: count: expected a positive integer, got {count!r}")
    sampling = _sampling_from_config(cfg, file)
    evolution_kind = cfg.get("evolution", "trotter")
    evolution = _resolve_evolution(evolution_kind, protocol, sampling, file)
    if evolution is None:
        evolution = _identity_unitary(QubitRegister(protocol.schedule.n))
    if args.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {args.seed}")
    workers = _resolve_workers(args)
    batch, summary = sample_tpm(
        protocol.initial_spec,
        protocol.final_spec,
        evolution,
        count,
        args.seed,
        workers=workers,
    )
    out = _ensure_out(args)
    _write_trajectories(os.path.join(out, "trajectories.csv"), batch, 2**protocol.schedule.n)
    _write_json(
        os.path.join(out, "sample_summary.json"),
        {
            "command": "sample",
            "config": cfg,
            "count": summary.count,
            "exact": summary.exact,
            "mean": summary.mean,
            "seed": args.seed,
            "stderr": summary.stderr,
            "z_score": summary.z_score,
        },
    )
    return EXIT_OK


@functools.cache
def _freeze_heap_at_exit() -> None:
    """Run ``gc.freeze`` at interpreter exit; registered once per process.

    Finalization otherwise runs full collections over the ~22k objects that
    numpy leaves behind, which takes as long as a small run itself; frozen
    objects are skipped.  Outputs are written and closed before exit, so
    nothing they hold changes.
    """
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _freeze_heap_at_exit()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        runner = {
            "witness": _run_witness,
            "sweep": _run_sweep,
            "verify": _run_verify,
            "sample": _run_sample,
        }[args.command]
        return runner(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalCheckError as err:
        print(f"numerical check failed: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
