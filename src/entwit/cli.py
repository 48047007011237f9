"""Command line interface.

Four subcommands: ``witness`` evaluates the entanglement test for one
candidate state, ``sweep`` maps detection over a (B, Jz, T) grid, ``verify``
exercises the statistical identities the machinery rests on, and ``sample``
draws two-point-measurement trajectories.

Exit codes: 0 success (and detection, where that applies), 1 configuration or
usage error, 2 numerical check failure, 3 clean run without detection.  A
refused config reads ``error: <config file>: <JSON path>: <reason>``.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import math
import os
import sys

import numpy as np

from .errors import ConfigError, NumericalCheckError
from .operators import (
    DensityMatrix,
    QubitRegister,
    UnitaryOperator,
    density_from_json,
    restrict,
    shared_blocks,
    unitary_from_json,
)
from .spin_models import (
    BOUNDARIES,
    build_xxz,
    check_keys,
    config_number,
    schedule_from_config,
    xxz_params_from_config,
)
from .thermo import ThermalSpec, delta_beta_f, gibbs_log_partition
from .witness import (
    DetectionProtocol,
    GridAxis,
    SweepGrid,
    _check_reference_boundary,
    _check_reference_coupling,
    _check_reference_size,
    _check_temperatures,
    _identity_unitary,
    _reference_fields,
    detection_protocol,
    memory_budget,
    sweep_detection,
    sweep_metadata,
    sweep_reference,
    witness_evaluate,
    write_sweep_csv,
)
from .work_stats import (
    SAMPLING_RULES,
    TRAJECTORY_BYTES,
    TrajectoryBatch,
    exact_evolution,
    log_work_average,
    sample_tpm,
    transition_matrix,
    trotter_evolution,
)

PROTOCOL_NAMES = {"three-qubit": 3, "seven-qubit": 7}
# --route spellings and the library's route names
ROUTES = {"direct": "direct", "via-work": "via_work"}
EVOLUTION_KINDS = ("identity", "exact", "trotter")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_NOT_DETECTED = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def _seed(text: str) -> int:
    """A non-negative integer seed, checked before any work starts."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


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
        choices=ROUTES,
        default="direct",
        help="compute distances spectrally or from work statistics",
    )

    sweep = sub.add_parser(
        "sweep", help="map detection over a (B, Jz, T) grid of an n-qubit ring, 3 <= n <= 12"
    )
    add_common(sweep, True)
    sweep.add_argument("--route", choices=ROUTES, default="direct")

    verify = sub.add_parser("verify", help="check the statistical identities")
    add_common(verify, False)
    verify.add_argument("--seed", type=_seed, default=0, help="seed for the random protocol")

    sample = sub.add_parser("sample", help="draw measurement trajectories")
    add_common(sample, True)
    sample.add_argument("--seed", type=_seed, default=0, help="random seed")

    return parser


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


@contextlib.contextmanager
def _prefix(prefix: str, errors=ValueError):
    """Refuse each of ``errors`` raised in the block as a ConfigError that
    starts with ``prefix``: the JSON path of a value that a library check
    refuses or, around a config block and its ConfigErrors, the config file,
    the one place a refusal names it."""
    try:
        yield
    except errors as err:
        raise ConfigError(f"{prefix}: {err}") from err


def _float_key(payload: dict, key: str, default: float) -> float:
    return config_number(payload.get(key, default), key)


def _choice(payload: dict, key: str, default: str, choices: tuple) -> str:
    value = payload.get(key, default)
    if value not in choices:
        raise ConfigError(f"{key}: expected one of {choices}, got {value!r}")
    return value


def _protocol_from_config(value, beta: float) -> DetectionProtocol:
    if beta <= 0:
        raise ConfigError(f"beta: must be a finite positive number, got {beta!r}")
    if isinstance(value, str):
        if value not in PROTOCOL_NAMES:
            raise ConfigError(
                f"protocol: unknown name {value!r}; use "
                "'three-qubit', 'seven-qubit', or a schedule object"
            )
        with _prefix("beta"):  # endpoint parameters out of range at this beta
            return detection_protocol(PROTOCOL_NAMES[value], beta=beta)
    if isinstance(value, dict):
        schedule = schedule_from_config(value, "protocol")
        return DetectionProtocol(schedule=schedule, beta=beta)
    raise ConfigError("protocol: expected a name or a schedule object")


def _state_from_config(value, path: str, expected_n: int):
    """Parse a candidate/reference state: thermal (params + temperature or
    beta) or an explicit density matrix.  Returns ThermalSpec or DensityMatrix."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    if "matrix" in value:
        check_keys(value, {"matrix"}, ("matrix",), path)
        with _prefix(f"{path}.matrix", (ValueError, TypeError)):
            state = density_from_json(value["matrix"])
        if state.register.n != expected_n:
            raise ConfigError(
                f"{path}.matrix: state is on {state.register.n} qubits, protocol uses {expected_n}"
            )
        return state
    check_keys(value, {"params", "temperature", "beta"}, ("params",), path)
    if ("temperature" in value) == ("beta" in value):
        raise ConfigError(f"{path}: give exactly one of 'temperature' or 'beta'")
    params = xxz_params_from_config(value["params"], f"{path}.params")
    if params.n != expected_n:
        raise ConfigError(f"{path}.params: chain has {params.n} sites, protocol uses {expected_n}")
    if "temperature" in value:
        temperature = config_number(value["temperature"], f"{path}.temperature")
        if temperature <= 0:
            raise ConfigError(f"{path}.temperature: must be positive")
        beta = 1.0 / temperature
    else:
        beta = config_number(value["beta"], f"{path}.beta")
        if beta <= 0:
            raise ConfigError(f"{path}.beta: must be positive")
    with _prefix(path):  # 1/temperature beyond the range of a float
        return ThermalSpec(build_xxz(params), beta)


def _resolve_evolution(kind: str, protocol: DetectionProtocol, sampling: str):
    if kind == "identity":
        return None
    if kind == "exact":
        return exact_evolution(protocol.schedule)
    return trotter_evolution(protocol.schedule, sampling=sampling)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _check_out(out: str) -> None:
    """Refuse, before any work, an ``out`` that is not a directory or whose
    nearest existing ancestor is not one; the error names the path that
    ``os.makedirs`` would fail on, as ``_output_dir`` does."""
    if not out:
        raise ConfigError("argument --out: expected a directory path, got ''")
    if os.path.exists(out):
        if not os.path.isdir(out):
            raise ConfigError(f"{out}: exists and is not a directory")
        return
    missing, parent = out, os.path.dirname(out.rstrip(os.sep))
    while parent and not os.path.exists(parent):
        missing, parent = parent, os.path.dirname(parent)
    if parent and not os.path.isdir(parent):
        raise ConfigError(f"{missing}: {os.strerror(errno.ENOTDIR)}")


@contextlib.contextmanager
def _output_dir(out: str):
    """``out``, made if it is missing, for the writes of the block: an
    OSError from making it or writing into it is a ConfigError naming the
    path."""
    try:
        os.makedirs(out, exist_ok=True)
        yield out
    except OSError as err:
        raise ConfigError(f"{err.filename or out}: {err.strerror or err}") from err


# ---------------------------------------------------------------------------
# Subcommands


def _run_witness(args) -> int:
    cfg = _load_config(args.config)
    with _prefix(args.config, ConfigError):
        check_keys(cfg, {"protocol", "beta", "rho_star", "evolution", "sampling"}, ("protocol", "rho_star"))
        beta = _float_key(cfg, "beta", 100.0)
        protocol = _protocol_from_config(cfg["protocol"], beta)
        rho_star = _state_from_config(cfg["rho_star"], "rho_star", protocol.schedule.n)
        sampling = _choice(cfg, "sampling", "left", SAMPLING_RULES)
        evolution_kind = _choice(cfg, "evolution", "identity", EVOLUTION_KINDS)
        # refused before any drive is built
        if args.route == "via_work" and isinstance(rho_star, DensityMatrix):
            raise ConfigError("rho_star: the via-work route needs a declared Gibbs state, got a matrix")
    metadata = {
        "source": "cli",
        "beta": beta,
        "protocol": cfg["protocol"] if isinstance(cfg["protocol"], str) else "custom",
    }
    report = witness_evaluate(
        protocol.final_spec,
        protocol.initial_spec,
        rho_star,
        args.route,
        evolution=(
            _resolve_evolution(evolution_kind, protocol, sampling)
            if args.route == "via_work"
            else None
        ),
        metadata=metadata,
    )
    with _output_dir(args.out) as out:
        _write_json(
            os.path.join(out, "witness_report.json"),
            {"command": "witness", "config": cfg, "report": report.to_json_dict()},
        )
    return EXIT_OK if report.detected else EXIT_NOT_DETECTED


def _axis_from_config(value, path: str) -> GridAxis:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object with min, max, step")
    check_keys(value, {"min", "max", "step"}, ("max", "min", "step"), path)
    bounds = [config_number(value[key], f"{path}.{key}") for key in ("min", "max", "step")]
    with _prefix(path):
        return GridAxis(*bounds)


def _run_sweep(args) -> int:
    cfg = _load_config(args.config)
    with _prefix(args.config, ConfigError):
        check_keys(
            cfg,
            {"n", "J", "beta", "boundary", "reference", "grid"},
            ("grid", "n"),
        )
        n = cfg["n"]
        with _prefix("n"):
            _check_reference_size(n)
        coupling_j = _float_key(cfg, "J", 1.0)
        beta = _float_key(cfg, "beta", 100.0)
        if not (0.0 < beta < math.inf and 1.0 / beta < math.inf):  # for either reference
            raise ConfigError(f"beta: must be positive with a finite 1/beta, got {beta!r}")
        boundary = _choice(cfg, "boundary", "periodic", BOUNDARIES)
        # the work route reads declared Gibbs states only, so its default is thermal
        reference_kind = cfg.get("reference", "thermal" if args.route == "via_work" else "ideal")
        if reference_kind not in ("ideal", "thermal"):
            raise ConfigError(f"reference: expected 'ideal' or 'thermal', got {reference_kind!r}")
        if reference_kind == "ideal" and args.route == "via_work":
            raise ConfigError("reference: the via-work route needs the thermal reference, got 'ideal'")
        if reference_kind == "thermal":  # the checks of sweep_reference, each naming its key
            with _prefix("J"):
                _check_reference_coupling(coupling_j)
            with _prefix("boundary"):
                _check_reference_boundary(boundary)
            with _prefix("beta"):
                _reference_fields(n, beta, coupling_j)
        grid_cfg = cfg["grid"]
        if not isinstance(grid_cfg, dict):
            raise ConfigError("grid: expected an object with axes B, Jz, T")
        check_keys(grid_cfg, {"B", "Jz", "T"}, ("B", "Jz", "T"), "grid")
        axes = [_axis_from_config(grid_cfg[key], f"grid.{key}") for key in ("B", "Jz", "T")]
        with _prefix("grid.T"):
            _check_temperatures(axes[2])
        with _prefix("grid"):  # all that is left to refuse: the grid's memory
            grid = SweepGrid(*axes, n=n, coupling_j=coupling_j, boundary=boundary, route=args.route)
    reference = sweep_reference(n, coupling_j, beta, boundary, thermal=reference_kind == "thermal")
    result = sweep_detection(grid, reference)
    with _output_dir(args.out) as out:
        write_sweep_csv(result, os.path.join(out, "sweep.csv"))
        _write_json(
            os.path.join(out, "sweep_meta.json"),
            {"command": "sweep", "config": cfg, "grid": sweep_metadata(result, reference)},
        )
    return EXIT_OK if result.detected.any() else EXIT_NOT_DETECTED


def _haar_unitary(register: QubitRegister, seed: int) -> UnitaryOperator:
    rng = np.random.default_rng(seed)
    dim = register.dim
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return UnitaryOperator(register, [(np.arange(dim)[None, :], (q * phases[None, :])[None])])


def _largest_difference(a: UnitaryOperator, b: UnitaryOperator) -> float:
    """max |a - b| over every entry, taken on the blocks both are made of:
    between those blocks both are 0."""
    blocks = shared_blocks(a.register.n, a.stacks, b.stacks)
    return max(float(np.abs(restrict(a.stacks, i) - restrict(b.stacks, i)).max()) for i in blocks)


def _run_verify(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    with _prefix(args.config, ConfigError):
        check_keys(cfg, {"protocol", "beta", "unitary_file"}, ())
        beta = _float_key(cfg, "beta", 100.0)
        protocol = _protocol_from_config(cfg.get("protocol", "three-qubit"), beta)
        path = cfg.get("unitary_file")
        # open() would take an int as a file descriptor
        if "unitary_file" in cfg and not isinstance(path, str):
            raise ConfigError(f"unitary_file: expected a file path, got {path!r}")
    schedule = protocol.schedule
    register = QubitRegister(schedule.n)

    external_u: UnitaryOperator | None = None
    if path is not None:
        payload = _load_config(path)  # an unreadable unitary file is named alone
        with _prefix(args.config, ConfigError):
            try:
                external_u = unitary_from_json(payload)
            except (ValueError, TypeError) as err:
                if isinstance(err, NumericalCheckError):
                    raise
                raise ConfigError(f"unitary_file: {err}") from err
            if external_u.register != register:
                raise ConfigError(
                    f"unitary_file: unitary is on {external_u.register.n} qubits, protocol uses {register.n}"
                )
    # every drive below is measured once, between these two spectra
    h_initial = protocol.initial_spec.spectrum
    h_final = protocol.final_spec.spectrum

    checks: list[dict] = []

    def record(name: str, value: float | None, tolerance: float, detail: str) -> None:
        checks.append(
            {
                "name": name,
                "value": value,
                "tolerance": tolerance,
                "passed": None if value is None else bool(value <= tolerance),  # None: skipped
                "detail": detail,
            }
        )

    def log_average(u: UnitaryOperator) -> float:
        return log_work_average(transition_matrix(h_initial, h_final, u), beta, beta)

    u_trotter = trotter_evolution(schedule)
    record(
        "unitarity",
        u_trotter.deviation,
        1e-10,
        f"max |U+U - 1| over the {schedule.steps}-step product",
    )

    expected = -delta_beta_f(protocol.initial_spec, protocol.final_spec)
    trotter = transition_matrix(h_initial, h_final, u_trotter)
    log_trotter = log_work_average(trotter, beta, beta)
    jarzynski_dev = abs(log_trotter - expected)
    record(
        "jarzynski",
        jarzynski_dev,
        1e-9,
        "log work average vs log partition ratio at equal temperatures",
    )

    log_z_half = gibbs_log_partition(h_final.eigenvalues, beta / 2.0)
    expected_cross = log_z_half - protocol.initial_spec.log_partition
    tasaki_dev = abs(log_work_average(trotter, beta, beta / 2.0) - expected_cross)
    record(
        "tasaki",
        tasaki_dev,
        1e-9,
        "cross-temperature log average vs its partition ratio",
    )

    quench = transition_matrix(h_initial, h_final, _identity_unitary(register))
    base = log_work_average(quench, beta, beta)
    protocol_dev = abs(log_trotter - base)
    if external_u is not None:
        protocol_dev = max(protocol_dev, abs(log_average(external_u) - base))
    haar_dev = abs(log_average(_haar_unitary(register, args.seed)) - base)
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
        trotter_dev = _largest_difference(trotter_evolution(schedule, sampling="midpoint"), u_exact)
        detail = "midpoint product vs closed-form evolution"
    except NumericalCheckError:
        trotter_dev, detail = None, "skipped: protocol Hamiltonians do not commute"
    record("trotter_vs_exact", trotter_dev, 1e-4, detail)

    all_passed = all(c["passed"] is not False for c in checks)
    with _output_dir(args.out) as out:
        _write_json(
            os.path.join(out, "verify_report.json"),
            {"command": "verify", "config": cfg, "checks": checks, "all_passed": all_passed},
        )
    for check in checks:
        status = {True: "pass", False: "FAIL", None: "skip"}[check["passed"]]
        print(f"{check['name']}: {status}")
    return EXIT_OK if all_passed else EXIT_NUMERICAL


# Rows per write.  Joined whole, a block (about 2.4 MB of text) took fresh
# pages from the allocator every time, and their faults cost more than the
# formatting: the writes of a 10^6-draw run took 37.5k minor faults that way
# and 1.1k this way.
WRITE_ROWS = 1024


def _write_trajectories(handle, distinct: TrajectoryBatch, inverse: np.ndarray) -> None:
    """The rows of one block of draws in trajectories.csv, given as the
    block's distinct level pairs and each draw's position among them.

    Every column is a function of the level pair (n_index, m_index), so the
    block formats one row per distinct pair and writes the block by lookup.
    """
    columns = (
        distinct.n_index,
        distinct.m_index,
        distinct.energy_initial,
        distinct.energy_final,
        distinct.work,
        distinct.generalized_exponent,
    )
    table = np.array(
        [
            f"{n},{m},{e_i:.17g},{e_f:.17g},{w:.17g},{x:.17g}\n".encode()
            for n, m, e_i, e_f, w, x in zip(*(c.tolist() for c in columns))
        ],
        dtype=object,
    )
    rows = table[inverse]
    for start in range(0, rows.size, WRITE_ROWS):
        handle.write(b"".join(rows[start : start + WRITE_ROWS]))


def _run_sample(args) -> int:
    cfg = _load_config(args.config)
    with _prefix(args.config, ConfigError):
        check_keys(
            cfg,
            {"protocol", "beta", "count", "evolution", "sampling"},
            ("protocol",),
        )
        beta = _float_key(cfg, "beta", 100.0)
        protocol = _protocol_from_config(cfg["protocol"], beta)
        count = cfg.get("count", 100000)
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise ConfigError(f"count: expected a positive integer, got {count!r}")
        # refused before any spectrum or unitary is built
        needed, budget = TRAJECTORY_BYTES * count, memory_budget()
        if needed > budget:
            raise ConfigError(
                f"count: {count} draws need about {needed} bytes, "
                f"more than the memory budget of {budget} bytes"
            )
        sampling = _choice(cfg, "sampling", "left", SAMPLING_RULES)
        evolution_kind = _choice(cfg, "evolution", "trotter", EVOLUTION_KINDS)
    evolution = _resolve_evolution(evolution_kind, protocol, sampling)
    if evolution is None:
        evolution = _identity_unitary(QubitRegister(protocol.schedule.n))
    initial, final = protocol.initial_spec, protocol.final_spec
    tm = transition_matrix(initial.spectrum, final.spectrum, evolution)
    with _output_dir(args.out) as out:
        with open(os.path.join(out, "trajectories.csv"), "wb") as handle:
            handle.write(b"n_index,m_index,energy_initial,energy_final,work,generalized_exponent\n")
            write = functools.partial(_write_trajectories, handle)
            _, summary = sample_tpm(tm, initial.beta, final.beta, count, args.seed, on_block=write)
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


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if "route" in args:
            args.route = ROUTES[args.route]
        _check_out(args.out)
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
