"""XXZ chains in a transverse field, and linear driving schedules between two
parameter sets.

The Hamiltonian built here is

    H = - sum_l [ (J/2)(sx_l sx_{l+1} + sy_l sy_{l+1}) + Jz sz_l sz_{l+1} + B sz_l ]

with the two-site sum wrapping around for periodic chains (the l = n bond is
dropped for open ones) and the field always running over all n sites.

Written as H = J H_xy + Jz H_zz - B S_z over three fixed pieces, it conserves
the total magnetization S^z = sum_l sz_l.  ``chain_pieces`` builds the
pieces of any bond graph on a register from the action of every bond on the
basis states: H_xy as a dense real matrix, H_zz and S_z as diagonals.
``xxz_pieces`` caches them, read-only, per (n, boundary) for the standard
chain, and ``xxz_matrix`` combines them for one parameter set; this is the
package's one representation of a chain Hamiltonian.  Where the S^z
sectors matter (spectra, Trotter products, commutators), the callers cut
the dense matrices with ``operators.sector_stacks``; S_z is m I on a
sector, so a field only shifts a sector's energies by -B m.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .operators import HermitianOperator, QubitRegister

BOUNDARIES = ("periodic", "open")
INTERPOLATIONS = ("linear", "quench-at-start")


@dataclass(frozen=True)
class XXZParams:
    """Chain parameters: size, in-plane coupling J, axial coupling Jz, field B."""

    n: int
    J: float
    Jz: float
    B: float
    boundary: str = "periodic"

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"chain needs at least two sites, got n={self.n!r}")
        for name in ("J", "Jz", "B"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.boundary not in BOUNDARIES:
            raise ValueError(
                f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}"
            )


@dataclass(frozen=True)
class DrivingSchedule:
    """Piecewise protocol from ``initial`` to ``final`` parameters over t_f.

    ``steps`` slices of width dt = t_f/steps; interpolation is either a linear
    parameter ramp or a quench at t = 0 (final parameters for every t > 0).
    """

    initial: XXZParams
    final: XXZParams
    t_f: float = 1.0
    steps: int = 1000
    interpolation: str = "linear"

    def __post_init__(self) -> None:
        if self.initial.n != self.final.n:
            raise ValueError("schedule endpoints must share the chain size")
        if self.initial.boundary != self.final.boundary:
            raise ValueError("schedule endpoints must share the boundary condition")
        if not isinstance(self.steps, int) or self.steps < 1:
            raise ValueError(f"steps must be a positive integer, got {self.steps!r}")
        if not math.isfinite(self.t_f) or self.t_f < 0:
            raise ValueError(f"t_f must be finite and non-negative, got {self.t_f!r}")
        if self.interpolation not in INTERPOLATIONS:
            raise ValueError(
                f"interpolation must be one of {INTERPOLATIONS}, got {self.interpolation!r}"
            )

    @property
    def dt(self) -> float:
        return self.t_f / self.steps

    @property
    def n(self) -> int:
        return self.initial.n


def xxz_matrix(
    params: XXZParams, hopping: np.ndarray, zz: np.ndarray, magnetization: np.ndarray | float
) -> np.ndarray:
    """J H_xy + Jz H_zz - B S_z, as a real matrix, from the hopping matrix
    and the H_zz and S_z diagonals (a scalar magnetization shifts every
    diagonal entry alike)."""
    out = params.J * hopping
    out.flat[:: hopping.shape[0] + 1] += params.Jz * zz - params.B * magnetization
    return out


def _bonds(n: int, boundary: str) -> list[tuple[int, int]]:
    """0-based site pairs of the chain's bonds (two equal ones at n=2, periodic)."""
    last_bond = n if boundary == "periodic" else n - 1
    return [(l, (l + 1) % n) for l in range(last_bond)]


def chain_pieces(
    n: int, bonds: list[tuple[int, int]], field_sites: Iterable[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense H_xy = -(1/2) sum (sx sx + sy sy) and the diagonals of
    H_zz = -sum sz sz and S_z on an n-qubit register, all real.

    The XXZ pieces of any bond graph: ``bonds`` are 0-based site pairs and
    ``field_sites`` the 0-based sites the field acts on, so a chain laid on
    any sites of a larger register needs no operator embedding.  Combine them
    with ``xxz_matrix``.
    """
    QubitRegister(n)
    states = np.arange(2**n)
    hopping = np.zeros((states.size, states.size))
    zz = np.zeros(states.size)
    for l, m in bonds:
        # site l (0-based) is bit n-1-l of the basis index; site 0 is leftmost
        mask_l, mask_m = 1 << (n - 1 - l), 1 << (n - 1 - m)
        differ = ((states & mask_l) == 0) != ((states & mask_m) == 0)
        zz += np.where(differ, 1.0, -1.0)
        # sx sx + sy sy swaps an antiparallel pair with amplitude 2
        source = np.flatnonzero(differ)
        np.add.at(hopping, (source ^ (mask_l | mask_m), source), -1.0)
    magnetization = np.zeros(states.size)
    for site in field_sites:
        magnetization += 1 - 2 * ((states >> (n - 1 - site)) & 1)
    return hopping, zz, magnetization


@functools.lru_cache(maxsize=None)
def xxz_pieces(n: int, boundary: str = "periodic") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``chain_pieces`` of the n-site chain with the field on every site:
    H_xy, and the diagonals of H_zz and S_z.

    Built once per (n, boundary) and cached read-only; every parameter set
    reuses them.
    """
    if boundary not in BOUNDARIES:
        raise ValueError(f"boundary must be one of {BOUNDARIES}, got {boundary!r}")
    pieces = chain_pieces(n, _bonds(n, boundary), range(n))
    for array in pieces:
        array.setflags(write=False)
    return pieces


def build_xxz(params: XXZParams) -> HermitianOperator:
    """Dense Hamiltonian matrix for the given chain parameters, from the
    cached pieces."""
    pieces = xxz_pieces(params.n, params.boundary)
    return HermitianOperator(QubitRegister(params.n), xxz_matrix(params, *pieces))


def ramp_values(schedule: DrivingSchedule, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(J, Jz, B) at time ``t``, elementwise over an array of times in
    [0, t_f]: the schedule's one interpolation formula."""
    t = np.asarray(t, dtype=np.float64)
    initial, final = schedule.initial, schedule.final
    if schedule.interpolation == "quench-at-start":
        return tuple(np.full(t.shape, value) for value in (final.J, final.Jz, final.B))
    frac = np.zeros(t.shape) if schedule.t_f == 0 else np.minimum(t / schedule.t_f, 1.0)
    return tuple(
        start + frac * (end - start)
        for start, end in ((initial.J, final.J), (initial.Jz, final.Jz), (initial.B, final.B))
    )


def params_at(schedule: DrivingSchedule, t: float) -> XXZParams:
    """Interpolated chain parameters at time ``t`` in [0, t_f]."""
    if not 0 <= t <= schedule.t_f * (1 + 1e-12) + 1e-15:
        raise ValueError(f"t={t} outside the schedule window [0, {schedule.t_f}]")
    J, Jz, B = (float(value) for value in ramp_values(schedule, t))
    return XXZParams(n=schedule.n, J=J, Jz=Jz, B=B, boundary=schedule.initial.boundary)


def xxz_params_from_config(payload: dict, path: str = "params") -> XXZParams:
    """Strictly parse an XXZParams block from JSON config data."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected an object with keys n, J, Jz, B, boundary")
    allowed = {"n", "J", "Jz", "B", "boundary"}
    unknown = set(payload) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    for key in ("n", "J", "Jz", "B"):
        if key not in payload:
            raise ConfigError(f"{path}: missing required key {key!r}")
    try:
        return XXZParams(
            n=payload["n"],
            J=float(payload["J"]),
            Jz=float(payload["Jz"]),
            B=float(payload["B"]),
            boundary=payload.get("boundary", "periodic"),
        )
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path}: {err}") from err


def schedule_from_config(payload: dict, path: str = "schedule") -> DrivingSchedule:
    """Strictly parse a DrivingSchedule block from JSON config data."""
    if not isinstance(payload, dict):
        raise ConfigError(
            f"{path}: expected an object with keys initial, final, t_f, steps, interpolation"
        )
    allowed = {"initial", "final", "t_f", "steps", "interpolation"}
    unknown = set(payload) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    for key in ("initial", "final"):
        if key not in payload:
            raise ConfigError(f"{path}: missing required key {key!r}")
    initial = xxz_params_from_config(payload["initial"], f"{path}.initial")
    final = xxz_params_from_config(payload["final"], f"{path}.final")
    try:
        return DrivingSchedule(
            initial=initial,
            final=final,
            t_f=float(payload.get("t_f", 1.0)),
            steps=payload.get("steps", 1000),
            interpolation=payload.get("interpolation", "linear"),
        )
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path}: {err}") from err
