"""XXZ chains in a transverse field, and linear driving schedules between two
parameter sets.

The Hamiltonian built here is

    H = - sum_l [ (J/2)(sx_l sx_{l+1} + sy_l sy_{l+1}) + Jz sz_l sz_{l+1} + B sz_l ]

with the two-site sum wrapping around for periodic chains (the l = n bond is
dropped for open ones) and the field always running over all n sites.

Written as H = J H_xy + Jz H_zz - B S_z over three fixed pieces, it conserves
the total magnetization S^z = sum_l sz_l, so it is block diagonal in the
sectors of fixed S^z.  ``xxz_sectors`` builds, once per (n, boundary), each
sector's basis indices, its real hopping block (H_xy), its H_zz diagonal and
its magnetization m, from the action of every bond on basis states; no
dense 2^n x 2^n piece is ever stored.  S_z commutes with everything, so a
field only shifts a sector's energies by -B m.  ``build_xxz`` assembles the
dense matrix from the blocks, and ``sector_spectra`` diagonalizes the blocks
one by one (at most 35 states at n = 7, 924 at n = 12), with the checks of
``operators.checked_eigh``.  ``chain_pieces`` applies the same bond action to
the whole basis of a register, for chains laid on any of its sites (the
open-system split and driven subsystem).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .operators import HermitianOperator, QubitRegister, _popcounts, checked_eigh

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


@dataclass(frozen=True)
class Sector:
    """The chain restricted to the basis states with k sites in |1>.

    ``indices`` are those states' basis indices in ascending order;
    ``hopping`` is the real block of H_xy = -(1/2) sum (sx sx + sy sy) on them,
    ``zz`` the diagonal of H_zz = -sum sz sz, and ``magnetization`` the
    eigenvalue m = n - 2k of S_z.  Arrays are read-only.
    """

    indices: np.ndarray
    hopping: np.ndarray
    zz: np.ndarray
    magnetization: int

    @property
    def size(self) -> int:
        return int(self.indices.size)

    def block(self, params: XXZParams) -> np.ndarray:
        """J H_xy + Jz H_zz - B S_z on this sector, as a real symmetric matrix."""
        return xxz_matrix(params, self.hopping, self.zz, self.magnetization)


def xxz_matrix(
    params: XXZParams, hopping: np.ndarray, zz: np.ndarray, magnetization: np.ndarray | float
) -> np.ndarray:
    """J H_xy + Jz H_zz - B S_z from the hopping matrix and the H_zz and S_z
    diagonals (a scalar magnetization for one sector)."""
    out = params.J * hopping
    out.flat[:: hopping.shape[0] + 1] += params.Jz * zz - params.B * magnetization
    return out


def _bonds(n: int, boundary: str) -> list[tuple[int, int]]:
    """0-based site pairs of the chain's bonds (two equal ones at n=2, periodic)."""
    last_bond = n if boundary == "periodic" else n - 1
    return [(l, (l + 1) % n) for l in range(last_bond)]


def _bond_action(
    n: int, bonds: list[tuple[int, int]], indices: np.ndarray, position: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """H_xy = -(1/2) sum (sx sx + sy sy) and the diagonal of H_zz = -sum sz sz
    over ``bonds`` (0-based site pairs), on the basis states ``indices``.

    ``position`` maps a basis index to its row; the bonds must map the states
    into themselves, as they do for a sector of fixed S^z or the whole basis.
    """
    hopping = np.zeros((indices.size, indices.size))
    zz = np.zeros(indices.size)
    for l, m in bonds:
        # site l (0-based) is bit n-1-l of the basis index; site 0 is leftmost
        mask_l, mask_m = 1 << (n - 1 - l), 1 << (n - 1 - m)
        differ = ((indices & mask_l) == 0) != ((indices & mask_m) == 0)
        zz += np.where(differ, 1.0, -1.0)
        # sx sx + sy sy swaps an antiparallel pair with amplitude 2
        source = np.flatnonzero(differ)
        target = position[indices[source] ^ (mask_l | mask_m)]
        np.add.at(hopping, (target, source), -1.0)
    return hopping, zz


def chain_pieces(
    n: int, bonds: list[tuple[int, int]], field_sites: Iterable[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense H_xy and the diagonals of H_zz and S_z on an n-qubit register.

    The XXZ pieces of any bond graph: ``bonds`` are 0-based site pairs and
    ``field_sites`` the 0-based sites the field acts on, so a chain laid on
    any sites of a larger register needs no operator embedding.  Combine them
    with ``xxz_matrix``.
    """
    QubitRegister(n)
    states = np.arange(2**n)
    hopping, zz = _bond_action(n, bonds, states, states)
    magnetization = np.zeros(2**n)
    for site in field_sites:
        magnetization += 1 - 2 * ((states >> (n - 1 - site)) & 1)
    return hopping, zz, magnetization


@functools.lru_cache(maxsize=None)
def xxz_sectors(n: int, boundary: str = "periodic") -> tuple[Sector, ...]:
    """The S^z sectors of the n-site chain, by ascending number of ones.

    Built once per (n, boundary) and cached; every parameter set reuses them.
    """
    QubitRegister(n)
    if boundary not in BOUNDARIES:
        raise ValueError(f"boundary must be one of {BOUNDARIES}, got {boundary!r}")
    states = np.arange(2**n)
    ones = _popcounts(n)
    position = np.empty(2**n, dtype=np.int64)
    bonds = _bonds(n, boundary)
    sectors = []
    for k in range(n + 1):
        indices = states[ones == k]
        position[indices] = np.arange(indices.size)
        hopping, zz = _bond_action(n, bonds, indices, position)
        for array in (indices, hopping, zz):
            array.setflags(write=False)
        sectors.append(Sector(indices, hopping, zz, n - 2 * k))
    return tuple(sectors)


def build_xxz(params: XXZParams) -> HermitianOperator:
    """Dense Hamiltonian matrix for the given chain parameters, assembled
    from the sector blocks."""
    register = QubitRegister(params.n)
    h = np.zeros((register.dim, register.dim), dtype=np.complex128)
    for sector in xxz_sectors(params.n, params.boundary):
        h[np.ix_(sector.indices, sector.indices)] = sector.block(params)
    return HermitianOperator(register, h)


def sector_spectra(params: XXZParams) -> list[tuple[Sector, np.ndarray, np.ndarray]]:
    """(sector, ascending energies, real orthonormal eigenvectors) for every
    S^z sector of the chain, each from one checked ``eigh`` of its block.

    The field enters a sector only as the shift -B m of its energies, so a
    caller scanning B may diagonalize once at B = 0 and shift.
    """
    return [
        (sector, *checked_eigh(sector.block(params)))
        for sector in xxz_sectors(params.n, params.boundary)
    ]


def total_sz(register: QubitRegister) -> HermitianOperator:
    """Total magnetization sum_l sz_l (the U(1) charge of the XXZ chain)."""
    magnetization = register.n - 2 * _popcounts(register.n)
    return HermitianOperator(register, np.diag(magnetization.astype(np.complex128)))


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
