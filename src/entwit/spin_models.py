"""XXZ chains in a transverse field, linear driving schedules between two
parameter sets, and their strict JSON config parsers.

The Hamiltonian built here is

    H = - sum_l [ (J/2)(sx_l sx_{l+1} + sy_l sy_{l+1}) + Jz sz_l sz_{l+1} + B sz_l ]

with the two-site sum wrapping around for periodic chains (the l = n bond is
dropped for open ones) and the field always running over all n sites.

Written as H = J H_xy + Jz H_zz - B S_z over three fixed pieces, it conserves
the total magnetization S^z = sum_l sz_l.  ``chain_pieces`` builds the
pieces of any bond graph on a register directly on its S^z sectors, from the
action of every bond on each sector's basis states, as read-only piece
stacks.  ``xxz_pieces`` caches them once per (n, boundary) for the standard
chain: this is the package's one stored form of a chain.  ``build_xxz``
combines them for one parameter set, the Trotter product takes them as they
are, and S_z is m I on a sector, so a field only shifts a sector's energies
by -B m.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .operators import HermitianOperator, QubitRegister, combine, sector_partition

BOUNDARIES = ("periodic", "open")


@dataclass(frozen=True)
class XXZParams:
    """Chain parameters: size, in-plane coupling J, axial coupling Jz, field B."""

    n: int
    J: float
    Jz: float
    B: float
    boundary: str = "periodic"

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            raise ValueError(f"n must be an integer, got n={self.n!r} of type {type(self.n).__name__}")
        if self.n < 2:
            raise ValueError(f"chain needs at least two sites, got n={self.n!r}")
        QubitRegister(self.n)  # raises above MAX_QUBITS
        for name in ("J", "Jz", "B"):
            value = getattr(self, name)
            if not is_number(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.boundary not in BOUNDARIES:
            raise ValueError(
                f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}"
            )


@dataclass(frozen=True)
class DrivingSchedule:
    """Linear parameter ramp from ``initial`` to ``final`` over t_f, in
    ``steps`` slices of width dt = t_f/steps."""

    initial: XXZParams
    final: XXZParams
    t_f: float = 1.0
    steps: int = 1000

    def __post_init__(self) -> None:
        if self.initial.n != self.final.n:
            raise ValueError("schedule endpoints must share the chain size")
        if self.initial.boundary != self.final.boundary:
            raise ValueError("schedule endpoints must share the boundary condition")
        if isinstance(self.steps, bool) or not isinstance(self.steps, int) or self.steps < 1:
            raise ValueError(f"steps must be a positive integer, got {self.steps!r}")
        if not is_number(self.t_f) or self.t_f < 0:
            raise ValueError(f"t_f must be finite and non-negative, got {self.t_f!r}")

    @property
    def dt(self) -> float:
        return self.t_f / self.steps

    @property
    def n(self) -> int:
        return self.initial.n


def _bonds(n: int, boundary: str) -> list[tuple[int, int]]:
    """0-based site pairs of the chain's bonds (two equal ones at n=2, periodic)."""
    last_bond = n if boundary == "periodic" else n - 1
    return [(l, (l + 1) % n) for l in range(last_bond)]


def chain_pieces(
    n: int, bonds: Iterable[tuple[int, int]], field_sites: Iterable[int]
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """H_xy = -(1/2) sum (sx sx + sy sy), H_zz = -sum sz sz and S_z of the
    bond graph ``bonds`` (0-based site pairs) with the field on the 0-based
    ``field_sites``, as read-only piece stacks on the S^z sectors of n
    qubits in ``operators.sector_partition`` order: real blocks (3, k, s, s).

    A bond keeps the popcount.  A rank map gives each basis state its place
    in its sector, and H_xy adds -1 wherever a bond swaps an antiparallel
    pair.  ``operators.embed`` lays the stacks on some sites of a register.
    """
    QubitRegister(n)
    first, second = np.array(list(bonds), dtype=np.int64).reshape(-1, 2).T
    field_sites = np.array(list(field_sites), dtype=np.int64)
    # site l (0-based) is bit n-1-l of the basis index; site 0 is leftmost
    flips = (1 << (n - 1 - first)) | (1 << (n - 1 - second))
    rank = np.empty(2**n, dtype=np.int64)
    out = []
    for indices, _ in sector_partition(n):
        span = rank[indices] = np.arange(indices.shape[1])
        bits = (indices[..., None] >> np.arange(n - 1, -1, -1)) & 1
        differ = bits[..., first] != bits[..., second]
        blocks = np.zeros((3, *indices.shape, span.size))
        # sums of +-1, exact in any order
        blocks[1][:, span, span] = np.where(differ, 1.0, -1.0).sum(axis=-1)
        blocks[2][:, span, span] = (1 - 2 * bits[..., field_sites]).sum(axis=-1)
        # sx sx + sy sy swaps an antiparallel pair with amplitude 2
        block, source, bond = np.nonzero(differ)
        np.add.at(blocks[0], (block, rank[indices[block, source] ^ flips[bond]], source), -1.0)
        blocks.setflags(write=False)
        out.append((indices, blocks))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def xxz_pieces(n: int, boundary: str = "periodic") -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The ``chain_pieces`` of the n-site chain with the field on every
    site: H_xy, H_zz and S_z on each S^z sector stack, (3, k, s, s).  Built
    once per (n, boundary) and cached read-only, for every parameter set."""
    if boundary not in BOUNDARIES:
        raise ValueError(f"boundary must be one of {BOUNDARIES}, got {boundary!r}")
    return chain_pieces(n, _bonds(n, boundary), range(n))


def build_xxz(params: XXZParams) -> HermitianOperator:
    """The chain Hamiltonian for the given parameters, J H_xy + Jz H_zz -
    B S_z combined on the blocks of the cached pieces."""
    stacks = xxz_pieces(params.n, params.boundary)
    return HermitianOperator(QubitRegister(params.n), combine(stacks, (params.J, params.Jz, -params.B)))


def ramp_values(schedule: DrivingSchedule, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(J, Jz, B) at time ``t``, elementwise over an array of times in
    [0, t_f]: the schedule's one interpolation formula, exact at t_f."""
    t = np.asarray(t, dtype=np.float64)
    initial, final = schedule.initial, schedule.final
    frac = np.zeros(t.shape) if schedule.t_f == 0 else np.minimum(t / schedule.t_f, 1.0)
    return tuple(
        np.where(frac == 1.0, end, start + frac * (end - start))
        for start, end in ((initial.J, final.J), (initial.Jz, final.Jz), (initial.B, final.B))
    )


def params_at(schedule: DrivingSchedule, t: float) -> XXZParams:
    """Interpolated chain parameters at time ``t`` in [0, t_f]."""
    if not 0 <= t <= schedule.t_f * (1 + 1e-12) + 1e-15:
        raise ValueError(f"t={t} outside the schedule window [0, {schedule.t_f}]")
    J, Jz, B = (float(value) for value in ramp_values(schedule, t))
    return XXZParams(n=schedule.n, J=J, Jz=Jz, B=B, boundary=schedule.initial.boundary)


def check_keys(payload: dict, allowed, required, path: str = "") -> None:
    """Raise ConfigError, prefixed by the JSON ``path`` of ``payload`` unless
    it is the top level, for keys of ``payload`` not in ``allowed``, then for
    the first key of ``required`` it lacks."""
    where = f"{path}: " if path else ""
    unknown = set(payload) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}unknown keys {sorted(unknown)}")
    for key in required:
        if key not in payload:
            raise ConfigError(f"{where}missing required key {key!r}")


def is_number(value) -> bool:
    """Whether ``value`` is a finite int or float and not a bool: the one
    test of a number given to a parameter class or read from a config."""
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int beyond the range of a float
        return False


def config_number(value, path: str) -> float:
    """A config number as a float when ``is_number``; anything else raises
    ConfigError naming ``path``."""
    if is_number(value):
        return float(value)
    raise ConfigError(f"{path}: expected a finite number, got {value!r}")


def xxz_params_from_config(payload: dict, path: str = "params") -> XXZParams:
    """Strictly parse an XXZParams block from JSON config data."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected an object with keys n, J, Jz, B, boundary")
    check_keys(payload, {"n", "J", "Jz", "B", "boundary"}, ("n", "J", "Jz", "B"), path)
    J, Jz, B = (config_number(payload[key], f"{path}.{key}") for key in ("J", "Jz", "B"))
    try:
        return XXZParams(n=payload["n"], J=J, Jz=Jz, B=B, boundary=payload.get("boundary", "periodic"))
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path}: {err}") from err


def schedule_from_config(payload: dict, path: str = "schedule") -> DrivingSchedule:
    """Strictly parse a DrivingSchedule block from JSON config data."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected an object with keys initial, final, t_f, steps")
    check_keys(payload, {"initial", "final", "t_f", "steps"}, ("initial", "final"), path)
    initial = xxz_params_from_config(payload["initial"], f"{path}.initial")
    final = xxz_params_from_config(payload["final"], f"{path}.final")
    t_f = config_number(payload.get("t_f", 1.0), f"{path}.t_f")
    try:
        return DrivingSchedule(initial=initial, final=final, t_f=t_f, steps=payload.get("steps", 1000))
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path}: {err}") from err
