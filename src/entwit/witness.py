"""Relative-entropy entanglement witness and parameter-space detection sweeps.

The test compares two distances from a reference entangled state ``rho``:
``s_left = S(rho||sigma_ref)`` against a known separable reference
``sigma_ref``, and ``s_right = S(rho||rho_star)`` against the state under
test.  Whenever ``s_right < s_left`` (strictly, beyond a small epsilon),
``rho_star`` must be entangled: no separable state sits closer to ``rho``
than the closest separable one.

Both distances can be computed directly from spectra or rebuilt from
two-point-measurement work statistics when every state involved is a declared
Gibbs state; the two routes agree to numerical precision and are kept
separate on purpose.  A direct distance uses one of three evaluators: the
Gibbs identity when both states are declared Gibbs states, the analytic log
weights of a declared Gibbs sigma under a dense rho, and the dense spectral
evaluator otherwise.  The last two share ``thermo.diagonal_overlaps``.

A direct sweep builds the chain once per Jz value from the cached
``spin_models.xxz_pieces``, diagonalizes it and takes the reference state's
overlaps in one ``thermo.sector_overlaps`` call, and takes the log Gibbs
weights of the (B, T) plane from one ``thermo.logsumexp`` call (a few for
large registers and grids).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .operators import (
    DensityMatrix,
    QubitRegister,
    UnitaryOperator,
    dicke_state,
    pure_state,
    spectral_decompose,
)
from .spin_models import (
    DrivingSchedule,
    XXZParams,
    build_xxz,
    xxz_matrix,
    xxz_pieces,
)
from .thermo import (
    ThermalSpec,
    _plogp,
    diagonal_overlaps,
    gibbs_relative_entropy,
    logsumexp,
    nonnegative_entropy,
    relative_entropy,
    sector_overlaps,
    thermal_state,
)
from .work_stats import _map_tasks, relative_entropy_via_work

STRICTNESS_EPSILON = 1e-9
# A direct sweep stacks the log Gibbs weights of every T and of as many B
# values as fit in this many entries (whole planes on every acceptance grid).
SWEEP_STACK_ENTRIES = 1 << 20

# Final-field values that prepare the reference entangled state as the ground
# state of the chain, per register size.
FINAL_FIELD = {3: 0.5, 7: 0.92}


def build_w_state(n: int) -> DensityMatrix:
    """Projector onto the single-excitation Dicke state on n qubits."""
    register = QubitRegister(n)
    if n < 2:
        raise ValueError("the single-excitation state needs at least two qubits")
    return pure_state(register, dicke_state(register, 1))


def build_css(n: int) -> DensityMatrix:
    """Closest separable state to the single-excitation Dicke state.

    A mixture of Dicke projectors with weights C(n,k) (n-1)^k / n^n on the
    component with k zeros; the weights sum to one by the binomial theorem.
    Equivalently: the uniform average over n+1 phases of the product state
    with per-site amplitude sqrt(1/n) on |1>.
    """
    register = QubitRegister(n)
    if n < 2:
        raise ValueError("the separable reference needs at least two qubits")
    entries = np.zeros((register.dim, register.dim), dtype=np.complex128)
    total = float(n**n)
    for k_zeros in range(n + 1):
        weight = math.comb(n, k_zeros) * float((n - 1) ** k_zeros) / total
        vec = dicke_state(register, n - k_zeros)
        entries += weight * np.outer(vec, vec.conj())
    return DensityMatrix(register, entries)


def build_sigma_prime_7() -> DensityMatrix:
    """Separable seven-qubit reference mixing the all-zeros projector with the
    single-excitation Dicke projector; unlike the full closest separable
    state, this one is exactly preparable as a low-temperature Gibbs state
    of the chain, and it sits at the same distance from the reference
    entangled state."""
    register = QubitRegister(7)
    total = float(7**7)
    zeros_weight = (7**7 - 7 * 6**6) / total
    dicke_weight = 7 * 6**6 / total
    entries = np.zeros((register.dim, register.dim), dtype=np.complex128)
    entries[0, 0] = zeros_weight
    vec = dicke_state(register, 1)
    entries += dicke_weight * np.outer(vec, vec.conj())
    return DensityMatrix(register, entries)


def _warn_if_warm(beta: float) -> None:
    if 1.0 / beta > 0.1:
        warnings.warn(
            "thermal identification of the separable reference is only accurate "
            f"at low temperature; 1/beta = {1.0 / beta:.3g} > 0.1",
            stacklevel=3,
        )


def css_thermal_params_3(beta: float, coupling_j: float = 1.0, boundary: str = "periodic") -> XXZParams:
    """Chain parameters whose Gibbs state at ``beta`` reproduces the 3-qubit
    closest separable state (to many digits once beta is large)."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    _warn_if_warm(beta)
    return XXZParams(
        n=3,
        J=coupling_j,
        Jz=(2.0 * coupling_j - math.log(3.0) / beta) / 4.0,
        B=math.log(2.0) / (2.0 * beta),
        boundary=boundary,
    )


def sigma_prime_thermal_params_7(beta: float, coupling_j: float = 1.0, boundary: str = "periodic") -> XXZParams:
    """Chain parameters whose Gibbs state at ``beta`` reproduces the exactly
    preparable 7-qubit separable reference."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    _warn_if_warm(beta)
    return XXZParams(
        n=7,
        J=coupling_j,
        Jz=0.0,
        B=math.log(70993.0 / 46656.0) / (2.0 * beta) + coupling_j,
        boundary=boundary,
    )


@dataclass(frozen=True)
class DetectionProtocol:
    """Driving protocol that carries the separable reference into the
    entangled reference as the endpoints' low-temperature Gibbs states."""

    schedule: DrivingSchedule
    beta: float

    # Built on first read and kept, so every reader shares one spectrum.
    @functools.cached_property
    def initial_spec(self) -> ThermalSpec:
        return ThermalSpec(build_xxz(self.schedule.initial), self.beta)

    @functools.cached_property
    def final_spec(self) -> ThermalSpec:
        return ThermalSpec(build_xxz(self.schedule.final), self.beta)


def detection_protocol(
    n: int,
    beta: float = 100.0,
    coupling_j: float = 1.0,
    t_f: float = 1.0,
    steps: int = 1000,
    boundary: str = "periodic",
) -> DetectionProtocol:
    """The standard witness protocol for n = 3 or n = 7 qubits."""
    if n == 3:
        initial = css_thermal_params_3(beta, coupling_j, boundary)
    elif n == 7:
        initial = sigma_prime_thermal_params_7(beta, coupling_j, boundary)
    else:
        raise ValueError(f"standard protocols exist for n = 3 and n = 7, got n={n}")
    final = XXZParams(n=n, J=coupling_j, Jz=0.0, B=FINAL_FIELD[n], boundary=boundary)
    schedule = DrivingSchedule(initial=initial, final=final, t_f=t_f, steps=steps)
    return DetectionProtocol(schedule=schedule, beta=beta)


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of one witness evaluation.

    ``margin = s_left - s_right``; detection requires the margin to exceed the
    strictness epsilon.  Infinities are meaningful (support mismatches); when
    both sides are infinite the margin is NaN and nothing is detected.
    """

    s_left: float
    s_right: float
    margin: float
    detected: bool
    route: str
    metadata: dict

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


StateOrSpec = DensityMatrix | ThermalSpec


def _as_state(value: StateOrSpec, what: str) -> DensityMatrix:
    if isinstance(value, ThermalSpec):
        return thermal_state(value)
    if isinstance(value, DensityMatrix):
        return value
    raise TypeError(f"{what} must be a DensityMatrix or ThermalSpec, got {type(value)!r}")


def _identity_unitary(register: QubitRegister) -> UnitaryOperator:
    return UnitaryOperator(register, np.eye(register.dim, dtype=np.complex128))


def _distance_direct(rho: StateOrSpec, sigma: StateOrSpec, rho_name: str, sigma_name: str) -> float:
    """S(rho || sigma) picking the best evaluation for what was declared.

    Two declared Gibbs states use the free-energy identity; a Gibbs sigma
    under an arbitrary rho uses the analytic log weights; dense matrices on
    both sides fall back to the spectral evaluator with its support rules.
    A Gibbs state is full rank by construction, so its log weights are exact
    numbers like -beta (E_k - E_0) - ln Z even where the dense matrix would
    underflow; no support bookkeeping is needed on that path.
    """
    if isinstance(rho, ThermalSpec) and isinstance(sigma, ThermalSpec):
        return gibbs_relative_entropy(sigma, rho)
    rho_state = _as_state(rho, rho_name)
    if isinstance(sigma, ThermalSpec):
        overlaps = diagonal_overlaps(rho_state.entries, sigma.spectrum.eigenvectors)
        cross_term = float(np.dot(overlaps, sigma.log_weights))
        return float(
            nonnegative_entropy(_plogp(rho_state.eigenvalues) - cross_term)
        )
    return relative_entropy(rho_state, _as_state(sigma, sigma_name))


def _decide(s_left, s_right, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Margin s_left - s_right and detection flag, elementwise over arrays.

    Detection requires the margin to exceed ``epsilon``; when both sides are
    infinite the margin is NaN and nothing is detected.
    """
    s_left, s_right = np.asarray(s_left, dtype=np.float64), np.asarray(s_right, dtype=np.float64)
    both_infinite = np.isinf(s_left) & np.isinf(s_right)
    with np.errstate(invalid="ignore"):
        margin = np.where(both_infinite, np.nan, s_left - s_right)
        detected = ~both_infinite & (s_right < s_left - epsilon)
    return margin, detected


def _finish_report(
    s_left: float, s_right: float, route: str, epsilon: float, metadata: dict | None
) -> WitnessReport:
    margin, detected = _decide(s_left, s_right, epsilon)
    return WitnessReport(
        s_left=float(s_left),
        s_right=float(s_right),
        margin=float(margin),
        detected=bool(detected),
        route=route,
        metadata=dict(metadata or {}),
    )


def witness_evaluate(
    rho: StateOrSpec,
    sigma_ref: StateOrSpec,
    rho_star: StateOrSpec,
    route: str = "direct",
    *,
    evolution: UnitaryOperator | None = None,
    strictness_epsilon: float = STRICTNESS_EPSILON,
    metadata: dict | None = None,
) -> WitnessReport:
    """Evaluate the witness for one candidate state.

    Each slot takes a plain DensityMatrix or a declared Gibbs state
    (ThermalSpec).  route="direct" evaluates the relative entropies, using
    exact log-space expressions wherever a slot is declared thermal.
    route="via_work" rebuilds them from work statistics instead, which
    requires every slot to be a ThermalSpec; ``evolution`` (default:
    identity) is used for the sigma_ref -> rho leg.
    """
    route = route.replace("-", "_")
    if route == "direct":
        s_left = _distance_direct(rho, sigma_ref, "rho", "sigma_ref")
        s_right = _distance_direct(rho, rho_star, "rho", "rho_star")
    elif route == "via_work":
        for name, value in (("rho", rho), ("sigma_ref", sigma_ref), ("rho_star", rho_star)):
            if not isinstance(value, ThermalSpec):
                raise ConfigError(
                    f"route 'via_work' needs declared Gibbs states; {name} is not a ThermalSpec"
                )
        register = rho.hamiltonian.register
        u_left = evolution if evolution is not None else _identity_unitary(register)
        s_left = relative_entropy_via_work(sigma_ref, rho, u_left)
        s_right = relative_entropy_via_work(rho_star, rho, _identity_unitary(register))
    else:
        raise ValueError(f"route must be 'direct' or 'via_work', got {route!r}")
    return _finish_report(s_left, s_right, route, strictness_epsilon, metadata)


# ---------------------------------------------------------------------------
# Parameter-space sweeps


@dataclass(frozen=True)
class GridAxis:
    """Inclusive arithmetic range min, min+step, ..., max."""

    minimum: float
    maximum: float
    step: float

    def __post_init__(self) -> None:
        for name in ("minimum", "maximum", "step"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"axis {name} must be finite, got {value!r}")
        if self.step <= 0:
            raise ValueError(f"axis step must be positive, got {self.step}")
        if self.maximum < self.minimum - 1e-12:
            raise ValueError(
                f"axis range is empty: maximum {self.maximum} < minimum {self.minimum}"
            )

    def values(self) -> np.ndarray:
        count = int(math.floor((self.maximum - self.minimum) / self.step + 1e-9)) + 1
        return self.minimum + self.step * np.arange(count)


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """Cartesian (B, Jz, T) grid with fixed chain size, coupling and boundary.

    Points are ordered B-major, then Jz, then T.  sweep_detection fills the
    results as columns: the scalar ``s_left`` shared by every point, and
    ``s_right``, ``margin`` and ``detected`` of shape (nB, nJz, nT).
    """

    b_axis: GridAxis
    jz_axis: GridAxis
    t_axis: GridAxis
    n: int
    coupling_j: float = 1.0
    boundary: str = "periodic"
    route: str = "direct"
    s_left: float | None = None
    s_right: np.ndarray | None = None
    margin: np.ndarray | None = None
    detected: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.t_axis.minimum <= 0:
            raise ValueError("temperatures must be strictly positive")
        for name in ("s_right", "margin", "detected"):
            value = getattr(self, name)
            if value is not None and np.shape(value) != self.shape:
                raise ValueError(
                    f"{name} has shape {np.shape(value)}, the grid {self.shape}"
                )

    @property
    def shape(self) -> tuple[int, int, int]:
        return (
            self.b_axis.values().size,
            self.jz_axis.values().size,
            self.t_axis.values().size,
        )

    @property
    def point_count(self) -> int:
        return math.prod(self.shape)


@dataclass(frozen=True)
class SweepReference:
    """Reference pair (and optional Gibbs declarations) for a sweep.

    ``thermal`` marks ``rho``/``sigma_ref`` as the thermal states of the
    declared specs, letting the sweep use the exact log-space distance for
    the reference leg instead of the dense evaluator.
    """

    rho: DensityMatrix
    sigma_ref: DensityMatrix
    rho_spec: ThermalSpec | None = None
    sigma_spec: ThermalSpec | None = None
    evolution: UnitaryOperator | None = None
    thermal: bool = False
    description: str = ""


def sweep_reference(
    n: int,
    coupling_j: float = 1.0,
    beta: float = 100.0,
    boundary: str = "periodic",
    thermal: bool = False,
) -> SweepReference:
    """Standard sweep reference for n = 3 (closest separable state) or n = 7
    (the preparable two-component reference).  With ``thermal=True`` the ideal
    states are replaced by their Gibbs-state identifications at ``beta``,
    which is what the work-statistics route requires."""
    protocol = detection_protocol(n, beta=beta, coupling_j=coupling_j, boundary=boundary)
    rho_spec = protocol.final_spec
    sigma_spec = protocol.initial_spec
    if thermal:
        rho = thermal_state(rho_spec)
        sigma = thermal_state(sigma_spec)
        description = f"thermal identification at beta={beta:g}"
    else:
        rho = build_w_state(n)
        sigma = build_css(n) if n == 3 else build_sigma_prime_7()
        description = "ideal reference states"
    return SweepReference(
        rho=rho,
        sigma_ref=sigma,
        rho_spec=rho_spec,
        sigma_spec=sigma_spec,
        thermal=thermal,
        description=description,
    )


def _shared_sweep_state(grid: SweepGrid, reference: SweepReference, route: str) -> dict:
    plogp = _plogp(reference.rho.eigenvalues)
    if route == "direct":
        if reference.thermal and reference.rho_spec is not None and reference.sigma_spec is not None:
            s_left = gibbs_relative_entropy(reference.sigma_spec, reference.rho_spec)
        else:
            s_left = relative_entropy(reference.rho, reference.sigma_ref)
    else:
        if reference.rho_spec is None or reference.sigma_spec is None:
            raise ConfigError(
                "route 'via_work' needs a sweep reference with thermal declarations"
            )
        register = reference.rho_spec.hamiltonian.register
        u_left = (
            reference.evolution
            if reference.evolution is not None
            else _identity_unitary(register)
        )
        s_left = relative_entropy_via_work(reference.sigma_spec, reference.rho_spec, u_left)
    return {
        "n": grid.n,
        "coupling_j": grid.coupling_j,
        "boundary": grid.boundary,
        "b_values": grid.b_axis.values(),
        "t_values": grid.t_axis.values(),
        "rho": reference.rho.entries,
        "plogp_rho": plogp,
        "s_left": float(s_left),
        "route": route,
        "rho_spec": reference.rho_spec if route == "via_work" else None,
    }


_SWEEP_STATE: dict | None = None


def _sweep_worker_init(state: dict) -> None:
    global _SWEEP_STATE
    _SWEEP_STATE = state


def _sweep_plane(jz_value: float) -> np.ndarray:
    """s_right for one Jz value over the whole (B, T) plane, shape (nB, nT).

    On the direct route the chain's sectors are diagonalized once at B = 0
    (``thermo.sector_overlaps``); each B only shifts their energies by -B m
    and leaves the eigenvectors alone.  The work route needs a dense
    spectrum per B, which ``spectral_decompose`` builds from the same sectors.
    """
    state = _SWEEP_STATE
    assert state is not None
    n, boundary = state["n"], state["boundary"]
    b_values, t_values = state["b_values"], state["t_values"]

    if state["route"] == "via_work":
        out = np.empty((b_values.size, t_values.size))
        rho_spec = state["rho_spec"]
        identity = _identity_unitary(QubitRegister(n))
        for i, b_value in enumerate(b_values):
            h_star = build_xxz(XXZParams(n, state["coupling_j"], jz_value, float(b_value), boundary))
            spectrum = spectral_decompose(h_star)
            for j, temperature in enumerate(t_values):
                star_spec = ThermalSpec.with_spectrum(h_star, 1.0 / temperature, spectrum)
                out[i, j] = relative_entropy_via_work(star_spec, rho_spec, identity)
        return out

    pieces = xxz_pieces(n, boundary)
    h_zero = xxz_matrix(XXZParams(n, state["coupling_j"], jz_value, 0.0, boundary), *pieces)
    # Gibbs states at every grid point are full rank, so tr(rho ln sigma*) is
    # evaluated from exact log weights; no support bookkeeping applies here.
    energies, overlaps, first = sector_overlaps(state["rho"], h_zero)
    magnetization = pieces[2][first]
    # log Gibbs weights of a run of B values at once, shape (b, nT, dim)
    run = max(1, SWEEP_STACK_ENTRIES // (t_values.size * energies.size))
    planes = []
    for b_run in np.split(b_values, range(run, b_values.size, run)):
        shifted_energies = energies - b_run[:, None] * magnetization
        shifted_energies -= shifted_energies.min(axis=1, keepdims=True)
        shifted = -((1.0 / t_values)[:, None] * shifted_energies[:, None, :])
        log_p = shifted - logsumexp(shifted, axis=2)[..., None]
        planes.append(state["plogp_rho"] - log_p @ overlaps)
    return nonnegative_entropy(np.concatenate(planes))


def sweep_detection(
    grid: SweepGrid,
    reference: SweepReference,
    workers: int = 1,
    strictness_epsilon: float = STRICTNESS_EPSILON,
) -> SweepGrid:
    """Evaluate the witness on every grid point against thermal chain states.

    rho_star at each point is the Gibbs state of the chain at (B, Jz, 1/T)
    with the grid's fixed coupling and boundary.  The sweep is a pure map
    over Jz values in fixed order, one sector diagonalization each, so output
    is deterministic for any worker count.  Returns a copy of the grid with
    the result columns attached.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    route = grid.route.replace("-", "_")
    if route not in ("direct", "via_work"):
        raise ValueError(f"route must be 'direct' or 'via-work', got {grid.route!r}")
    shared = _shared_sweep_state(grid, reference, route)
    tasks = grid.jz_axis.values().tolist()
    planes = _map_tasks(_sweep_plane, tasks, workers, _sweep_worker_init, (shared,))

    s_right = np.stack(planes, axis=1)
    margin, detected = _decide(shared["s_left"], s_right, strictness_epsilon)
    for column in (s_right, margin, detected):
        column.setflags(write=False)
    return dataclasses.replace(
        grid,
        route=route,
        s_left=shared["s_left"],
        s_right=s_right,
        margin=margin,
        detected=detected,
    )


def state_checksum(state: DensityMatrix) -> str:
    """SHA-256 of the raw row-major matrix bytes (stable across runs)."""
    return hashlib.sha256(np.ascontiguousarray(state.entries).tobytes()).hexdigest()


def write_sweep_csv(grid: SweepGrid, path) -> None:
    """Plot-ready CSV: B, Jz, T, s_left, s_right, margin, detected.

    The axis values and s_left are formatted once; only s_right and the
    margin are formatted per point, and rows go out one B value at a time.
    """
    if grid.s_right is None:
        raise ValueError("grid has no results; run sweep_detection first")
    jz_text = [f"{jz:.17g}," for jz in grid.jz_axis.values().tolist()]
    t_text = [f"{t:.17g},{grid.s_left:.17g}," for t in grid.t_axis.values().tolist()]
    flag_text = (",false\n", ",true\n")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("B,Jz,T,s_left,s_right,margin,detected\n")
        for b, s_right, margin, detected in zip(
            grid.b_axis.values().tolist(),
            grid.s_right.tolist(),
            grid.margin.tolist(),
            grid.detected.tolist(),
        ):
            b_text = f"{b:.17g},"
            handle.write(
                "".join(
                    f"{b_text}{jz}{t}{s:.17g},{m:.17g}{flag_text[d]}"
                    for jz, s_row, m_row, d_row in zip(jz_text, s_right, margin, detected)
                    for t, s, m, d in zip(t_text, s_row, m_row, d_row)
                )
            )


def sweep_metadata(grid: SweepGrid, reference: SweepReference) -> dict:
    """Grid metadata plus reference-state checksums, for the sweep header."""
    detected = 0 if grid.detected is None else int(grid.detected.sum())
    return {
        "axes": {
            "B": {"min": grid.b_axis.minimum, "max": grid.b_axis.maximum, "step": grid.b_axis.step},
            "Jz": {"min": grid.jz_axis.minimum, "max": grid.jz_axis.maximum, "step": grid.jz_axis.step},
            "T": {"min": grid.t_axis.minimum, "max": grid.t_axis.maximum, "step": grid.t_axis.step},
        },
        "n": grid.n,
        "J": grid.coupling_j,
        "boundary": grid.boundary,
        "route": grid.route,
        "points": grid.point_count,
        "detected_points": detected,
        "reference": {
            "description": reference.description,
            "rho_sha256": state_checksum(reference.rho),
            "sigma_ref_sha256": state_checksum(reference.sigma_ref),
        },
    }
