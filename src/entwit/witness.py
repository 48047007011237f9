"""Relative-entropy entanglement witness and parameter-space detection sweeps.

The test compares two distances from a reference entangled state ``rho``:
``s_left = S(rho||sigma_ref)``, its relative entropy of entanglement (only that
distance counts; ``sigma_ref`` need not be separable), and ``s_right =
S(rho||rho_star)`` against the state under test.  Whenever ``s_right < s_left``
(strictly, beyond ``STRICTNESS_EPSILON``), ``rho_star`` must be entangled: no
separable state sits closer to ``rho`` than the closest separable one.

Both distances can be computed directly from spectra (route ``"direct"``) or
rebuilt from two-point-measurement work statistics (route ``"via_work"``)
when every state involved is a declared Gibbs state; the two routes agree to
numerical precision and are kept separate on purpose.  ``_distances`` makes
that choice for ``witness_evaluate``, ``open_system.open_witness`` and a
sweep's reference leg alike.  A direct distance uses one of three
evaluators: the Gibbs identity when both states are declared Gibbs states,
the analytic log weights of a declared Gibbs sigma under a state rho, and
the spectral evaluator otherwise.  The last two share
``thermo.sector_overlaps`` on sigma's spectrum (a Gibbs sigma's cached
``ThermalSpec.spectrum``), so no dense matrix is read; the analytic one and
the direct sweep share one expression, ``_gibbs_cross_entropy``.

The reference states (W_n, the Dicke mixtures) are laid out per popcount
sector (``operators.sector_partition``), so none of them becomes a
register-sized matrix.  ``SweepReference`` takes the witness's two
reference slots, each a state or a declared Gibbs state.
``_as_state`` is the one place here where a spec becomes a DensityMatrix,
for the spectral evaluator and the direct sweep's rho; ``state_checksum``
hashes a spec's cached Gibbs blocks, so a direct sweep builds rho's once.
A sweep on either route combines the cached ``spin_models.xxz_pieces`` once
per Jz value at B = 0, takes one ``spectral_decompose`` of that H*(0), reads
each level's magnetization off the S_z blocks, and takes the log Gibbs
weights of the (B, T) plane from one ``thermo.log_gibbs_weights`` call (a
few for large registers and grids).
The direct route reads them against the reference state's overlaps on that
spectrum; the work route against one transition matrix per Jz, that of the
undriven protocol (``transition_matrix`` with no unitary).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .operators import (
    MAX_QUBITS,
    DensityMatrix,
    HermitianOperator,
    QubitRegister,
    UnitaryOperator,
    combine,
    sector_partition,
    spectral_decompose,
)
from .spin_models import DrivingSchedule, XXZParams, build_xxz, is_number, xxz_pieces
from .thermo import (
    ThermalSpec,
    _check_beta,
    _plogp,
    gibbs_relative_entropy,
    log_gibbs_weights,
    nonnegative_entropy,
    relative_entropy,
    sector_overlaps,
    thermal_state,
)
from .work_stats import _log_final_sums, _log_work_sum, transition_matrix
from .work_stats import relative_entropy_via_work

STRICTNESS_EPSILON = 1e-9
# A sweep stacks the log Gibbs weights of every T and of as many B
# values as fit in this many entries (whole planes on every acceptance grid).
SWEEP_STACK_ENTRIES = 1 << 20

# Final fields (times J) that make W_n the chain's ground state; any other n
# takes the window's midpoint cos(pi/n), which is 0.5000000000000001 at n = 3.
FINAL_FIELD = {3: 0.5, 7: 0.92}


def _sector_constants(register: QubitRegister, entries: dict[int, float]) -> DensityMatrix:
    """The state whose block on the popcount sector with k ones has every
    entry ``entries[k]`` (0 for an absent k): a mixture of Dicke states."""
    stacks = []
    for indices, ones in sector_partition(register.n):
        blocks = np.empty(indices.shape + indices.shape[-1:])
        blocks[...] = np.array([entries.get(k, 0.0) for k in ones.tolist()])[:, None, None]
        stacks.append((indices, blocks))
    return DensityMatrix(register, stacks)


def build_w_state(n: int) -> DensityMatrix:
    """Projector onto the single-excitation Dicke state on n qubits.  Every
    entry of its block is a^2, a = (1/sqrt(n)) (1/|v|) with |v| the norm of
    the amplitude vector v, one bit off (1/sqrt(n))^2 at n = 2, 5, 7, 8, 10."""
    register = QubitRegister(n)
    if n < 2:
        raise ValueError("the single-excitation state needs at least two qubits")
    # np.linalg.norm over the whole complex vector: its summation order sets a's last bit
    vector = np.zeros(register.dim, dtype=np.complex128)
    vector[1 << np.arange(n)] = 1.0 / math.sqrt(n)
    amplitude = 1.0 / math.sqrt(n) * (1.0 / np.linalg.norm(vector))
    return _sector_constants(register, {1: amplitude * amplitude})


def _dicke_mixture(register: QubitRegister, weights: dict[int, float]) -> DensityMatrix:
    """sum_k weights[k] |D_k><D_k| over the Dicke states D_k with k ones,
    whose amplitudes are a_k = 1 / sqrt(C(n, k))."""
    amplitudes = {k: 1.0 / math.sqrt(math.comb(register.n, k)) for k in weights}
    return _sector_constants(register, {k: w * (amplitudes[k] * amplitudes[k]) for k, w in weights.items()})


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
    total = float(n**n)
    return _dicke_mixture(
        register, {n - k: math.comb(n, k) * float((n - 1) ** k) / total for k in range(n + 1)}
    )


def _check_reference_size(n) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or not 3 <= n <= MAX_QUBITS:
        raise ValueError(f"references take an integer n from 3 to {MAX_QUBITS}, got n={n!r}")


def reference_state(n: int) -> DensityMatrix:
    """The state sigma_ref that the witness measures W_n against, 3 <= n <= 12:
    ``build_css(3)`` at n = 3, else sigma'_n = p_0 |0...0><0...0| + p_W |W_n><W_n|
    with p_W = n (n-1)^(n-1) / n^n, a Gibbs state of ``reference_params``.

    sigma'_n is not separable (at n = 7 its partial transpose on qubit 1 has
    the eigenvalue -0.0304), and the witness does not need it to be: it uses
    only S(W_n || sigma'_n) = -ln p_W = (n-1) ln(n/(n-1)), the relative
    entropy of entanglement of W_n."""
    _check_reference_size(n)
    if n == 3:
        return build_css(3)
    total = float(n**n)
    weights = {0: (n**n - n * (n - 1) ** (n - 1)) / total, 1: n * (n - 1) ** (n - 1) / total}
    return _dicke_mixture(QubitRegister(n), weights)


# The final Gibbs state holds about exp(-beta gap) of its weight outside W_n;
# below this beta gap that leak passes 1e-6.
WARM_LIMIT = math.log(1e6)


def _warn_if_warm(n: int, beta: float, coupling_j: float) -> None:
    """Warn when beta times the final chain's gap 2J(1 - cos(pi/n)) to the
    two-excitation band is below WARM_LIMIT."""
    beta_gap = beta * 2.0 * coupling_j * (1.0 - math.cos(math.pi / n))
    if beta_gap < WARM_LIMIT:
        warnings.warn(
            "thermal identification of the reference pair is only accurate "
            f"when beta times the final gap is large; it is {beta_gap:.3g} < ln(1e6) "
            f"at n={n}, beta={beta:g}, J={coupling_j:g}",
            stacklevel=3,
        )


def reference_params(n: int, beta: float, coupling_j: float = 1.0) -> XXZParams:
    """Parameters of the periodic ring whose Gibbs state at ``beta`` is
    ``reference_state(n)`` to many digits once beta is large.

    At n = 3 a Jz term shapes css_3.  For n >= 4, Jz = 0 and
    B = J + ln(p_0 / p_W) / (2 beta), which sets the weights of |0...0> and
    W_n; every other level sits at least 4 J (1 - cos(pi/n)) above W_n.  No
    field makes W_n the ground state for J <= 0, which raises ValueError,
    as do a beta that is not finite and positive (with ``ThermalSpec``'s
    message) and a beta so small that Jz or B overflows.  W_n is an eigenstate
    of the periodic ring only (the open chain's final ground state overlaps
    it by 0.947, 0.929 and 0.903 at n = 4, 5 and 7).

    The real limit is the protocol's final side: at beta = 100 and J = 1 its
    Gibbs state holds weight 1.1e-7 outside W_n at n = 7, 1.2e-5 at n = 9,
    1.1e-4 at n = 10 and 2.2e-3 at n = 12, and the thermal s_left reads low
    by 2.0e-6, 1.2e-5, 1.1e-4 and 2.2e-3; at n = 7, beta = 100 and J = 0.5
    it reads low by 3.1e-3.  So it warns when beta 2J(1 - cos(pi/n)) is
    below ln(1e6), about 13.8: at beta = 100 and J = 1, n >= 9 warn and
    n = 7 and 8 do not.
    """
    _check_reference_size(n)
    _check_beta(beta)
    _check_reference_coupling(coupling_j)
    jz, field = _reference_fields(n, beta, coupling_j)
    _warn_if_warm(n, beta, coupling_j)
    return XXZParams(n=n, J=coupling_j, Jz=jz, B=field)


def _check_reference_coupling(coupling_j: float) -> None:
    if not coupling_j > 0:
        raise ValueError(f"the reference protocol needs J > 0, got J={coupling_j!r}")


def _check_reference_boundary(boundary: str) -> None:
    if boundary != "periodic":
        raise ValueError(
            f"the reference protocol needs the periodic ring, got boundary={boundary!r}: "
            "W_n is not an eigenstate of the open chain"
        )


def _reference_fields(n: int, beta: float, coupling_j: float) -> tuple[float, float]:
    """(Jz, B) of ``reference_params``, checked by nothing but their range:
    a ValueError when a beta > 0 is so small that either overflows."""
    if n == 3:
        jz = (2.0 * coupling_j - math.log(3.0) / beta) / 4.0
        field = math.log(2.0) / (2.0 * beta)
    else:
        jz = 0.0
        ratio = (n ** (n - 1) - (n - 1) ** (n - 1)) / (n - 1) ** (n - 1)
        field = math.log(ratio) / (2.0 * beta) + coupling_j
    if not (math.isfinite(jz) and math.isfinite(field)):
        raise ValueError(f"the reference parameters overflow at beta={beta!r}")
    return jz, field


@dataclass(frozen=True)
class DetectionProtocol:
    """Driving protocol whose endpoints' low-temperature Gibbs states are
    the reference pair, ``reference_state(n)`` and then W_n."""

    schedule: DrivingSchedule
    beta: float

    # Built on first read and kept, so every reader shares one spectrum.
    @functools.cached_property
    def initial_spec(self) -> ThermalSpec:
        return ThermalSpec(build_xxz(self.schedule.initial), self.beta)

    @functools.cached_property
    def final_spec(self) -> ThermalSpec:
        return ThermalSpec(build_xxz(self.schedule.final), self.beta)


def detection_protocol(n: int, beta: float = 100.0, coupling_j: float = 1.0) -> DetectionProtocol:
    """The standard witness protocol on the periodic ring of n qubits,
    3 <= n <= 12, over the schedule's default t_f = 1 in 1,000 steps: from
    ``reference_params`` to J, Jz = 0 and a final field in the window
    J (2 cos(pi/n) - 1) < B < J where W_n is the ground state."""
    initial = reference_params(n, beta, coupling_j)
    final_field = coupling_j * FINAL_FIELD.get(n, math.cos(math.pi / n))
    final = XXZParams(n=n, J=coupling_j, Jz=0.0, B=final_field)
    schedule = DrivingSchedule(initial=initial, final=final)
    return DetectionProtocol(schedule=schedule, beta=beta)


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of one witness evaluation.

    ``margin = s_left - s_right``; detection requires the margin to exceed
    ``STRICTNESS_EPSILON``.  Infinities are meaningful (support mismatches); when
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


def _register(value: StateOrSpec, what: str) -> QubitRegister:
    """The register of a state, or of a spec's Hamiltonian."""
    if isinstance(value, ThermalSpec):
        return value.hamiltonian.register
    if isinstance(value, DensityMatrix):
        return value.register
    raise TypeError(f"{what} must be a DensityMatrix or ThermalSpec, got {type(value)!r}")


def _gibbs_cross_entropy(plogp_rho, log_weights: np.ndarray, overlaps: np.ndarray):
    """S(rho || sigma) = tr rho ln rho - sum_i ln w_i <v_i|rho|v_i> for a Gibbs
    sigma with log weights ln w_i on its eigenvectors v_i, clamped by
    ``nonnegative_entropy``; leading axes of ``log_weights`` stack sigmas."""
    return nonnegative_entropy(plogp_rho - log_weights @ overlaps)


def _distance_direct(rho: StateOrSpec, sigma: StateOrSpec, rho_name: str, sigma_name: str) -> float:
    """S(rho || sigma) picking the best evaluation for what was declared.

    Two declared Gibbs states use the free-energy identity; a Gibbs sigma
    under an arbitrary rho uses the analytic log weights; states on both
    sides fall back to the spectral evaluator with its support rules.
    A Gibbs state is full rank by construction, so its log weights are exact
    numbers like -beta (E_k - E_0) - ln Z even where the dense matrix would
    underflow; no support bookkeeping is needed on that path.
    """
    if isinstance(rho, ThermalSpec) and isinstance(sigma, ThermalSpec):
        return gibbs_relative_entropy(sigma, rho)
    rho_state = _as_state(rho, rho_name)
    if isinstance(sigma, ThermalSpec):
        if rho_state.register != sigma.hamiltonian.register:
            raise ValueError("states must live on the same register")
        log_weights = log_gibbs_weights(sigma.spectrum.eigenvalues, sigma.beta)
        overlaps = sector_overlaps(rho_state.stacks, sigma.spectrum)
        return float(_gibbs_cross_entropy(_plogp(rho_state.eigenvalues), log_weights, overlaps))
    return relative_entropy(rho_state, _as_state(sigma, sigma_name))


def _check_route(route: str) -> None:
    if route not in ("direct", "via_work"):
        raise ValueError(f"route must be 'direct' or 'via_work', got {route!r}")


def _distances(route: str, rho: StateOrSpec, legs) -> list[float]:
    """S(rho || sigma) for each ``(name, sigma, evolution)`` of ``legs`` on
    ``route``: the one choice of evaluator for ``witness_evaluate``, a
    sweep's reference leg and ``open_system.open_witness``.

    route="direct" picks ``_distance_direct``'s evaluator for each pair.
    route="via_work" needs rho and every sigma to be a ThermalSpec and
    rebuilds each distance from the work statistics of the sigma -> rho
    protocol under the leg's evolution, undriven when it is None: one
    transition matrix per leg.
    """
    _check_route(route)
    if route == "direct":
        return [_distance_direct(rho, sigma, "rho", name) for name, sigma, _ in legs]
    for name, value in (("rho", rho), *((name, sigma) for name, sigma, _ in legs)):
        if not isinstance(value, ThermalSpec):
            raise ConfigError(f"route 'via_work' needs declared Gibbs states; {name} is not a ThermalSpec")
    return [
        relative_entropy_via_work(sigma, rho, transition_matrix(sigma.spectrum, rho.spectrum, u))
        for _, sigma, u in legs
    ]


def _decide(s_left, s_right) -> tuple[np.ndarray, np.ndarray]:
    """Margin s_left - s_right and detection flag, elementwise over arrays.

    Detection requires the margin to exceed ``STRICTNESS_EPSILON``; when both
    sides are infinite the margin is NaN and nothing is detected.
    """
    s_left, s_right = np.asarray(s_left, dtype=np.float64), np.asarray(s_right, dtype=np.float64)
    both_infinite = np.isinf(s_left) & np.isinf(s_right)
    with np.errstate(invalid="ignore"):
        margin = np.where(both_infinite, np.nan, s_left - s_right)
        detected = ~both_infinite & (s_right < s_left - STRICTNESS_EPSILON)
    return margin, detected


def _finish_report(s_left: float, s_right: float, route: str, metadata: dict | None) -> WitnessReport:
    margin, detected = _decide(s_left, s_right)
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
    metadata: dict | None = None,
) -> WitnessReport:
    """Evaluate the witness for one candidate state.

    Each slot takes a plain DensityMatrix or a declared Gibbs state
    (ThermalSpec).  route="direct" evaluates the relative entropies, using
    exact log-space expressions wherever a slot is declared thermal.
    route="via_work" rebuilds them from work statistics instead, which
    requires every slot to be a ThermalSpec; ``evolution`` drives the
    sigma_ref -> rho leg (default None: undriven, a sudden quench).
    """
    legs = (("sigma_ref", sigma_ref, evolution), ("rho_star", rho_star, None))
    s_left, s_right = _distances(route, rho, legs)
    return _finish_report(s_left, s_right, route, metadata)


# ---------------------------------------------------------------------------
# Parameter-space sweeps


# Peak bytes per point of ``entwit sweep`` (result planes and columns, writer
# rows): the tracemalloc peak of cli.main read 33.1-33.5 B per point at 79,300
# and 793,000 points of an n = 3 grid, plus a quarter.
SWEEP_POINT_BYTES = 42


def memory_budget() -> int:
    """Bytes of physical memory, the most that one request may need."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@dataclass(frozen=True)
class GridAxis:
    """Inclusive arithmetic range min, min+step, ..., max."""

    minimum: float
    maximum: float
    step: float

    def __post_init__(self) -> None:
        for name in ("minimum", "maximum", "step"):
            value = getattr(self, name)
            if not is_number(value):
                raise ValueError(f"axis {name} must be finite, got {value!r}")
        if self.step <= 0:
            raise ValueError(f"axis step must be positive, got {self.step}")
        if self.maximum < self.minimum - 1e-12:
            raise ValueError(
                f"axis range is empty: maximum {self.maximum} < minimum {self.minimum}"
            )
        if not math.isfinite((self.maximum - self.minimum) / self.step):
            raise ValueError(f"axis step {self.step} is too small for its range")
        if self.count == 0:
            raise ValueError(f"axis holds no value: maximum {self.maximum} < minimum {self.minimum}")

    @property
    def count(self) -> int:
        """Number of values, computed without building them."""
        return max(0, int(math.floor((self.maximum - self.minimum) / self.step + 1e-9)) + 1)

    def values(self) -> np.ndarray:
        return self.minimum + self.step * np.arange(self.count)


def _check_temperatures(t_axis: GridAxis) -> None:
    if t_axis.minimum <= 0:
        raise ValueError("temperatures must be strictly positive")
    if not math.isfinite(1.0 / t_axis.minimum):
        raise ValueError(f"temperatures need a finite 1/T, got T={t_axis.minimum!r}")


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
        XXZParams(self.n, self.coupling_j, 0.0, 0.0, self.boundary)  # raises on a bad chain
        _check_temperatures(self.t_axis)
        needed, budget = SWEEP_POINT_BYTES * self.point_count, memory_budget()
        if needed > budget:
            raise ValueError(
                f"the grid has {self.point_count} points, whose results need about {needed} bytes, "
                f"more than the memory budget of {budget} bytes"
            )
        for name in ("s_right", "margin", "detected"):
            value = getattr(self, name)
            if value is not None and np.shape(value) != self.shape:
                raise ValueError(
                    f"{name} has shape {np.shape(value)}, the grid {self.shape}"
                )

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.b_axis.count, self.jz_axis.count, self.t_axis.count)

    @property
    def point_count(self) -> int:
        return math.prod(self.shape)


@dataclass(frozen=True)
class SweepReference:
    """The reference pair of a sweep: each slot a DensityMatrix or a declared
    Gibbs state (ThermalSpec), as in ``witness_evaluate``.

    ``s_left`` takes ``_distances``' evaluator for the pair: the Gibbs
    identity, or the work route, for two specs.  A spec becomes a
    DensityMatrix only where its blocks and eigenvalues are read: rho on the
    direct route.
    """

    rho: StateOrSpec
    sigma_ref: StateOrSpec
    description: str


def sweep_reference(
    n: int,
    coupling_j: float = 1.0,
    beta: float = 100.0,
    boundary: str = "periodic",
    thermal: bool = False,
) -> SweepReference:
    """Standard sweep reference on n qubits, 3 <= n <= 12: W_n and
    ``reference_state(n)``, which need no chain (so any boundary), or with
    ``thermal=True`` ``detection_protocol``'s endpoint specs at ``beta``,
    which is what the work-statistics route requires; those exist on the
    periodic ring only, so another ``boundary`` raises ValueError."""
    if not thermal:
        sigma = reference_state(n)  # checks n before the W state is built
        return SweepReference(build_w_state(n), sigma, "ideal reference states")
    _check_reference_boundary(boundary)
    protocol = detection_protocol(n, beta=beta, coupling_j=coupling_j)
    description = f"thermal identification at beta={beta:g}"
    return SweepReference(protocol.final_spec, protocol.initial_spec, description)


def _sweep_plane(grid: SweepGrid, rho: StateOrSpec, jz_value: float) -> np.ndarray:
    """s_right for one Jz value over the whole (B, T) plane, shape (nB, nT).

    Both routes read one spectrum of the chain at B = 0 and each level's m:
    each B only shifts the energies by -B m.  The direct route reads each run
    of B values' log Gibbs weights against rho's overlaps, with rho a
    DensityMatrix; the work route, with rho a ThermalSpec, through the one
    undriven q between H*(0) and rho, the q of every B.
    """
    t_values, b_values, via_work = grid.t_axis.values(), grid.b_axis.values(), grid.route == "via_work"
    stacks = xxz_pieces(grid.n, grid.boundary)
    # -B = -0.0 adds the signed zeros that J H_xy + Jz H_zz - 0.0 S_z holds
    h_zero = combine(stacks, (grid.coupling_j, jz_value, -0.0))
    spectrum = spectral_decompose(HermitianOperator(QubitRegister(grid.n), h_zero))
    # S_z is m I on each sector block, so its diagonal is each eigenvector's m
    energies, magnetization = spectrum.eigenvalues, np.empty(spectrum.dim)
    for (_, levels, _), (_, pieces) in zip(spectrum.stacks, stacks):
        magnetization[levels] = np.diagonal(pieces[2], 0, 1, 2)
    if via_work:
        tm = transition_matrix(spectrum, rho.spectrum, None)
        final_sums = _log_final_sums(tm, rho.beta)
        weights, values = rho.weights, np.column_stack([energies, magnetization])
        final_energy = rho.beta * float(np.dot(weights, rho.spectrum.eigenvalues))
        # sum_{m,n} w_m q[m, n] x_n for x = E(0) and m: <H*(0)> and <S_z> over rho
        mean_h, mean_sz = sum(((weights[r][:, None, :] @ q) @ values[c]).sum((0, 1)) for r, c, q in tm.stacks)
    else:
        # Gibbs states at every grid point are full rank, so tr(rho ln sigma*)
        # is evaluated from exact log weights; no support bookkeeping applies
        overlaps = sector_overlaps(rho.stacks, spectrum)
        plogp_rho = _plogp(rho.eigenvalues)
    betas = (1.0 / t_values)[:, None]
    # log Gibbs weights of a run of B values at once, shape (b, nT, dim)
    run = max(1, SWEEP_STACK_ENTRIES // (t_values.size * energies.size))
    planes = []
    for b_run in np.split(b_values, range(run, b_values.size, run)):
        field_energies = energies - b_run[:, None] * magnetization
        log_p = log_gibbs_weights(field_energies[:, None, :], betas)
        if via_work:
            beta_energy = final_energy - betas[:, 0] * (mean_h - b_run[:, None] * mean_sz)
            planes.append(-beta_energy - _log_work_sum(field_energies[:, None, :], betas, final_sums, log_p))
        else:
            planes.append(_gibbs_cross_entropy(plogp_rho, log_p, overlaps))
    return np.concatenate(planes)


def sweep_detection(grid: SweepGrid, reference: SweepReference) -> SweepGrid:
    """Evaluate the witness on every grid point against thermal chain states.

    rho_star at each point is the Gibbs state of the chain at (B, Jz, 1/T)
    with the grid's fixed coupling and boundary.  The sweep maps the Jz
    values in order, one sector diagonalization each.  A reference state or
    spec on another register than the grid's n qubits raises ValueError
    before any work.  Returns a copy of the grid with the result columns
    attached.
    """
    for name in ("rho", "sigma_ref"):
        register = _register(getattr(reference, name), name)
        if register.n != grid.n:
            raise ValueError(f"reference {name} is on {register.n} qubits, the grid on {grid.n}")
    (s_left,) = _distances(grid.route, reference.rho, (("sigma_ref", reference.sigma_ref, None),))
    # the direct plane reads rho's blocks and eigenvalues, the work plane its spec
    rho = reference.rho if grid.route == "via_work" else _as_state(reference.rho, "rho")
    planes = [_sweep_plane(grid, rho, jz_value) for jz_value in grid.jz_axis.values().tolist()]

    s_right = np.stack(planes, axis=1)
    margin, detected = _decide(s_left, s_right)
    for column in (s_right, margin, detected):
        column.setflags(write=False)
    return dataclasses.replace(
        grid,
        s_left=float(s_left),
        s_right=s_right,
        margin=margin,
        detected=detected,
    )


# state_checksum assembles at most this many entries of the matrix at a time
# (4 MiB of complex128, 64 rows at n = 12).
CHECKSUM_PANEL_ENTRIES = 1 << 18


def state_checksum(state: StateOrSpec) -> str:
    """SHA-256 of the assembled complex128 matrix's row-major bytes (stable
    across runs).  The rows go to the hash in panels of at most
    CHECKSUM_PANEL_ENTRIES entries, each assembled from the stacks, so the
    register-sized matrix is never made.  A ThermalSpec hashes its
    ``gibbs_stacks``, the stacks of its ``thermal_state``, to the same digest."""
    digest = hashlib.sha256()
    if isinstance(state, ThermalSpec):
        dim, stacks = state.hamiltonian.register.dim, state.gibbs_stacks
    else:
        dim, stacks = state.dim, state.stacks
    rows = min(dim, max(1, CHECKSUM_PANEL_ENTRIES // dim))
    panel = np.empty((rows, dim), dtype=np.complex128)
    for start in range(0, dim, rows):
        part = panel[: dim - start]  # the last panel may be short
        part.fill(0)
        for indices, blocks in stacks:
            block, row = np.nonzero((indices >= start) & (indices < start + len(part)))
            part[(indices[block, row] - start)[:, None], indices[block]] = blocks[block, row]
        digest.update(part)
    return digest.hexdigest()


def write_sweep_csv(grid: SweepGrid, path) -> None:
    """Plot-ready CSV: B, Jz, T, s_left, s_right, margin, detected.

    Each (Jz, T) row's text but its s_right, margin and flag is a ``%``
    template built once; each B plane fills its joined rows with one ``%``
    over a flat (s_right, margin, flag) list, so no Python code runs per
    point and memory is O(one plane).  ``"%.17g" % x`` formats as
    ``f"{x:.17g}"`` does, so the cost is bounded by the ``.17g`` conversions.
    """
    if grid.s_right is None:
        raise ValueError("grid has no results; run sweep_detection first")
    rows = [
        f"{jz:.17g},{t:.17g},{grid.s_left:.17g},%.17g,%.17g%s"
        for jz in grid.jz_axis.values().tolist()
        for t in grid.t_axis.values().tolist()
    ]
    flag_text = np.array([",false\n", ",true\n"], dtype=object)
    fields = [None] * (3 * len(rows))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("B,Jz,T,s_left,s_right,margin,detected\n")
        for b, s_right, margin, detected in zip(
            grid.b_axis.values().tolist(), grid.s_right, grid.margin, grid.detected
        ):
            fields[0::3] = s_right.ravel().tolist()
            fields[1::3] = margin.ravel().tolist()
            fields[2::3] = flag_text[detected.ravel().astype(np.intp)].tolist()
            b_text = f"{b:.17g},"
            handle.write((b_text + b_text.join(rows)) % tuple(fields))


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
