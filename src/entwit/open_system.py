"""Witnessing inside an open system: a chain segment coupled to the rest.

When the register splits into a subsystem and a bath, the subsystem's reduced
Gibbs state is itself a Gibbs state of an effective Hamiltonian (the
Hamiltonian of mean force),

    exp(-beta H_eff) = tr_B exp(-beta H_full) / Z_B,

which reduces to the bare subsystem Hamiltonian when the coupling vanishes.
Everything the closed-system witness does carries over with H_eff in place of
the endpoint Hamiltonians; the work-statistics route measures the full system
and only references the subsystem through the effective energies.

Driving evolves the full register unitarily; the bath is never rethermalized
mid-protocol.  Endpoint states are the equilibrium ones at the shared beta,
which is all the fluctuation identities require.  The driven Hamiltonian is
affine in the subsystem parameters, H(t) = (coupling + bath) + J H_xy +
Jz H_zz - B S_z, with ``spin_models.chain_pieces`` laid on the subsystem's
sites, so ``open_trotter_evolution`` builds the dense pieces once and hands
them to the closed chain's ordered product, which cuts them with
``operators.sector_stacks``.  A split XXZ chain conserves the total S^z, and
the product then runs per S^z sector of the full register; a coupling or
bath that changes S^z puts the whole register in one block.  The endpoint
spectra come from ``spectral_decompose``, per S^z sector in the same way;
the effective Hamiltonian and the partial trace stay dense.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalCheckError
from .operators import (
    DensityMatrix,
    HermitianOperator,
    QubitRegister,
    SpectralDecomposition,
    UnitaryOperator,
    _partial_trace_matrix,
    checked_eigh,
    embed_operator,
    spectral_decompose,
)
from .spin_models import (
    DrivingSchedule,
    XXZParams,
    _bonds,
    build_xxz,
    chain_pieces,
    params_at,
    xxz_matrix,
)
from .thermo import ThermalSpec, logsumexp, thermal_state
from .witness import (
    STRICTNESS_EPSILON,
    StateOrSpec,
    WitnessReport,
    _finish_report,
    _identity_unitary,
    witness_evaluate,
)
from .work_stats import (
    log_jarzynski_average,
    ordered_product,
    relative_entropy_via_work,
    schedule_coefficients,
)

# Smallest eigenvalue of the bath-traced weight operator that still leaves
# log() with usable precision; anything below means the temperature is too
# low for the effective Hamiltonian to be representable in doubles.
WEIGHT_RANK_FLOOR = 1e-280

OPERATOR_MATCH_ATOL = 1e-12


@dataclass(frozen=True)
class CompositeSystem:
    """A register split into subsystem and bath, with its Hamiltonian pieces.

    ``subsystem_hamiltonian`` (static) and ``subsystem_schedule`` (driven) are
    mutually exclusive; both describe an operator on the subsystem register
    alone.  ``coupling`` acts on the full register and must touch the bath to
    deserve the name; ``bath_hamiltonian`` acts on the bath register, with
    ``None`` meaning the zero operator.  Site lists are 1-based and are
    normalized to ascending order.
    """

    register: QubitRegister
    subsystem_sites: tuple[int, ...]
    bath_sites: tuple[int, ...]
    beta: float
    subsystem_hamiltonian: HermitianOperator | None = None
    subsystem_schedule: DrivingSchedule | None = None
    coupling: HermitianOperator | None = None
    bath_hamiltonian: HermitianOperator | None = None

    def __post_init__(self) -> None:
        sub = tuple(sorted(int(s) for s in self.subsystem_sites))
        bath = tuple(sorted(int(s) for s in self.bath_sites))
        object.__setattr__(self, "subsystem_sites", sub)
        object.__setattr__(self, "bath_sites", bath)
        if not sub:
            raise ValueError("the subsystem needs at least one site")
        overlap = set(sub) & set(bath)
        if overlap:
            raise ValueError(f"sites {sorted(overlap)} appear in both subsystem and bath")
        expected = set(range(1, self.register.n + 1))
        if set(sub) | set(bath) != expected:
            raise ValueError(
                f"subsystem {sub} and bath {bath} must cover register sites "
                f"1..{self.register.n} exactly"
            )
        if not isinstance(self.beta, (int, float)) or not math.isfinite(self.beta) or self.beta <= 0:
            raise ValueError(f"beta must be a finite positive number, got {self.beta!r}")
        if (self.subsystem_hamiltonian is None) == (self.subsystem_schedule is None):
            raise ValueError(
                "provide exactly one of subsystem_hamiltonian or subsystem_schedule"
            )
        if self.subsystem_hamiltonian is not None:
            if self.subsystem_hamiltonian.register.n != len(sub):
                raise ValueError(
                    f"subsystem Hamiltonian acts on {self.subsystem_hamiltonian.register.n} "
                    f"qubits but the subsystem has {len(sub)} sites"
                )
        else:
            assert self.subsystem_schedule is not None
            if self.subsystem_schedule.n != len(sub):
                raise ValueError(
                    f"subsystem schedule is for {self.subsystem_schedule.n} qubits "
                    f"but the subsystem has {len(sub)} sites"
                )
        if self.bath_hamiltonian is not None:
            if not bath:
                raise ValueError("bath_hamiltonian given but the bath is empty")
            if self.bath_hamiltonian.register.n != len(bath):
                raise ValueError(
                    f"bath Hamiltonian acts on {self.bath_hamiltonian.register.n} "
                    f"qubits but the bath has {len(bath)} sites"
                )
        if self.coupling is not None:
            if not bath:
                raise ValueError("coupling given but there is no bath to couple to")
            if self.coupling.register != self.register:
                raise ValueError("coupling must act on the full register")

    @property
    def subsystem_register(self) -> QubitRegister:
        return QubitRegister(len(self.subsystem_sites))

    @property
    def bath_register(self) -> QubitRegister:
        return QubitRegister(len(self.bath_sites))

    @property
    def is_driven(self) -> bool:
        return self.subsystem_schedule is not None

    @property
    def final_time(self) -> float:
        return self.subsystem_schedule.t_f if self.subsystem_schedule is not None else 0.0


def full_hamiltonian(composite: CompositeSystem, t: float = 0.0) -> HermitianOperator:
    """Subsystem + coupling + bath, embedded on the full register; a driven
    subsystem enters with its chain at time ``t``, a static one as it is."""
    register = composite.register
    if composite.subsystem_schedule is None:
        subsystem = composite.subsystem_hamiltonian
    else:
        subsystem = build_xxz(params_at(composite.subsystem_schedule, t))
    entries = embed_operator(register, subsystem.entries, composite.subsystem_sites)
    if composite.coupling is not None:
        entries = entries + composite.coupling.entries
    if composite.bath_hamiltonian is not None:
        entries = entries + embed_operator(
            register, composite.bath_hamiltonian.entries, composite.bath_sites
        )
    return HermitianOperator(register, entries)


def log_bath_partition(composite: CompositeSystem) -> float:
    """ln Z_B at the composite's beta; ln(dim) for a free bath, 0 without one."""
    if not composite.bath_sites:
        return 0.0
    if composite.bath_hamiltonian is None:
        return len(composite.bath_sites) * math.log(2.0)
    eigenvalues = spectral_decompose(composite.bath_hamiltonian).eigenvalues
    return float(logsumexp(-composite.beta * eigenvalues))


def effective_hamiltonian(composite: CompositeSystem, t: float = 0.0) -> HermitianOperator:
    """Hamiltonian of mean force on the subsystem register.

    Computed from the ground-shifted full Gibbs weights so nothing overflows:
    with M = tr_B exp(-beta (H - E0)),

        H_eff = E0 I - (1/beta) ln M + (ln Z_B / beta) I.

    Raises NumericalCheckError when M is numerically rank deficient, which
    happens once beta times the spectral width exceeds what doubles resolve.
    """
    full = spectral_decompose(full_hamiltonian(composite, t))
    return _mean_force(composite, full, log_bath_partition(composite))


def _mean_force(
    composite: CompositeSystem, full: SpectralDecomposition, log_bath: float
) -> HermitianOperator:
    """effective_hamiltonian from the full Hamiltonian's spectrum and ln Z_B."""
    ground = full.eigenvalues[0]
    weights = np.exp(-composite.beta * (full.eigenvalues - ground))
    v = full.eigenvectors
    weight_matrix = (v * weights) @ v.conj().T
    keep0 = [s - 1 for s in composite.subsystem_sites]
    traced = _partial_trace_matrix(weight_matrix, composite.register.n, keep0)
    traced = 0.5 * (traced + traced.conj().T)
    m_eigenvalues, m_vectors = checked_eigh(traced)
    smallest = float(m_eigenvalues[0])
    if smallest <= WEIGHT_RANK_FLOOR:
        raise NumericalCheckError(
            "bath-traced weight operator is numerically rank deficient "
            f"(smallest eigenvalue {smallest:.3e}); the effective Hamiltonian "
            f"is not resolvable at beta={composite.beta:g}"
        )
    log_m = (m_vectors * np.log(m_eigenvalues)) @ m_vectors.conj().T
    dim = 2 ** len(composite.subsystem_sites)
    identity = np.eye(dim, dtype=np.complex128)
    shift = ground + log_bath / composite.beta
    entries = shift * identity - log_m / composite.beta
    entries = 0.5 * (entries + entries.conj().T)
    return HermitianOperator(composite.subsystem_register, entries)


def effective_spec(composite: CompositeSystem, t: float = 0.0) -> ThermalSpec:
    """ThermalSpec pairing the effective Hamiltonian with the composite's beta."""
    return ThermalSpec(effective_hamiltonian(composite, t), composite.beta)


def reduced_state(composite: CompositeSystem, t: float = 0.0) -> DensityMatrix:
    """tr_B of the full Gibbs state at the composite's beta."""
    full_state = thermal_state(ThermalSpec(full_hamiltonian(composite, t), composite.beta))
    keep0 = [s - 1 for s in composite.subsystem_sites]
    reduced = _partial_trace_matrix(full_state.entries, composite.register.n, keep0)
    return DensityMatrix(composite.subsystem_register, reduced)


@dataclass(frozen=True)
class PartitionSplit:
    """Log partition functions of the full system and its factors.

    ``log_subsystem`` is defined through the identity Z_S = Y / Z_B; the
    plain (non-log) properties can overflow to inf at steep beta and exist
    for convenience only.  Unpacks as (Y, Z_B, Z_S).
    """

    log_full: float
    log_bath: float

    def __iter__(self):
        return iter((self.full, self.bath, self.subsystem))

    @property
    def log_subsystem(self) -> float:
        return self.log_full - self.log_bath

    @property
    def full(self) -> float:
        return float(np.exp(self.log_full))

    @property
    def bath(self) -> float:
        return float(np.exp(self.log_bath))

    @property
    def subsystem(self) -> float:
        return float(np.exp(self.log_subsystem))


def subsystem_partition(composite: CompositeSystem, t: float = 0.0) -> PartitionSplit:
    """Split ln Y into bath and subsystem pieces at the composite's beta."""
    eigenvalues = spectral_decompose(full_hamiltonian(composite, t)).eigenvalues
    log_full = float(logsumexp(-composite.beta * eigenvalues))
    return PartitionSplit(log_full=log_full, log_bath=log_bath_partition(composite))


def _require_shared_environment(initial: CompositeSystem, final: CompositeSystem) -> None:
    if initial.register != final.register:
        raise ConfigError("composites must share a register")
    if initial.subsystem_sites != final.subsystem_sites or initial.bath_sites != final.bath_sites:
        raise ConfigError("composites must share the subsystem/bath partition")
    if initial.beta != final.beta:
        raise ConfigError(
            f"composites must share beta, got {initial.beta} and {final.beta}"
        )

    def entries_or_none(op: HermitianOperator | None) -> np.ndarray | None:
        return None if op is None else op.entries

    for name, a, b in (
        ("coupling", entries_or_none(initial.coupling), entries_or_none(final.coupling)),
        (
            "bath Hamiltonian",
            entries_or_none(initial.bath_hamiltonian),
            entries_or_none(final.bath_hamiltonian),
        ),
    ):
        if (a is None) != (b is None):
            raise ConfigError(f"composites must share the {name} (one side lacks it)")
        if a is not None and b is not None and np.abs(a - b).max() > OPERATOR_MATCH_ATOL:
            raise ConfigError(f"composites must share the {name}; entries differ")


def open_witness(
    initial: CompositeSystem,
    final: CompositeSystem,
    rho_star: StateOrSpec,
    *,
    evolution: UnitaryOperator | None = None,
    sigma_ref: StateOrSpec | None = None,
    route: str = "direct",
    strictness_epsilon: float = STRICTNESS_EPSILON,
) -> WitnessReport:
    """Witness evaluation with open-system endpoint states.

    The reference pair is the effective Gibbs state of ``final`` (playing rho)
    against the effective Gibbs state of ``initial`` (playing sigma_ref, unless
    overridden).  On the work route the left distance comes from full-system
    work statistics under ``evolution`` (identity by default; the average is
    protocol independent), and ``rho_star`` must be a declared Gibbs state on
    the subsystem register.
    """
    _require_shared_environment(initial, final)
    route = route.replace("-", "_")
    # Each full Hamiltonian and the shared bath are diagonalized once; the
    # effective specs and the work average below reuse the spectra.
    full_initial = spectral_decompose(full_hamiltonian(initial, 0.0))
    full_final = spectral_decompose(full_hamiltonian(final, final.final_time))
    log_bath = log_bath_partition(initial)
    spec_initial = ThermalSpec(_mean_force(initial, full_initial, log_bath), initial.beta)
    spec_final = ThermalSpec(_mean_force(final, full_final, log_bath), final.beta)
    metadata = {
        "system": "open",
        "beta": initial.beta,
        "subsystem_sites": list(initial.subsystem_sites),
        "bath_sites": list(initial.bath_sites),
    }
    if route == "direct":
        return witness_evaluate(
            spec_final,
            sigma_ref if sigma_ref is not None else spec_initial,
            rho_star,
            "direct",
            strictness_epsilon=strictness_epsilon,
            metadata=metadata,
        )
    if route != "via_work":
        raise ValueError(f"route must be 'direct' or 'via_work', got {route!r}")
    if sigma_ref is not None:
        raise ConfigError(
            "the work route derives the reference distance from the full-system "
            "protocol; a custom sigma_ref needs route='direct'"
        )
    if not isinstance(rho_star, ThermalSpec):
        raise ConfigError(
            "route 'via_work' needs declared Gibbs states; rho_star is not a ThermalSpec"
        )
    if rho_star.hamiltonian.register != initial.subsystem_register:
        raise ConfigError("rho_star must live on the subsystem register")
    u_full = evolution if evolution is not None else _identity_unitary(initial.register)
    if u_full.register != initial.register:
        raise ConfigError("evolution must act on the full register")
    log_average = log_jarzynski_average(initial.beta, full_initial, full_final, u_full)
    rho_final = thermal_state(spec_final)
    delta = spec_final.hamiltonian.entries - spec_initial.hamiltonian.entries
    energy_shift = float(np.einsum("ij,ji->", rho_final.entries, delta).real)
    s_left = -initial.beta * energy_shift - log_average
    s_right = relative_entropy_via_work(
        rho_star, spec_final, _identity_unitary(initial.subsystem_register)
    )
    return _finish_report(s_left, s_right, "via_work", strictness_epsilon, metadata)


def open_trotter_evolution(composite: CompositeSystem, sampling: str = "left") -> UnitaryOperator:
    """Product of full-system step propagators along the subsystem's schedule.

    The bath and coupling stay fixed while the subsystem parameters follow the
    schedule; sampling works as in the closed-system integrator ("left" for
    plain first order, "midpoint" for the symmetric variant).  The full
    Hamiltonian is built once, as the dense pieces (coupling + embedded bath,
    and the subsystem chain's H_xy, H_zz and S_z laid on its sites of the
    full register) with the slice coefficients (1, J, Jz, -B), and handed to
    ``work_stats.ordered_product``, which exploits S^z conservation when the
    coupling and bath have it too (as for a split XXZ chain).
    """
    if composite.subsystem_schedule is None:
        raise ValueError("open_trotter_evolution needs a driven composite")
    schedule = composite.subsystem_schedule
    coefficients = np.column_stack(
        [np.ones(schedule.steps), schedule_coefficients(schedule, sampling)]
    )
    register = composite.register
    fixed = np.zeros((register.dim, register.dim), dtype=np.complex128)
    if composite.coupling is not None:
        fixed += composite.coupling.entries
    if composite.bath_hamiltonian is not None:
        fixed += embed_operator(register, composite.bath_hamiltonian.entries, composite.bath_sites)
    site = [s - 1 for s in composite.subsystem_sites]
    bonds = [(site[l], site[m]) for l, m in _bonds(schedule.n, schedule.initial.boundary)]
    hopping, zz, magnetization = chain_pieces(register.n, bonds, site)
    pieces = np.stack([fixed, hopping, np.diag(zz), np.diag(magnetization)])
    return ordered_product(register, pieces, coefficients, schedule.dt)


def split_chain(
    params: XXZParams, subsystem_sites: Sequence[int], beta: float
) -> CompositeSystem:
    """Split one XXZ chain into subsystem, bath and the bonds between them.

    Bonds with both ends in the subsystem (or bath) go to that part's
    Hamiltonian; bonds straddling the cut become the coupling.  Field terms
    follow their site.  Summing the embedded pieces reproduces the original
    chain exactly.
    """
    register = QubitRegister(params.n)
    sub = tuple(sorted(int(s) for s in subsystem_sites))
    bath = tuple(s for s in range(1, params.n + 1) if s not in sub)
    bonds = _bonds(params.n, params.boundary)
    cross = [(l, m) for l, m in bonds if (l + 1 in sub) != (m + 1 in sub)]

    def part(sites: tuple[int, ...]) -> HermitianOperator:
        local = {site - 1: idx for idx, site in enumerate(sites)}
        inside = [(local[l], local[m]) for l, m in bonds if l in local and m in local]
        pieces = chain_pieces(len(sites), inside, range(len(sites)))
        return HermitianOperator(QubitRegister(len(sites)), xxz_matrix(params, *pieces))

    hopping, zz, _ = chain_pieces(params.n, cross, [])
    coupling = xxz_matrix(params, hopping, zz, 0.0)
    return CompositeSystem(
        register=register,
        subsystem_sites=sub,
        bath_sites=bath,
        beta=beta,
        subsystem_hamiltonian=part(sub),
        coupling=HermitianOperator(register, coupling) if cross else None,
        bath_hamiltonian=part(bath) if bath else None,
    )


def decoupled(composite: CompositeSystem) -> CompositeSystem:
    """The same composite with the subsystem-bath coupling switched off."""
    return dataclasses.replace(composite, coupling=None)
