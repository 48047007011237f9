"""Subsystem-plus-bath composites and effective thermal descriptions.

The headline check reproduces the bath-traced construction with an
independently coded dense oracle (scipy expm/logm on the full register,
reshape-based partial trace) and compares entrywise.
"""

import numpy as np
import pytest
from scipy.linalg import expm, logm

from entwit import (
    CompositeSystem,
    ConfigError,
    HermitianOperator,
    NumericalCheckError,
    QubitRegister,
    ThermalSpec,
    UnitaryOperator,
    XXZParams,
    build_xxz,
    decoupled,
    DrivingSchedule,
    effective_hamiltonian,
    full_hamiltonian,
    log_work_average,
    open_trotter_evolution,
    open_witness,
    reduced_state,
    relative_entropy,
    split_chain,
    thermal_state,
    transition_matrix,
    trotter_evolution,
    witness_evaluate,
)
from dense_oracle import embed_operator
from entwit.open_system import _mean_force, log_bath_partition
from entwit.operators import spectral_decompose

SZ = np.diag([1.0, -1.0]).astype(complex)


def trace_out_last(matrix, keep_dim, drop_dim):
    """Partial trace over the trailing factor, written without the package."""
    blocks = matrix.reshape(keep_dim, drop_dim, keep_dim, drop_dim)
    return np.einsum("ikjk->ij", blocks)


def log_partitions(comp):
    """(ln Y, ln Z_B, ln Z_S) of a composite, with Z_S = Y / Z_B."""
    log_y = ThermalSpec(full_hamiltonian(comp), comp.beta).log_partition
    log_z_b = log_bath_partition(comp)
    return log_y, log_z_b, log_y - log_z_b


def one_plus_one(g, beta=1.0, a=0.7, b=0.3):
    """One subsystem qubit (a*sz) and one bath qubit (b*sz), coupled g*szsz."""
    reg = QubitRegister(2)
    coupling = None
    if g:
        coupling = HermitianOperator(reg, g * np.kron(SZ, SZ))
    return CompositeSystem(
        register=reg,
        subsystem_sites=(1,),
        bath_sites=(2,),
        beta=beta,
        subsystem_hamiltonian=HermitianOperator(QubitRegister(1), a * SZ),
        coupling=coupling,
        bath_hamiltonian=HermitianOperator(QubitRegister(1), b * SZ),
    )


def two_plus_one(g, beta=1.0, b_field=0.4, jz=0.3):
    reg = QubitRegister(3)
    h_s = HermitianOperator(
        QubitRegister(2),
        build_xxz(XXZParams(2, 1.0, jz, b_field, boundary="open")).entries,
    )
    coupling = None
    if g:
        coupling = HermitianOperator(reg, g * embed_operator(reg, np.kron(SZ, SZ), (2, 3)))
    return CompositeSystem(
        register=reg,
        subsystem_sites=(1, 2),
        bath_sites=(3,),
        beta=beta,
        subsystem_hamiltonian=h_s,
        coupling=coupling,
        bath_hamiltonian=HermitianOperator(QubitRegister(1), 0.3 * SZ),
    )


# ---------------------------------------------------------------- splitting

def test_split_chain_reassembles_periodic():
    params = XXZParams(4, 1.0, 0.4, 0.2)
    comp = split_chain(params, (1, 2), 2.0)
    dev = np.max(np.abs(full_hamiltonian(comp).entries - build_xxz(params).entries))
    assert dev < 1e-13
    assert comp.subsystem_sites == (1, 2) and comp.bath_sites == (3, 4)


def test_split_chain_reassembles_open_and_noncontiguous():
    for sites in [(2, 3), (1, 3), (4,)]:
        params = XXZParams(4, 0.8, 0.1, 0.5, boundary="open")
        comp = split_chain(params, sites, 1.0)
        dev = np.max(np.abs(full_hamiltonian(comp).entries - build_xxz(params).entries))
        assert dev < 1e-13


def test_split_chain_without_cross_bonds_has_no_coupling():
    # cutting an open chain at the boundary between (1,2) and (3,4) leaves
    # exactly one cross bond; keeping every site leaves none
    params = XXZParams(4, 1.0, 0.4, 0.2, boundary="open")
    assert split_chain(params, (1, 2), 1.0).coupling is not None
    assert split_chain(params, (1, 2, 3, 4), 1.0).coupling is None


# ---------------------------------------------------------------- effective H

def test_decoupled_effective_hamiltonian_is_bare():
    comp = decoupled(two_plus_one(0.2))
    dev = np.max(
        np.abs(effective_hamiltonian(comp).entries - comp.subsystem_hamiltonian.entries)
    )
    assert dev < 1e-10


def test_empty_bath_is_the_closed_system():
    h_s = HermitianOperator(QubitRegister(2), build_xxz(XXZParams(2, 1.0, 0.3, 0.4, boundary="open")).entries)
    comp = CompositeSystem(
        register=QubitRegister(2),
        subsystem_sites=(1, 2),
        bath_sites=(),
        beta=1.0,
        subsystem_hamiltonian=h_s,
        coupling=None,
        bath_hamiltonian=None,
    )
    assert np.max(np.abs(effective_hamiltonian(comp).entries - h_s.entries)) < 1e-12
    log_y, log_z_b, log_z_s = log_partitions(comp)
    assert log_z_b == 0.0 and abs(np.exp(log_y) - np.exp(log_z_s)) < 1e-12


def test_effective_hamiltonian_against_dense_oracle():
    # independent reconstruction: expm on the full register, reshape-based
    # bath trace, logm back to an operator
    comp = one_plus_one(0.2, beta=1.0)
    h_full = full_hamiltonian(comp).entries
    weight = trace_out_last(expm(-1.0 * h_full), 2, 2)
    z_bath = float(np.trace(expm(-1.0 * comp.bath_hamiltonian.entries)).real)
    expected = -logm(weight / z_bath)
    got = effective_hamiltonian(comp).entries
    assert np.max(np.abs(got - expected)) < 1e-10


def test_effective_hamiltonian_beta_dependence():
    # the mean-force correction must vary with temperature when coupled
    cold = effective_hamiltonian(one_plus_one(0.2, beta=4.0))
    warm = effective_hamiltonian(one_plus_one(0.2, beta=0.25))
    assert np.max(np.abs(cold.entries - warm.entries)) > 1e-3


def test_rank_deficient_weight_operator_raises():
    with pytest.raises(NumericalCheckError, match="rank deficient"):
        effective_hamiltonian(two_plus_one(0.5, beta=5000.0))


@pytest.mark.parametrize("corrupt", ["eigenvalue", "eigenvector"])
def test_mean_force_rejects_a_corrupted_eigendecomposition(monkeypatch, corrupt):
    composite = split_chain(XXZParams(4, 1.0, 0.4, 0.2), (1, 2), 2.0)
    full = spectral_decompose(full_hamiltonian(composite))
    log_bath = log_bath_partition(composite)
    _mean_force(composite, full, log_bath)
    real_eigh = np.linalg.eigh

    def skewed(matrix):
        w, v = real_eigh(matrix)
        w, v = w.copy(), v.copy()
        if corrupt == "eigenvalue":
            w[0] += 1e-3
        else:
            v[:, 0] *= 1.0 + 1e-6
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", skewed)
    match = "reconstruction" if corrupt == "eigenvalue" else "orthonormal"
    with pytest.raises(NumericalCheckError, match=match):
        _mean_force(composite, full, log_bath)


# ---------------------------------------------------------------- partitions

def test_partition_unpacks_and_matches_effective_trace():
    for beta, g in [(1.0, 0.2), (2.0, 0.5), (0.5, 0.1)]:
        comp = one_plus_one(g, beta=beta)
        log_y, log_z_b, log_z_s = log_partitions(comp)
        Z_S = np.exp(log_z_s)
        assert abs(np.exp(log_y) / np.exp(log_z_b) - Z_S) < 1e-12 * abs(Z_S)
        direct = float(np.trace(expm(-beta * effective_hamiltonian(comp).entries)).real)
        assert abs(Z_S - direct) / direct < 1e-9


def test_zero_hamiltonians_count_dimensions():
    reg = QubitRegister(3)
    comp = CompositeSystem(
        register=reg,
        subsystem_sites=(1, 2),
        bath_sites=(3,),
        beta=2.0,
        subsystem_hamiltonian=HermitianOperator(QubitRegister(2), np.zeros((4, 4))),
        coupling=None,
        bath_hamiltonian=None,
    )
    log_y, log_z_b, log_z_s = log_partitions(comp)
    assert abs(np.exp(log_y) - 8.0) < 1e-12
    assert abs(np.exp(log_z_b) - 2.0) < 1e-12
    assert abs(np.exp(log_z_s) - 4.0) < 1e-12


def test_reduced_state_is_gibbs_of_the_effective_hamiltonian():
    comp = one_plus_one(0.3, beta=1.5)
    via_trace = reduced_state(comp)
    via_effective = thermal_state(ThermalSpec(effective_hamiltonian(comp), comp.beta))
    assert np.max(np.abs(via_trace.entries - via_effective.entries)) < 1e-12
    assert relative_entropy(via_trace, via_effective) < 1e-12


# ---------------------------------------------------------------- identities

def test_full_jarzynski_gives_subsystem_free_energy_ratio(haar):
    # driving only the subsystem against a fixed bath: the full-register
    # exponential work average reduces to the ratio of effective partitions
    beta = 1.0
    initial = two_plus_one(0.1, beta=beta, b_field=0.1)
    final = two_plus_one(0.1, beta=beta, b_field=0.6, jz=0.0)
    log_zs_ratio = log_partitions(final)[2] - log_partitions(initial)[2]
    for u in (
        UnitaryOperator(QubitRegister(3), np.eye(8)),
        haar(QubitRegister(3), 17),
    ):
        spectra = (spectral_decompose(full_hamiltonian(c)) for c in (initial, final))
        log_avg = log_work_average(transition_matrix(*spectra, u), beta, beta)
        assert abs(log_avg - log_zs_ratio) < 1e-9


def test_open_witness_decoupled_equals_closed_witness():
    initial = decoupled(two_plus_one(0.2, b_field=0.1))
    final = decoupled(two_plus_one(0.2, b_field=0.6))
    rho_star = ThermalSpec(initial.subsystem_hamiltonian, 1.0)
    report = open_witness(initial, final, rho_star)
    closed = witness_evaluate(
        ThermalSpec(final.subsystem_hamiltonian, 1.0),
        ThermalSpec(initial.subsystem_hamiltonian, 1.0),
        rho_star,
    )
    assert abs(report.s_left - closed.s_left) < 1e-12
    assert abs(report.s_right - closed.s_right) < 1e-12


def test_open_witness_routes_agree_when_coupled():
    initial = two_plus_one(0.1, b_field=0.1)
    final = two_plus_one(0.1, b_field=0.6)
    rho_star = ThermalSpec(initial.subsystem_hamiltonian, 1.0)
    direct = open_witness(initial, final, rho_star)
    via = open_witness(initial, final, rho_star, route="via_work")
    assert abs(direct.margin - via.margin) < 1e-6
    assert direct.metadata["system"] == "open"


@pytest.mark.parametrize("route, count", [("direct", 6), ("via_work", 5)])
def test_open_witness_diagonalizes_each_hamiltonian_once(decompositions, route, count):
    initial = two_plus_one(0.1, b_field=0.1)
    final = two_plus_one(0.1, b_field=0.6)
    open_witness(initial, final, ThermalSpec(initial.subsystem_hamiltonian, 1.0), route=route)
    # both full Hamiltonians, the bath, rho_star's Hamiltonian, the final
    # effective one, and on the direct route the initial effective one too
    assert len(decompositions) == len(set(decompositions)) == count


def test_open_witness_checks_the_route_before_any_diagonalization(decompositions):
    initial = split_chain(XXZParams(8, 1.0, 0.3, 0.4), (1, 2, 3), 1.0)
    final = split_chain(XXZParams(8, 1.0, 0.3, 0.6), (1, 2, 3), 1.0)
    for route in ("bogus", "via-work"):
        with pytest.raises(ValueError, match="'via_work'"):
            open_witness(initial, final, ThermalSpec(initial.subsystem_hamiltonian, 1.0), route=route)
    assert decompositions == []


def test_open_witness_margins_decouple_linearly():
    rho_star = ThermalSpec(
        HermitianOperator(
            QubitRegister(2),
            build_xxz(XXZParams(2, 1.0, 0.1, 0.3, boundary="open")).entries,
        ),
        1.0,
    )
    def margin(g):
        return open_witness(
            two_plus_one(g, b_field=0.1), two_plus_one(g, b_field=0.6), rho_star
        ).margin

    base = margin(0.0)
    devs = [abs(margin(g) - base) for g in (0.1, 0.01, 0.001)]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] <= 0.02 * devs[0]


def test_open_witness_via_work_constraints():
    initial = two_plus_one(0.1)
    final = two_plus_one(0.1, b_field=0.6)
    dense_star = thermal_state(ThermalSpec(initial.subsystem_hamiltonian, 1.0))
    with pytest.raises(ConfigError, match="rho_star is not a ThermalSpec"):
        open_witness(initial, final, dense_star, route="via_work")


def test_open_witness_rejects_mismatched_environments():
    a = two_plus_one(0.1)
    rho_star = ThermalSpec(a.subsystem_hamiltonian, 1.0)
    with pytest.raises(ConfigError):
        open_witness(a, two_plus_one(0.2), rho_star)  # different coupling
    with pytest.raises(ConfigError):
        open_witness(a, two_plus_one(0.1, beta=2.0), rho_star)  # different beta


# ---------------------------------------------------------------- containers

def test_composite_validation():
    reg = QubitRegister(2)
    h1 = HermitianOperator(QubitRegister(1), SZ)
    with pytest.raises(ValueError):
        CompositeSystem(
            register=reg, subsystem_sites=(1,), bath_sites=(1,), beta=1.0,
            subsystem_hamiltonian=h1, coupling=None, bath_hamiltonian=None,
        )
    with pytest.raises(ValueError):
        CompositeSystem(
            register=reg, subsystem_sites=(1, 2), bath_sites=(), beta=1.0,
            subsystem_hamiltonian=h1, coupling=None, bath_hamiltonian=None,
        )
    with pytest.raises(ValueError):
        CompositeSystem(
            register=reg, subsystem_sites=(1,), bath_sites=(2,), beta=1.0,
            subsystem_hamiltonian=None, coupling=None, bath_hamiltonian=None,
        )
    with pytest.raises(ValueError):
        # coupling requires a bath to couple to
        CompositeSystem(
            register=QubitRegister(1), subsystem_sites=(1,), bath_sites=(), beta=1.0,
            subsystem_hamiltonian=h1,
            coupling=HermitianOperator(QubitRegister(1), 0.1 * SZ),
            bath_hamiltonian=None,
        )


def test_driven_composite_and_its_evolution():
    schedule = DrivingSchedule(
        XXZParams(2, 1.0, 0.3, 0.1, boundary="open"),
        XXZParams(2, 1.0, 0.0, 0.6, boundary="open"),
        t_f=0.5,
        steps=64,
    )
    comp = CompositeSystem(
        register=QubitRegister(3),
        subsystem_sites=(1, 2),
        bath_sites=(3,),
        beta=1.0,
        subsystem_schedule=schedule,
        coupling=None,
        bath_hamiltonian=HermitianOperator(QubitRegister(1), 0.3 * SZ),
    )
    assert comp.is_driven and comp.final_time == 0.5
    u = open_trotter_evolution(comp)
    # decoupled and static bath: the full propagator factorizes exactly
    u_sub = trotter_evolution(schedule)
    u_bath = expm(-0.5j * comp.bath_hamiltonian.entries)
    assert np.max(np.abs(u.entries - np.kron(u_sub.entries, u_bath))) < 1e-12


def test_open_trotter_requires_a_schedule():
    with pytest.raises(ValueError):
        open_trotter_evolution(two_plus_one(0.1))
