"""Acceptance gate: one test per shipping criterion, one verdict line each.

Every test prints ``ACCEPT-NN PASS/FAIL`` with the measured numbers so the
full gate can be audited from the pytest output (run with ``-s`` or read the
captured output of any failure).  Tolerances are stated inline next to each
check and are not relaxed anywhere else.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from dense_oracle import dense_transitions
from entwit import (
    DensityMatrix,
    DrivingSchedule,
    GridAxis,
    QubitRegister,
    SweepGrid,
    ThermalSpec,
    UnitaryOperator,
    XXZParams,
    build_css,
    build_w_state,
    build_xxz,
    decoupled,
    delta_beta_f,
    detection_protocol,
    effective_hamiltonian,
    exact_evolution,
    full_hamiltonian,
    log_work_average,
    reference_state,
    relative_entropy,
    sample_tpm,
    spectral_decompose,
    sweep_detection,
    sweep_reference,
    thermal_state,
    transition_matrix,
    trotter_evolution,
    witness_evaluate,
)
from entwit.open_system import CompositeSystem, log_bath_partition
from entwit.witness import reference_params
from entwit import HermitianOperator
from dense_oracle import embed_operator

SZ = np.diag([1.0, -1.0]).astype(complex)


def verdict(number, passed, detail):
    line = f"ACCEPT-{number:02d} {'PASS' if passed else 'FAIL'} — {detail}"
    print(line)
    assert passed, line


def haar_unitary(register, seed):
    rng = np.random.default_rng(seed)
    dim = register.dim
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return UnitaryOperator(register, q * (np.diag(r) / np.abs(np.diag(r)))[None, :])


def test_accept_01_jarzynski_closed_form():
    # 3-qubit drive at beta = 100: log <e^{-beta W}> equals ln Z_f - ln Z_i to
    # 1e-9, for the exact protocol unitary and for 20 random unitaries.
    start = time.perf_counter()
    proto = detection_protocol(3)
    spectra = proto.initial_spec.spectrum, proto.final_spec.spectrum
    expected = -delta_beta_f(proto.initial_spec, proto.final_spec)
    u_exact = exact_evolution(proto.schedule)

    def deviation(u):
        return abs(log_work_average(transition_matrix(*spectra, u), 100.0, 100.0) - expected)

    dev_protocol = deviation(u_exact)
    dev_random = max(deviation(haar_unitary(QubitRegister(3), seed)) for seed in range(20))
    elapsed = time.perf_counter() - start
    verdict(
        1,
        dev_protocol <= 1e-9 and dev_random <= 1e-9 and elapsed < 1.0,
        f"protocol dev {dev_protocol:.2e}, worst of 20 unitaries {dev_random:.2e} "
        f"(tol 1e-9), runtime {elapsed:.2f}s (< 1s)",
    )


def test_accept_02_two_temperature_average():
    start = time.perf_counter()
    # single qubit, H = sz, beta 1 -> 2: average is cosh(2)/cosh(1)
    h = spectral_decompose(HermitianOperator(QubitRegister(1), SZ))
    ident = UnitaryOperator(QubitRegister(1), np.eye(2))
    analytic = np.cosh(2.0) / np.cosh(1.0)
    got_single = np.exp(log_work_average(transition_matrix(h, h, ident), 1.0, 2.0))
    dev_single = abs(got_single - analytic) / analytic
    # 3-qubit drive with distinct initial/final temperatures
    proto = detection_protocol(3)
    h_i = proto.initial_spec.hamiltonian
    h_f = proto.final_spec.hamiltonian
    initial = ThermalSpec(h_i, 100.0)
    final = ThermalSpec(h_f, 50.0)
    expected = final.log_partition - initial.log_partition
    tm = transition_matrix(initial.spectrum, final.spectrum, exact_evolution(proto.schedule))
    got = log_work_average(tm, 100.0, 50.0)
    dev_chain = abs(got - expected)
    elapsed = time.perf_counter() - start
    verdict(
        2,
        dev_single <= 1e-9 and dev_chain <= 1e-9 and elapsed < 1.0,
        f"single-qubit rel dev {dev_single:.2e}, 3-qubit two-temperature dev "
        f"{dev_chain:.2e} (tol 1e-9), runtime {elapsed:.2f}s (< 1s)",
    )


def test_accept_03_route_equivalence():
    start = time.perf_counter()
    devs = {}
    for n, tol in ((3, 1e-8), (7, 1e-6)):
        proto = detection_protocol(n)  # t_f = 1.0, 1000 steps: dt = 0.001
        if n == 3:
            u = exact_evolution(proto.schedule)
        else:
            u = trotter_evolution(proto.schedule)
        direct = witness_evaluate(proto.final_spec, proto.initial_spec, proto.initial_spec)
        via = witness_evaluate(
            proto.final_spec,
            proto.initial_spec,
            proto.initial_spec,
            route="via_work",
            evolution=u,
        )
        devs[n] = max(abs(direct.s_left - via.s_left), abs(direct.s_right - via.s_right))
        assert devs[n] <= tol
    elapsed = time.perf_counter() - start
    verdict(
        3,
        devs[3] <= 1e-8 and devs[7] <= 1e-6 and elapsed < 60.0,
        f"n=3 dev {devs[3]:.2e} (tol 1e-8, exact U), n=7 dev {devs[7]:.2e} "
        f"(tol 1e-6, Trotter dt=0.001), runtime {elapsed:.1f}s (< 60s)",
    )


def test_accept_04_reference_states():
    dev_w3 = abs(relative_entropy(build_w_state(3), build_css(3)) - math.log(9 / 4))

    def phase_mixture(n):
        dim = 2**n
        out = np.zeros((dim, dim), dtype=complex)
        site0 = math.sqrt((n - 1) / n)
        site1 = math.sqrt(1 / n)
        for j in range(n + 1):
            phase = np.exp(2j * np.pi * j / (n + 1))
            vec = np.ones(1, dtype=complex)
            for _ in range(n):
                vec = np.kron(vec, np.array([site0, phase * site1]))
            out += np.outer(vec, vec.conj())
        return out / (n + 1)

    dev_css = max(
        float(np.max(np.abs(build_css(n).entries - phase_mixture(n)))) for n in range(2, 8)
    )
    rho7 = build_w_state(7)
    dev_prime = abs(
        relative_entropy(rho7, reference_state(7)) - relative_entropy(rho7, build_css(7))
    )
    verdict(
        4,
        dev_w3 <= 1e-9 and dev_css <= 1e-12 and dev_prime <= 1e-6,
        f"S(rho_3||css) vs ln(9/4) dev {dev_w3:.2e} (tol 1e-9); phase-average "
        f"worst entry {dev_css:.2e} over n=2..7 (tol 1e-12); sigma' distance "
        f"gap {dev_prime:.2e} (tol 1e-6)",
    )


def test_accept_05_thermal_matching():
    # beta = 100 (T = 0.01), J = 1
    target3 = math.log(9 / 4)
    sigma3 = thermal_state(ThermalSpec(build_xxz(reference_params(3, 100.0)), 100.0))
    rel3 = abs(relative_entropy(build_w_state(3), sigma3) - target3) / target3

    params7 = reference_params(7, 100.0)
    dev_field = abs(params7.B - (math.log(70993 / 46656) / 200.0 + 1.0))
    target7 = 6 * math.log(7 / 6)
    sigma7 = thermal_state(ThermalSpec(build_xxz(params7), 100.0))
    rel7 = abs(relative_entropy(build_w_state(7), sigma7) - target7) / target7
    verdict(
        5,
        rel3 < 5e-7 and rel7 < 5e-6 and dev_field < 1e-12,
        f"n=3 rel dev {rel3:.2e} (>= 6 sig figs); n=7 rel dev {rel7:.2e} "
        f"(>= 5 sig figs); field formula dev {dev_field:.1e}",
    )


def test_accept_06_detection_region_topology():
    start = time.perf_counter()
    ref3 = sweep_reference(3)

    point = sweep_detection(
        SweepGrid(
            GridAxis(0.5, 0.5, 1.0), GridAxis(0.0, 0.0, 1.0), GridAxis(0.01, 0.01, 1.0), n=3
        ),
        ref3,
    )
    detect_at_reference = bool(point.detected[0, 0, 0])

    full3 = sweep_detection(
        SweepGrid(
            GridAxis(0.0, 1.2, 0.02), GridAxis(0.0, 1.0, 0.02), GridAxis(0.02, 2.0, 0.02), n=3
        ),
        ref3,
    )
    flags3 = full3.detected
    assert flags3.shape == (61, 51, 100)
    nonempty3 = bool(flags3.any())
    intervals_ok = True
    for i in range(61):
        for j in range(51):
            idx = np.flatnonzero(flags3[i, j])
            if idx.size and idx[-1] - idx[0] + 1 != idx.size:
                intervals_ok = False

    hot3 = sweep_detection(
        SweepGrid(
            GridAxis(0.0, 1.2, 0.2), GridAxis(0.0, 1.0, 0.2), GridAxis(1000.0, 4000.0, 1000.0), n=3
        ),
        ref3,
    )
    empty_hot3 = not hot3.detected.any()

    ref7 = sweep_reference(7)
    coarse7 = sweep_detection(
        SweepGrid(
            GridAxis(0.0, 1.2, 0.05), GridAxis(0.0, 1.0, 0.05), GridAxis(0.05, 2.0, 0.05), n=7
        ),
        ref7,
    )
    nonempty7 = bool(coarse7.detected.any())
    hot7 = sweep_detection(
        SweepGrid(
            GridAxis(0.0, 1.2, 0.3), GridAxis(0.0, 1.0, 0.25), GridAxis(1000.0, 4000.0, 1000.0), n=7
        ),
        ref7,
    )
    empty_hot7 = not hot7.detected.any()
    elapsed = time.perf_counter() - start
    verdict(
        6,
        detect_at_reference
        and nonempty3
        and intervals_ok
        and empty_hot3
        and nonempty7
        and empty_hot7,
        f"n=3 detects at (B=0.5, Jz=0, T=0.01): {detect_at_reference}; full grid "
        f"{int(flags3.sum())} detections, all T-columns single intervals: {intervals_ok}; "
        f"hot grids empty: n=3 {empty_hot3}, n=7 {empty_hot7}; n=7 coarse nonempty: "
        f"{nonempty7}; runtime {elapsed:.0f}s",
    )


def test_accept_07_witness_soundness():
    rho = build_w_state(3)
    sigma = build_css(3)
    rng_master = np.random.default_rng(20260816)
    false_positives = 0
    for _ in range(100):
        vec = np.ones(1, dtype=complex)
        for _ in range(3):
            site = rng_master.normal(size=2) + 1j * rng_master.normal(size=2)
            site /= np.linalg.norm(site)
            vec = np.kron(vec, site)
        candidate = DensityMatrix(QubitRegister(3), np.outer(vec, vec.conj()))
        if witness_evaluate(rho, sigma, candidate).detected:
            false_positives += 1
    mixed = DensityMatrix(QubitRegister(3), np.eye(8) / 8)
    mixed_detected = witness_evaluate(rho, sigma, mixed).detected
    self_detected = witness_evaluate(rho, sigma, rho).detected
    verdict(
        7,
        false_positives == 0 and not mixed_detected and self_detected,
        f"{false_positives}/100 product-state false positives; completely mixed "
        f"detected: {mixed_detected}; rho* = rho_3 detected: {self_detected}",
    )


@pytest.mark.filterwarnings("ignore:thermal identification")
def test_accept_08_trajectory_sampler():
    # beta = 1 on the 3-qubit drive keeps the work distribution wide enough
    # that the error bars are meaningful at every count
    proto = detection_protocol(3, beta=1.0)
    tm = transition_matrix(
        proto.initial_spec.spectrum, proto.final_spec.spectrum, trotter_evolution(proto.schedule)
    )
    errs = {}
    z_final = None
    for count in (10**3, 10**4, 10**5):
        _, summary = sample_tpm(tm, proto.beta, proto.beta, count=count, seed=20260816)
        errs[count] = summary.stderr
        if count == 10**5:
            z_final = summary.z_score
    slope = np.polyfit(
        np.log([10**3, 10**4, 10**5]), np.log([errs[c] for c in (10**3, 10**4, 10**5)]), 1
    )[0]
    verdict(
        8,
        abs(z_final) <= 3.0 and abs(slope + 0.5) <= 0.1,
        f"z at count 1e5: {z_final:+.2f} (|z| <= 3); log-log stderr slope "
        f"{slope:.3f} (within 0.1 of -0.5)",
    )


def test_accept_09_open_system_identities():
    beta = 1.0

    def composite(g, b_field):
        reg = QubitRegister(3)
        coupling = None
        if g:
            coupling = HermitianOperator(
                reg, g * embed_operator(reg, np.kron(SZ, SZ), (2, 3))
            )
        return CompositeSystem(
            register=reg,
            subsystem_sites=(1, 2),
            bath_sites=(3,),
            beta=beta,
            subsystem_hamiltonian=HermitianOperator(
                QubitRegister(2),
                build_xxz(XXZParams(2, 1.0, 0.3, b_field, boundary="open")).entries,
            ),
            coupling=coupling,
            bath_hamiltonian=HermitianOperator(QubitRegister(1), 0.3 * SZ),
        )

    coupled = composite(0.2, 0.4)
    bare = decoupled(coupled)
    dev_decoupled = float(
        np.max(np.abs(effective_hamiltonian(bare).entries - bare.subsystem_hamiltonian.entries))
    )

    def log_subsystem_partition(c):
        # ln Z_S = ln Y - ln Z_B
        return ThermalSpec(full_hamiltonian(c), beta).log_partition - log_bath_partition(c)

    direct_zs = float(
        np.trace(_expm_neg(beta, effective_hamiltonian(coupled).entries)).real
    )
    dev_partition = abs(np.exp(log_subsystem_partition(coupled)) - direct_zs) / direct_zs

    initial = composite(0.1, 0.1)
    final = composite(0.1, 0.6)
    log_zs_ratio = log_subsystem_partition(final) - log_subsystem_partition(initial)
    spectra = (spectral_decompose(full_hamiltonian(c)) for c in (initial, final))
    tm = transition_matrix(*spectra, haar_unitary(QubitRegister(3), 20260816))
    dev_jarzynski = abs(log_work_average(tm, beta, beta) - log_zs_ratio)
    verdict(
        9,
        dev_decoupled <= 1e-10 and dev_partition <= 1e-9 and dev_jarzynski <= 1e-9,
        f"decoupled H_eff vs H_S {dev_decoupled:.2e} (tol 1e-10); Z_S = Y/Z_B rel dev "
        f"{dev_partition:.2e} (tol 1e-9); full-register Jarzynski vs subsystem "
        f"free energy {dev_jarzynski:.2e} (tol 1e-9)",
    )


def _expm_neg(beta, entries):
    values, vectors = np.linalg.eigh(entries)
    return (vectors * np.exp(-beta * values)) @ vectors.conj().T


def test_accept_10_numerical_infrastructure():
    rng = np.random.default_rng(314159)
    worst_sum = 0.0
    for seed in range(50):
        n = 2 + seed % 2
        dim = 2**n
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h_i = HermitianOperator(QubitRegister(n), (a + a.conj().T) / 2)
        b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h_f = HermitianOperator(QubitRegister(n), (b + b.conj().T) / 2)
        spectra = spectral_decompose(h_i), spectral_decompose(h_f)
        q = dense_transitions(transition_matrix(*spectra, haar_unitary(QubitRegister(n), seed)))
        worst_sum = max(
            worst_sum,
            float(np.max(np.abs(q.sum(axis=0) - 1.0))),
            float(np.max(np.abs(q.sum(axis=1) - 1.0))),
        )

    u = trotter_evolution(detection_protocol(3).schedule)  # 1000 steps
    unitarity = float(np.max(np.abs(u.entries.conj().T @ u.entries - np.eye(8))))

    sched = DrivingSchedule(
        XXZParams(3, 1.0, 0.8, 0.3, boundary="open"),
        XXZParams(3, 1.0, 0.0, 0.3, boundary="open"),
        t_f=1.0,
        steps=100,
    )
    reference = trotter_evolution(
        dataclasses.replace(sched, steps=3200), sampling="midpoint"
    )
    coarse = float(np.max(np.abs(trotter_evolution(sched).entries - reference.entries)))
    halved = float(
        np.max(
            np.abs(
                trotter_evolution(dataclasses.replace(sched, steps=200)).entries
                - reference.entries
            )
        )
    )
    factor = coarse / halved
    verdict(
        10,
        worst_sum <= 1e-10 and unitarity <= 1e-10 and abs(factor - 2.0) <= 0.3,
        f"doubly stochastic worst sum dev {worst_sum:.2e} over 50 protocols (tol 1e-10); "
        f"unitarity at 1000 steps {unitarity:.2e} (tol 1e-10); halving-step error "
        f"factor {factor:.3f} (2.0 +/- 0.3)",
    )
