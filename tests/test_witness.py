"""Reference states, witness evaluation, and the detection sweep.

Frozen oracle values, all derivable by hand from the state definitions:

  S(W_3 || css_3)      = ln(9/4)   = 0.8109302162163288
  S(W_n || sigma'_n)   = (n-1) ln(n/(n-1)); 6 ln(7/6) = 0.9249040789635501
  sigma'_7 weights       (7^7 - 7*6^6)/7^7 and 7*6^6/7^7
  css_3 eigenvalues      {8/27, 12/27, 6/27, 1/27} on the magnetization ladder
"""

import csv
import dataclasses
import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entwit.witness
from entwit import (
    ConfigError,
    DensityMatrix,
    GridAxis,
    QubitRegister,
    SweepGrid,
    ThermalSpec,
    XXZParams,
    build_css,
    build_w_state,
    build_xxz,
    detection_protocol,
    reference_state,
    relative_entropy,
    spectral_decompose,
    sweep_detection,
    sweep_metadata,
    sweep_reference,
    thermal_state,
    witness_evaluate,
    write_sweep_csv,
)
from entwit.witness import FINAL_FIELD, SWEEP_POINT_BYTES, _decide, _finish_report, reference_params, state_checksum

from csv_oracle import legacy_sweep_csv
from dense_oracle import dense_xxz, dicke_state, pure_state, smallest_partial_transpose_eigenvalue

LN_9_4 = 0.8109302162163288
SIX_LN_7_6 = 0.9249040789635501


def phase_averaged_mixture(n):
    """Uniform mixture of n+1 product states with amplitude 1/sqrt(n) on |1>.

    The relative phases 2*pi*j/(n+1) wipe out every coherence between
    magnetization sectors, which is what makes the mixture separable yet
    block-diagonal.
    """
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    cos = math.sqrt((n - 1) / n)
    sin = math.sqrt(1 / n)
    for j in range(n + 1):
        phase = np.exp(2j * np.pi * j / (n + 1))
        site = np.array([cos, phase * sin])
        vec = np.ones(1, dtype=complex)
        for _ in range(n):
            vec = np.kron(vec, site)
        out += np.outer(vec, vec.conj())
    return out / (n + 1)


# ---------------------------------------------------------------- states

def test_w_distance_is_ln_9_4():
    value = relative_entropy(build_w_state(3), build_css(3))
    assert abs(value - LN_9_4) < 1e-9
    assert abs(value - np.log(9 / 4)) < 1e-9


@pytest.mark.parametrize("n", range(2, 8))
def test_css_equals_phase_averaged_product_mixture(n):
    sigma = build_css(n)
    assert np.max(np.abs(sigma.entries - phase_averaged_mixture(n))) < 1e-12


def test_css_3_spectrum():
    weights = {0: 8 / 27, 1: 12 / 27, 2: 6 / 27, 3: 1 / 27}
    sigma = build_css(3)
    reg = QubitRegister(3)
    for k_ones, expected in weights.items():
        vec = dicke_state(reg, k_ones)
        got = (vec.conj() @ sigma.entries @ vec).real
        assert abs(got - expected) < 1e-14


def test_sigma_prime_structure():
    sigma = reference_state(7)
    reg = QubitRegister(7)
    zero = np.zeros(128, dtype=complex)
    zero[0] = 1.0
    w7 = dicke_state(reg, 1)
    expected = (496951 * np.outer(zero, zero) + 326592 * np.outer(w7, w7)) / 823543
    assert np.max(np.abs(sigma.entries - expected)) < 1e-15
    assert 496951 + 326592 == 7**7
    assert 326592 == 7 * 6**6


def test_sigma_prime_is_equidistant():
    rho = build_w_state(7)
    d_prime = relative_entropy(rho, reference_state(7))
    d_css = relative_entropy(rho, build_css(7))
    assert abs(d_prime - SIX_LN_7_6) < 1e-9
    assert abs(d_prime - d_css) < 1e-6


# ---------------------------------------------------------------- thermal params

def test_css_thermal_params_3_closed_form():
    params = reference_params(3, 100.0)
    assert abs(params.B - np.log(2) / 200.0) < 1e-15
    assert abs(params.Jz - (2.0 - np.log(3) / 100.0) / 4.0) < 1e-15
    assert params.n == 3 and params.J == 1.0


def test_sigma_prime_thermal_params_7_closed_form():
    params = reference_params(7, 100.0)
    assert abs(params.B - 1.0020988987212267) < 1e-15
    assert abs(params.B - (np.log(70993 / 46656) / 200.0 + 1.0)) < 1e-15
    assert params.Jz == 0.0


def test_thermal_params_warn_when_warm():
    with pytest.warns(UserWarning):
        reference_params(3, 1.0)
    with pytest.warns(UserWarning):
        reference_params(7, 5.0)


@pytest.mark.parametrize("n, beta, coupling_j", [(7, 100.0, 0.5)] + [(n, 100.0, 1.0) for n in range(9, 13)])
def test_thermal_params_warn_when_beta_times_the_final_gap_is_small(n, beta, coupling_j):
    # beta 2J(1 - cos(pi/n)) < ln(1e6): at n = 7, beta = 100, J = 0.5 the
    # thermal s_left reads 3.1e-3 low
    with pytest.warns(UserWarning, match="thermal identification"):
        reference_params(n, beta, coupling_j)


@pytest.mark.parametrize("n", [3, 7, 8])
def test_thermal_params_are_quiet_when_the_final_gap_is_large(n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reference_params(n, 100.0)
        detection_protocol(n)


def test_the_reference_protocol_refuses_an_open_chain():
    # W_n is an eigenstate of the periodic ring only
    for n in (3, 4, 7):
        with pytest.raises(ValueError, match="periodic ring"):
            sweep_reference(n, boundary="open", thermal=True)
        # the ideal pair needs no chain
        ideal = sweep_reference(n, boundary="open")
        assert np.array_equal(ideal.sigma_ref.entries, reference_state(n).entries)
    grid = small_grid(boundary="open")
    assert sweep_detection(grid, sweep_reference(3, boundary="open")).detected.any()


def test_the_open_chain_ground_state_is_not_w():
    # the measured overlaps behind the refusal above
    for n, overlap in ((4, 0.947), (5, 0.929), (7, 0.903)):
        final = XXZParams(n, 1.0, 0.0, FINAL_FIELD.get(n, math.cos(math.pi / n)), "open")
        _, vectors = np.linalg.eigh(build_xxz(final).entries)
        w = dicke_state(QubitRegister(n), 1)
        assert abs(abs(w.conj() @ vectors[:, 0]) ** 2 - overlap) < 5e-4


def test_thermal_identification_3():
    # the engineered Gibbs state reproduces the separable reference distance
    # to better than six significant figures at T = 0.01
    sigma = thermal_state(ThermalSpec(build_xxz(reference_params(3, 100.0)), 100.0))
    value = relative_entropy(build_w_state(3), sigma)
    assert abs(value - LN_9_4) / LN_9_4 < 5e-7


def test_thermal_identification_7():
    sigma = thermal_state(
        ThermalSpec(build_xxz(reference_params(7, 100.0)), 100.0)
    )
    value = relative_entropy(build_w_state(7), sigma)
    assert abs(value - SIX_LN_7_6) / SIX_LN_7_6 < 5e-6


def test_detection_protocol_endpoints():
    proto = detection_protocol(3)
    assert proto.schedule.final == XXZParams(3, 1.0, 0.0, 0.5)
    assert proto.beta == 100.0
    assert isinstance(proto.initial_spec, ThermalSpec)
    # built once: every read shares one ThermalSpec and so one spectrum
    assert proto.initial_spec is proto.initial_spec
    assert proto.final_spec is proto.final_spec
    proto7 = detection_protocol(7, beta=50.0)
    assert proto7.schedule.final.B == 0.92
    assert proto7.initial_spec.beta == 50.0
    assert detection_protocol(5).schedule.final.B == math.cos(math.pi / 5)
    assert detection_protocol(5, coupling_j=2.0).schedule.final.B == 2.0 * math.cos(math.pi / 5)
    for n in BAD_SIZES:
        with pytest.raises(ValueError, match="from 3 to 12"):
            detection_protocol(n)


BAD_SIZES = (2, 13, True, "7")


@pytest.mark.parametrize("n", range(4, 13))
def test_reference_state_sits_at_the_w_states_entanglement(n):
    # S(W_n || sigma'_n) = -ln p_W, the relative entropy of entanglement of W_n
    value = relative_entropy(build_w_state(n), reference_state(n))
    assert abs(value - (n - 1) * math.log(n / (n - 1))) < 1e-12


def test_reference_state_is_the_paper_choice_at_n_3():
    assert np.array_equal(reference_state(3).entries, build_css(3).entries)


@pytest.mark.parametrize("coupling_j", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", range(3, 13))
def test_w_state_is_the_ground_state_of_the_final_chain(n, coupling_j):
    final = detection_protocol(n, coupling_j=coupling_j).schedule.final
    hamiltonian = build_xxz(final)
    levels = spectral_decompose(hamiltonian).eigenvalues
    w = dicke_state(QubitRegister(n), 1)
    assert abs((w.conj() @ hamiltonian.entries @ w).real - levels[0]) < 1e-12
    # the gap to |0...0> is 2 (J - B); at the window's midpoint
    # B = J cos(pi/n) it equals the gap to the two-excitation band
    gap = 2.0 * (coupling_j - final.B) if n == 7 else 2.0 * coupling_j * (1 - math.cos(math.pi / n))
    assert abs((levels[1] - levels[0]) - gap) < 1e-12 * coupling_j


@pytest.mark.parametrize("n", range(4, 9))
def test_gibbs_state_of_reference_params_is_the_reference_state(n):
    sigma = thermal_state(ThermalSpec(build_xxz(reference_params(n, 100.0)), 100.0))
    # roundoff in the energies, amplified by beta = 100
    assert np.abs(sigma.entries - reference_state(n).entries).max() < 1e-12
    register = QubitRegister(n)
    zeros = np.zeros(register.dim)
    zeros[0] = 1.0
    w = dicke_state(register, 1)
    inside = sum((v.conj() @ sigma.entries @ v).real for v in (zeros, w))
    assert 1.0 - inside < 1e-13


def test_reference_params_need_a_positive_coupling():
    for n in (3, 7):
        for coupling_j in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="J > 0"):
                reference_params(n, 100.0, coupling_j)
    for n in BAD_SIZES:
        with pytest.raises(ValueError, match="from 3 to 12"):
            reference_params(n, 100.0)
        with pytest.raises(ValueError, match="from 3 to 12"):
            reference_state(n)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("beta", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_reference_params_refuse_a_beta_as_a_thermal_spec_does(n, beta):
    # a non-finite beta is refused up front, not as an overflow of the
    # fields or when a spec of the protocol is first read
    with pytest.raises(ValueError) as spec_error:
        ThermalSpec(build_xxz(XXZParams(n, 1.0, 0.0, 0.5)), beta)
    for build in (reference_params, detection_protocol):
        with pytest.raises(ValueError) as error:
            build(n, beta)
        assert str(error.value) == str(spec_error.value)


def test_thermal_s_left_follows_the_coupling():
    # the final field scales with J: at J = 2 the seven-qubit thermal
    # reference reads 6 ln(7/6), where a final field of 0.92 read 81.1
    grid = small_grid(n=7, coupling_j=2.0)
    done = sweep_detection(grid, sweep_reference(7, coupling_j=2.0, thermal=True))
    assert abs(done.s_left - SIX_LN_7_6) < 1e-5


# ---------------------------------------------------------------- evaluation

def test_witness_fires_on_the_w_state():
    rho = build_w_state(3)
    report = witness_evaluate(rho, build_css(3), rho)
    assert report.detected
    assert abs(report.s_right) < 1e-12
    assert abs(report.s_left - LN_9_4) < 1e-9
    assert abs(report.margin - report.s_left) < 1e-12
    assert report.route == "direct"


def test_witness_does_not_fire_on_the_reference_itself():
    sigma = build_css(3)
    report = witness_evaluate(build_w_state(3), sigma, sigma)
    assert not report.detected
    assert abs(report.margin) < 1e-12


def test_witness_soundness_on_product_states(random_product_state):
    # separability of the reference means no product state may ever beat it
    rho = build_w_state(3)
    sigma = build_css(3)
    for seed in range(100):
        candidate = random_product_state(3, seed)
        report = witness_evaluate(rho, sigma, candidate)
        assert not report.detected
        assert report.s_right >= report.s_left - 1e-9


def test_witness_soundness_on_maximally_mixed():
    mixed = DensityMatrix(QubitRegister(3), np.eye(8) / 8)
    report = witness_evaluate(build_w_state(3), build_css(3), mixed)
    assert not report.detected
    assert abs(report.s_right - np.log(8)) < 1e-12


def test_witness_spec_slots_match_dense_slots():
    proto = detection_protocol(3)
    by_spec = witness_evaluate(proto.final_spec, proto.initial_spec, proto.initial_spec)
    by_dense = witness_evaluate(
        thermal_state(proto.final_spec),
        thermal_state(proto.initial_spec),
        thermal_state(proto.initial_spec),
    )
    assert abs(by_spec.s_left - by_dense.s_left) < 1e-9
    assert abs(by_spec.s_right - by_dense.s_right) < 1e-9


def test_witness_via_work_route():
    proto = detection_protocol(3)
    direct = witness_evaluate(proto.final_spec, proto.initial_spec, proto.initial_spec)
    via = witness_evaluate(
        proto.final_spec, proto.initial_spec, proto.initial_spec, route="via_work"
    )
    assert via.route == "via_work"
    assert abs(via.s_left - direct.s_left) < 1e-8
    assert abs(via.s_right - direct.s_right) < 1e-8


def test_witness_via_work_needs_thermal_slots():
    proto = detection_protocol(3)
    with pytest.raises(ConfigError):
        witness_evaluate(
            build_w_state(3), proto.initial_spec, proto.initial_spec, route="via_work"
        )


def test_witness_takes_only_the_library_route_names():
    proto = detection_protocol(3)
    specs = (proto.final_spec, proto.initial_spec, proto.initial_spec)
    for route in ("via-work", "bogus"):
        with pytest.raises(ValueError, match="'via_work'"):
            witness_evaluate(*specs, route=route)
        with pytest.raises(ValueError, match="'via_work'"):
            sweep_detection(small_grid(route=route), sweep_reference(3, thermal=True))


def test_witness_strictness_epsilon(monkeypatch):
    sigma = build_css(3)
    strict = witness_evaluate(build_w_state(3), sigma, sigma)
    assert not strict.detected
    monkeypatch.setattr(entwit.witness, "STRICTNESS_EPSILON", -2.0)
    loose = witness_evaluate(build_w_state(3), sigma, sigma)
    assert loose.detected  # a negative epsilon turns ties into detections
    # near T = 1000, s_right is about S(W_3 || I/8) = ln 8, within 2 of ln(9/4);
    # the real epsilon detects nothing there
    swept = sweep_detection(small_grid(t_axis=GridAxis(1000.0, 1000.0, 1.0)), sweep_reference(3))
    assert swept.detected.all()


def test_witness_double_infinity_is_nan_margin():
    up = pure_state(QubitRegister(1), np.array([1.0, 0.0]))
    down = pure_state(QubitRegister(1), np.array([0.0, 1.0]))
    report = witness_evaluate(up, down, down)
    assert report.s_left == np.inf and report.s_right == np.inf
    assert math.isnan(report.margin)
    assert not report.detected


def test_report_json_dict():
    rho = build_w_state(3)
    payload = witness_evaluate(rho, build_css(3), rho, metadata={"tag": 1}).to_json_dict()
    assert payload["detected"] is True
    assert payload["metadata"] == {"tag": 1}
    assert set(payload) >= {"s_left", "s_right", "margin", "detected", "route"}


# ---------------------------------------------------------------- grids

def test_grid_axis_values():
    axis = GridAxis(0.0, 1.2, 0.02)
    values = axis.values()
    assert len(values) == 61
    assert values[0] == 0.0 and abs(values[-1] - 1.2) < 1e-12
    assert list(GridAxis(0.5, 0.5, 1.0).values()) == [0.5]


def test_grid_axis_validation():
    with pytest.raises(ValueError):
        GridAxis(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        GridAxis(1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        GridAxis(0.0, np.inf, 0.1)


def test_grid_axis_count_matches_its_values():
    for axis in (
        GridAxis(0.0, 1.2, 0.02),
        GridAxis(0.5, 0.5, 1.0),
        GridAxis(0.02, 2.0, 0.02),
        GridAxis(-0.5, 0.5, 0.07),
        GridAxis(0.0, -1e-13, 1.0),  # within the empty-range tolerance: one value
    ):
        assert axis.count == axis.values().size
    # counted, not built: 10^12 values would take 8 TB
    assert GridAxis(0.0, 1.0, 1e-12).count == 10**12 + 1
    with pytest.raises(ValueError, match="too small"):
        GridAxis(-1e308, 1e308, 1e-300)


@pytest.mark.parametrize("axis", ["b_axis", "jz_axis"])
def test_an_axis_without_values_is_refused(axis):
    # max lies below min within the empty-range tolerance, yet below it by
    # 100 steps: the axis would hold no value, and the sweep would end in
    # np.stack (Jz) or a header-only CSV (B)
    with pytest.raises(ValueError, match="holds no value"):
        small_grid(**{axis: GridAxis(0.0, -1e-13, 1e-15)})


def test_sweep_grid_refuses_results_beyond_the_memory_budget(monkeypatch):
    with pytest.raises(ValueError, match="6000000000006 points.*memory budget"):
        small_grid(b_axis=GridAxis(0.0, 1.0, 1e-12))
    # 18 points need SWEEP_POINT_BYTES each
    assert small_grid().point_count == 18
    monkeypatch.setattr(entwit.witness, "memory_budget", lambda: 18 * SWEEP_POINT_BYTES)
    done = sweep_detection(small_grid(), sweep_reference(3))
    assert done.shape == (3, 2, 3)
    monkeypatch.setattr(entwit.witness, "memory_budget", lambda: 18 * SWEEP_POINT_BYTES - 1)
    with pytest.raises(ValueError, match=f"18 points, whose results need about {18 * SWEEP_POINT_BYTES} bytes"):
        small_grid()


def test_sweep_grid_requires_positive_temperature():
    with pytest.raises(ValueError):
        SweepGrid(GridAxis(0, 1, 0.5), GridAxis(0, 1, 0.5), GridAxis(0.0, 1.0, 0.5), n=3)


@pytest.mark.parametrize("route", ["direct", "via_work"])
def test_sweep_grid_requires_a_finite_inverse_temperature(route):
    # 1 / 1e-310 overflows to inf: the direct route read nan and the work
    # route failed deep inside ThermalSpec; the grid now refuses it
    with pytest.raises(ValueError, match="finite 1/T"):
        small_grid(t_axis=GridAxis(1e-310, 1.0, 0.5), route=route)
    assert small_grid(t_axis=GridAxis(1e-300, 1.0, 0.5), route=route).shape == (3, 2, 3)


def small_grid(**overrides):
    kwargs = dict(
        b_axis=GridAxis(0.3, 0.7, 0.2),
        jz_axis=GridAxis(0.0, 0.2, 0.2),
        t_axis=GridAxis(0.01, 0.05, 0.02),
        n=3,
    )
    kwargs.update(overrides)
    return SweepGrid(**kwargs)


# CI's n = 5 grid: its B = 0 column holds degenerate levels of the chain
CI_GRID5 = dict(
    b_axis=GridAxis(0.0, 1.0, 0.25), jz_axis=GridAxis(0.0, 0.5, 0.1), t_axis=GridAxis(0.02, 0.5, 0.12), n=5
)


@pytest.mark.parametrize("axes", [{}, CI_GRID5], ids=["small", "ci5"])
@pytest.mark.parametrize("route", ["direct", "via_work"])
def test_sweep_matches_single_point_evaluations(route, axes):
    # the direct route on the ideal reference; the work route on the thermal
    # one, where each point is the witness's own work route
    grid = small_grid(route=route, **axes)
    reference = sweep_reference(grid.n, thermal=route == "via_work")
    done = sweep_detection(grid, reference)
    assert done.margin.shape == grid.shape
    points = itertools.product(
        enumerate(grid.b_axis.values()),
        enumerate(grid.jz_axis.values()),
        enumerate(grid.t_axis.values()),
    )
    for (i, b), (j, jz), (k, t) in itertools.islice(points, 0, None, 5):
        rho_star = ThermalSpec(build_xxz(XXZParams(grid.n, 1.0, jz, b)), 1.0 / t)
        single = witness_evaluate(reference.rho, reference.sigma_ref, rho_star, route)
        if route == "direct":
            assert abs(done.margin[i, j, k] - single.margin) < 1e-10
        else:
            assert abs(done.s_right[i, j, k] - single.s_right) <= 1e-12 * max(1.0, abs(single.s_right))
        assert done.detected[i, j, k] == single.detected
        assert done.s_left == single.s_left


@pytest.mark.parametrize("thermal", [False, True], ids=["ideal", "thermal"])
@pytest.mark.parametrize("route", ["direct", "via_work"])
def test_sweep_s_left_is_the_witness_s_left_bit_for_bit(route, thermal):
    grid = small_grid(route=route)
    reference = sweep_reference(3, thermal=thermal)
    rho, sigma = reference.rho, reference.sigma_ref
    rho_star = ThermalSpec(build_xxz(XXZParams(3, 1.0, 0.0, 0.5)), 20.0)
    if route == "via_work" and not thermal:
        # both refuse dense reference states on the work route
        with pytest.raises(ConfigError, match="not a ThermalSpec"):
            sweep_detection(grid, reference)
        with pytest.raises(ConfigError, match="not a ThermalSpec"):
            witness_evaluate(rho, sigma, rho_star, route)
        return
    single = witness_evaluate(rho, sigma, rho_star, route)
    assert sweep_detection(grid, reference).s_left == single.s_left


def test_sweep_detects_at_the_reference_point():
    grid = SweepGrid(
        GridAxis(0.5, 0.5, 1.0), GridAxis(0.0, 0.0, 1.0), GridAxis(0.01, 0.01, 1.0), n=3
    )
    done = sweep_detection(grid, sweep_reference(3))
    assert done.detected[0, 0, 0]
    assert abs(done.margin[0, 0, 0] - LN_9_4) < 1e-3


def test_sweep_is_empty_at_high_temperature():
    grid = small_grid(t_axis=GridAxis(1000.0, 2000.0, 500.0))
    done = sweep_detection(grid, sweep_reference(3))
    assert not done.detected.any()


def test_sweep_detected_set_is_single_interval():
    grid = SweepGrid(
        GridAxis(0.5, 0.5, 1.0), GridAxis(0.0, 0.0, 1.0), GridAxis(0.02, 2.0, 0.02), n=3
    )
    done = sweep_detection(grid, sweep_reference(3))
    flags = done.detected.ravel()
    idx = np.flatnonzero(flags)
    assert idx.size > 0
    assert idx[-1] - idx[0] + 1 == idx.size  # contiguous
    assert not flags[-1]  # the boundary sits strictly inside the axis


@pytest.mark.parametrize("entries", [1, 3 * 8 * 3])
def test_sweep_in_runs_of_b_values_matches_one_stack(monkeypatch, entries):
    # 7 B values x 3 T values x 8 states: runs of one B value, then of three
    grid = small_grid(b_axis=GridAxis(0.0, 0.6, 0.1))
    reference = sweep_reference(3)
    whole = sweep_detection(grid, reference)
    monkeypatch.setattr(entwit.witness, "SWEEP_STACK_ENTRIES", entries)
    assert np.array_equal(sweep_detection(grid, reference).s_right, whole.s_right)


def test_sweep_route_equivalence_on_thermal_reference():
    grid = small_grid()
    thermal_ref = sweep_reference(3, thermal=True)
    direct = sweep_detection(grid, thermal_ref)
    via = sweep_detection(dataclasses.replace(grid, route="via_work"), thermal_ref)
    assert np.abs(direct.margin - via.margin).max() < 1e-6


def test_ideal_and_thermal_references_agree_closely():
    grid = small_grid()
    ideal = sweep_detection(grid, sweep_reference(3))
    thermal = sweep_detection(grid, sweep_reference(3, thermal=True))
    assert np.abs(ideal.margin - thermal.margin).max() < 1e-5


@pytest.mark.parametrize(
    "route, thermal, built", [("via_work", True, 0), ("direct", True, 1), ("direct", False, 0)]
)
def test_a_sweep_builds_a_gibbs_state_only_where_one_is_read(monkeypatch, route, thermal, built):
    # the direct plane reads rho's blocks and eigenvalues; s_left and the
    # checksums read the specs, so no other reference state is built, and
    # each spec's blocks are formed once, for its state and its checksum
    specs, checked, formed = [], [], []
    gibbs, check, blocks = entwit.witness.thermal_state, DensityMatrix._check, entwit.thermo.gibbs_blocks
    monkeypatch.setattr(entwit.witness, "thermal_state", lambda spec: specs.append(spec) or gibbs(spec))
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "entwit"]:
        if getattr(module, "gibbs_blocks", None) is blocks:
            monkeypatch.setattr(module, "gibbs_blocks", lambda spec: formed.append(spec) or blocks(spec))
    reference = sweep_reference(3, thermal=thermal)
    monkeypatch.setattr(DensityMatrix, "_check", lambda state: checked.append(state) or check(state))
    done = sweep_detection(small_grid(route=route), reference)
    sweep_metadata(done, reference)
    assert specs == [reference.rho] * built and len(checked) == built
    assert list(map(id, formed)) == ([id(reference.rho), id(reference.sigma_ref)] if thermal else [])


@pytest.mark.parametrize("route", ["direct", "via_work"])
@pytest.mark.parametrize("slot", ["rho", "sigma_ref"])
@pytest.mark.parametrize("grid_n, other_n", [(5, 7), (7, 5)])
def test_a_sweep_refuses_a_reference_on_another_register(monkeypatch, route, slot, grid_n, other_n):
    # an n = 5 grid would gather its sector indices out of an n = 7 state, and
    # an n = 7 grid would index past an n = 5 one: both are refused up front
    thermal = route == "via_work"
    reference = dataclasses.replace(
        sweep_reference(grid_n, thermal=thermal), **{slot: getattr(sweep_reference(other_n, thermal=thermal), slot)}
    )

    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(entwit.witness, "_distances", no_work)
    monkeypatch.setattr(entwit.witness, "_sweep_plane", no_work)
    with pytest.raises(ValueError, match=f"reference {slot} is on {other_n} qubits, the grid on {grid_n}"):
        sweep_detection(small_grid(n=grid_n, route=route), reference)


@pytest.mark.parametrize("route, built", [("via_work", 1), ("direct", 0)])
def test_a_sweep_builds_the_identity_drive_at_most_once(monkeypatch, route, built):
    # the reference leg and each of the six Jz planes read one identity
    registers, identity = [], entwit.witness._identity_unitary
    monkeypatch.setattr(
        entwit.witness, "_identity_unitary", lambda register: registers.append(register) or identity(register)
    )
    done = sweep_detection(small_grid(route=route, jz_axis=GridAxis(0.0, 0.5, 0.1)), sweep_reference(3, thermal=True))
    assert done.s_right.shape[1] == 6 and len(registers) == built


def test_sweep_reference_variants():
    ref = sweep_reference(7)
    assert ref.description
    # the ideal pair is two states; it builds no chain, so it does not depend on J
    assert isinstance(ref.rho, DensityMatrix) and isinstance(ref.sigma_ref, DensityMatrix)
    assert state_checksum(sweep_reference(7, coupling_j=-1.0).sigma_ref) == state_checksum(ref.sigma_ref)
    for n in (3, 4):
        # the thermal pair is the protocol's endpoint specs, as declared
        thermal, protocol = sweep_reference(n, thermal=True), detection_protocol(n)
        assert isinstance(thermal.rho, ThermalSpec) and isinstance(thermal.sigma_ref, ThermalSpec)
        for spec, endpoint in ((thermal.rho, protocol.final_spec), (thermal.sigma_ref, protocol.initial_spec)):
            assert spec.beta == endpoint.beta
            assert np.array_equal(spec.hamiltonian.entries, endpoint.hamiltonian.entries)
    with pytest.raises(ValueError, match="J > 0"):
        sweep_reference(7, coupling_j=-1.0, thermal=True)
    for n in BAD_SIZES:
        with pytest.raises(ValueError, match="from 3 to 12"):
            sweep_reference(n)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=6),
    b_value=st.floats(0.0, 1.0),
    jz_start=st.floats(-0.5, -0.45),
    jz_step=st.floats(0.04, 0.1),
    temperature=st.floats(0.02, 0.5),
)
def test_every_detected_gibbs_state_has_a_negative_partial_transpose(
    n, b_value, jz_start, jz_step, temperature
):
    # the witness rests on S(W_n || sigma_ref) being W_n's relative entropy of
    # entanglement; the Peres criterion checks each detection without it.  A
    # detected state that is PPT on every cut is bound entangled or a bug.
    # Each example crosses the (B, Jz) band where detection happens, which
    # narrows as n grows, along a random Jz axis at one random B and T
    grid = SweepGrid(
        GridAxis(b_value, b_value, 1.0),
        GridAxis(jz_start, 0.5, jz_step),
        GridAxis(temperature, temperature, 1.0),
        n=n,
    )
    done = sweep_detection(grid, sweep_reference(n))
    for jz_value in grid.jz_axis.values()[done.detected[0, :, 0]].tolist():
        params = XXZParams(n, 1.0, jz_value, b_value)
        gibbs = thermal_state(ThermalSpec(dense_xxz(params), 1.0 / temperature))
        smallest = smallest_partial_transpose_eigenvalue(gibbs.entries, n)
        assert smallest < -1e-9, (params, temperature, smallest)


# ---------------------------------------------------------------- output

def test_write_sweep_csv(tmp_path):
    done = sweep_detection(small_grid(), sweep_reference(3))
    path = tmp_path / "sweep.csv"
    write_sweep_csv(done, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["B", "Jz", "T", "s_left", "s_right", "margin", "detected"]
    assert len(rows) == done.point_count + 1
    for row in rows[1:]:
        float(row[3]), float(row[4]), float(row[5])
        assert row[6] in {"true", "false"}


def test_both_infinite_distances_give_nan_margin_and_no_detection(tmp_path):
    report = _finish_report(math.inf, math.inf, "direct", None)
    assert math.isnan(report.margin) and report.detected is False
    grid = small_grid()
    s_right = np.full(grid.shape, math.inf)
    s_right[..., 0] = 1.0
    margin, detected = _decide(math.inf, s_right)
    assert np.isnan(margin[..., 1:]).all() and not detected[..., 1:].any()
    assert (margin[..., 0] == math.inf).all() and detected[..., 0].all()
    done = dataclasses.replace(
        grid, s_left=math.inf, s_right=s_right, margin=margin, detected=detected
    )
    write_sweep_csv(done, tmp_path / "sweep.csv")
    legacy_sweep_csv(done, tmp_path / "legacy.csv")
    assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "legacy.csv").read_bytes()
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[1].endswith(",inf,1,inf,true")
    assert rows[2].endswith(",inf,inf,nan,false")


def assert_matches_legacy_csv(grid, tmp_path):
    write_sweep_csv(grid, tmp_path / "sweep.csv")
    legacy_sweep_csv(grid, tmp_path / "legacy.csv")
    assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "legacy.csv").read_bytes()


@pytest.mark.parametrize(
    "axes",
    [
        # 21 x 11 x 50 = 11,550 points
        (GridAxis(0.0, 1.0, 0.05), GridAxis(0.0, 0.5, 0.05), GridAxis(0.02, 1.0, 0.02)),
        (GridAxis(0.4, 0.4, 1.0), GridAxis(0.1, 0.1, 1.0), GridAxis(0.05, 0.05, 1.0)),
        (GridAxis(0.0, 1.0, 0.1), GridAxis(0.2, 0.2, 1.0), GridAxis(0.02, 0.5, 0.04)),
        (GridAxis(0.0, 1.0, 0.1), GridAxis(-0.5, 0.5, 0.1), GridAxis(0.03, 0.03, 1.0)),
    ],
    ids=["large", "one-point", "one-jz", "one-t"],
)
def test_write_sweep_csv_matches_the_per_report_writer(tmp_path, axes):
    done = sweep_detection(SweepGrid(*axes, n=3), sweep_reference(3))
    if done.point_count > 1:
        assert 0 < done.detected.sum() < done.point_count  # both flags
    assert_matches_legacy_csv(done, tmp_path)


@pytest.mark.parametrize("s_left", [0.0, -0.0, math.inf])
def test_write_sweep_csv_formats_signed_zeros_infinities_and_nans(tmp_path, s_left):
    grid = small_grid()
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1.5, 0.1]
    s_right = np.resize(np.array(specials), grid.shape)
    margin, detected = _decide(s_left, s_right)
    done = dataclasses.replace(grid, s_left=s_left, s_right=s_right, margin=margin, detected=detected)
    assert_matches_legacy_csv(done, tmp_path)
    text = (tmp_path / "sweep.csv").read_text()
    assert ",-0," in text and ",nan," in text and ",-inf," in text


def test_sweep_grid_rejects_misshapen_results():
    with pytest.raises(ValueError, match="shape"):
        small_grid(s_right=np.zeros(3))


def test_state_checksum_properties():
    w = build_w_state(3)
    a = state_checksum(w)
    assert len(a) == 64 and set(a) <= set("0123456789abcdef")
    assert a == state_checksum(build_w_state(3))
    assert a != state_checksum(build_css(3))


def test_sweep_metadata_shape():
    done = sweep_detection(small_grid(), sweep_reference(3))
    meta = sweep_metadata(done, sweep_reference(3))
    assert meta["n"] == 3
    assert meta["points"] == done.point_count
    assert meta["detected_points"] == done.detected.sum()
    assert meta["reference"]["rho_sha256"] == state_checksum(build_w_state(3))
