"""Reference states, witness evaluation, and the detection sweep.

Frozen oracle values, all derivable by hand from the state definitions:

  S(W_3 || css_3)      = ln(9/4)   = 0.8109302162163288
  S(W_7 || sigma'_7)   = 6 ln(7/6) = 0.9249040789635501
  sigma'_7 weights       (7^7 - 7*6^6)/7^7 and 7*6^6/7^7
  css_3 eigenvalues      {8/27, 12/27, 6/27, 1/27} on the magnetization ladder
"""

import csv
import dataclasses
import itertools
import math

import numpy as np
import pytest

from entwit import (
    ConfigError,
    DensityMatrix,
    GridAxis,
    QubitRegister,
    SweepGrid,
    ThermalSpec,
    XXZParams,
    build_css,
    build_sigma_prime_7,
    build_w_state,
    build_xxz,
    css_thermal_params_3,
    detection_protocol,
    dicke_state,
    pure_state,
    relative_entropy,
    sigma_prime_thermal_params_7,
    state_checksum,
    sweep_detection,
    sweep_metadata,
    sweep_reference,
    symmetric_state,
    thermal_state,
    witness_evaluate,
    write_sweep_csv,
)
from entwit.witness import STRICTNESS_EPSILON, _decide, _finish_report

from csv_oracle import legacy_sweep_csv

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
    sigma = build_sigma_prime_7()
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
    d_prime = relative_entropy(rho, build_sigma_prime_7())
    d_css = relative_entropy(rho, build_css(7))
    assert abs(d_prime - SIX_LN_7_6) < 1e-9
    assert abs(d_prime - d_css) < 1e-6


def test_symmetric_state_dispatch():
    assert np.allclose(symmetric_state("w_state", 4).entries, build_w_state(4).entries)
    assert np.allclose(symmetric_state("css", 4).entries, build_css(4).entries)
    with pytest.raises(ValueError):
        symmetric_state("ghz", 3)
    with pytest.raises(ValueError):
        symmetric_state("sigma_prime", 3)


# ---------------------------------------------------------------- thermal params

def test_css_thermal_params_3_closed_form():
    params = css_thermal_params_3(100.0)
    assert abs(params.B - np.log(2) / 200.0) < 1e-15
    assert abs(params.Jz - (2.0 - np.log(3) / 100.0) / 4.0) < 1e-15
    assert params.n == 3 and params.J == 1.0


def test_sigma_prime_thermal_params_7_closed_form():
    params = sigma_prime_thermal_params_7(100.0)
    assert abs(params.B - 1.0020988987212267) < 1e-15
    assert abs(params.B - (np.log(70993 / 46656) / 200.0 + 1.0)) < 1e-15
    assert params.Jz == 0.0


def test_thermal_params_warn_when_warm():
    with pytest.warns(UserWarning):
        css_thermal_params_3(1.0)
    with pytest.warns(UserWarning):
        sigma_prime_thermal_params_7(5.0)


def test_thermal_identification_3():
    # the engineered Gibbs state reproduces the separable reference distance
    # to better than six significant figures at T = 0.01
    sigma = thermal_state(ThermalSpec(build_xxz(css_thermal_params_3(100.0)), 100.0))
    value = relative_entropy(build_w_state(3), sigma)
    assert abs(value - LN_9_4) / LN_9_4 < 5e-7


def test_thermal_identification_7():
    sigma = thermal_state(
        ThermalSpec(build_xxz(sigma_prime_thermal_params_7(100.0)), 100.0)
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
    with pytest.raises(ValueError):
        detection_protocol(5)


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
        proto.final_spec, proto.initial_spec, proto.initial_spec, route="via-work"
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


def test_witness_strictness_epsilon():
    sigma = build_css(3)
    loose = witness_evaluate(build_w_state(3), sigma, sigma, strictness_epsilon=-1.0)
    assert loose.detected  # a negative epsilon turns ties into detections
    strict = witness_evaluate(build_w_state(3), sigma, sigma)
    assert not strict.detected


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


def test_sweep_grid_requires_positive_temperature():
    with pytest.raises(ValueError):
        SweepGrid(GridAxis(0, 1, 0.5), GridAxis(0, 1, 0.5), GridAxis(0.0, 1.0, 0.5), n=3)


def small_grid(**overrides):
    kwargs = dict(
        b_axis=GridAxis(0.3, 0.7, 0.2),
        jz_axis=GridAxis(0.0, 0.2, 0.2),
        t_axis=GridAxis(0.01, 0.05, 0.02),
        n=3,
    )
    kwargs.update(overrides)
    return SweepGrid(**kwargs)


def test_sweep_matches_single_point_evaluations():
    grid = small_grid()
    reference = sweep_reference(3)
    done = sweep_detection(grid, reference)
    assert done.margin.shape == grid.shape
    points = itertools.product(
        enumerate(grid.b_axis.values()),
        enumerate(grid.jz_axis.values()),
        enumerate(grid.t_axis.values()),
    )
    for (i, b), (j, jz), (k, t) in itertools.islice(points, 0, None, 5):
        h_star = build_xxz(XXZParams(3, 1.0, jz, b))
        single = witness_evaluate(
            reference.rho, reference.sigma_ref, ThermalSpec(h_star, 1.0 / t)
        )
        assert abs(done.margin[i, j, k] - single.margin) < 1e-10
        assert done.detected[i, j, k] == single.detected
        assert done.s_left == single.s_left


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


def test_sweep_worker_determinism():
    grid = small_grid()
    reference = sweep_reference(3)
    one = sweep_detection(grid, reference, workers=1)
    two = sweep_detection(grid, reference, workers=2)
    assert one.s_left == two.s_left
    for name in ("s_right", "margin", "detected"):
        assert np.array_equal(getattr(one, name), getattr(two, name), equal_nan=True)


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


def test_sweep_reference_variants():
    ref = sweep_reference(7)
    assert ref.description
    assert not ref.thermal
    assert sweep_reference(3, thermal=True).thermal
    with pytest.raises(ValueError):
        sweep_reference(4)


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
    report = _finish_report(math.inf, math.inf, "direct", STRICTNESS_EPSILON, None)
    assert math.isnan(report.margin) and report.detected is False
    grid = small_grid()
    s_right = np.full(grid.shape, math.inf)
    s_right[..., 0] = 1.0
    margin, detected = _decide(math.inf, s_right, STRICTNESS_EPSILON)
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
