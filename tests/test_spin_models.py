"""Chain Hamiltonian construction and driving schedules."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwit import (
    ConfigError,
    DrivingSchedule,
    GridAxis,
    QubitRegister,
    ThermalSpec,
    XXZParams,
    build_xxz,
    build_w_state,
    schedule_from_config,
    split_chain,
    xxz_params_from_config,
)
from dense_oracle import dense_chain_pieces, embed_operator
from entwit.spin_models import params_at
from entwit.work_stats import schedule_coefficients

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)


def bond_term(reg, l, m, J, Jz):
    xx = embed_operator(reg, np.kron(SX, SX), (l, m))
    yy = embed_operator(reg, np.kron(SY, SY), (l, m))
    zz = embed_operator(reg, np.kron(SZ, SZ), (l, m))
    return -0.5 * J * (xx + yy) - Jz * zz


def test_two_site_open_closed_form():
    params = XXZParams(2, J=1.3, Jz=0.4, B=0.25, boundary="open")
    reg = QubitRegister(2)
    expected = bond_term(reg, 1, 2, 1.3, 0.4)
    expected -= 0.25 * np.diag(dense_chain_pieces(2, "open")[2])
    assert np.max(np.abs(build_xxz(params).entries - expected)) < 1e-14


def test_periodic_adds_wrap_bond():
    open_h = build_xxz(XXZParams(3, J=0.9, Jz=0.2, B=0.0, boundary="open"))
    per_h = build_xxz(XXZParams(3, J=0.9, Jz=0.2, B=0.0, boundary="periodic"))
    wrap = bond_term(QubitRegister(3), 3, 1, 0.9, 0.2)
    assert np.max(np.abs(per_h.entries - open_h.entries - wrap)) < 1e-14


def test_two_site_periodic_doubles_the_bond():
    # on two sites the wrap bond coincides with the open bond
    open_h = build_xxz(XXZParams(2, J=1.0, Jz=0.3, B=0.0, boundary="open"))
    per_h = build_xxz(XXZParams(2, J=1.0, Jz=0.3, B=0.0, boundary="periodic"))
    assert np.max(np.abs(per_h.entries - 2 * open_h.entries)) < 1e-14


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_magnetization_is_conserved(boundary):
    h = build_xxz(XXZParams(4, J=1.0, Jz=0.7, B=0.31, boundary=boundary))
    sz = np.diag(dense_chain_pieces(4, boundary)[2])
    comm = h.entries @ sz - sz @ h.entries
    assert np.max(np.abs(comm)) < 1e-12


def test_w_state_is_ground_state_of_final_hamiltonian():
    # at Jz = 0 with a moderate field the one-flip sector wins and the
    # symmetric combination is the ground state
    h = build_xxz(XXZParams(3, J=1.0, Jz=0.0, B=0.5))
    vals, vecs = np.linalg.eigh(h.entries)
    w = build_w_state(3)
    overlap = vecs[:, 0].conj() @ w.entries @ vecs[:, 0]
    assert abs(overlap.real - 1.0) < 1e-12
    assert abs(vals[0] - (-2.5)) < 1e-12  # -2J - B(n-2)


def test_w7_ground_energy():
    h = build_xxz(XXZParams(7, J=1.0, Jz=0.0, B=0.92))
    vals = np.linalg.eigvalsh(h.entries)
    assert abs(vals[0] - (-2.0 - 0.92 * 5)) < 1e-12


# ---------------------------------------------------------------- schedules

def make_schedule(steps=10):
    return DrivingSchedule(
        XXZParams(3, J=1.0, Jz=0.5, B=0.0),
        XXZParams(3, J=1.0, Jz=0.0, B=0.5),
        t_f=2.0,
        steps=steps,
    )


def test_params_at_endpoints_and_midpoint():
    sched = make_schedule()
    assert params_at(sched, 0.0) == sched.initial
    assert params_at(sched, 2.0) == sched.final
    mid = params_at(sched, 1.0)
    assert abs(mid.Jz - 0.25) < 1e-15 and abs(mid.B - 0.25) < 1e-15


def test_params_at_rejects_out_of_range():
    sched = make_schedule()
    with pytest.raises(ValueError):
        params_at(sched, -0.1)
    with pytest.raises(ValueError):
        params_at(sched, 2.1)


def test_left_sampling_uses_left_endpoint():
    # slice k of a left-sampled product carries (J, Jz, -B) at t = k dt
    sched = make_schedule(steps=4)
    rows = schedule_coefficients(sched, "left")
    for step, t in ((0, 0.0), (3, 1.5)):
        params = params_at(sched, t)
        assert np.array_equal(rows[step], [params.J, params.Jz, -params.B])


values = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    ramp=st.lists(values, min_size=6, max_size=6),
    t_f=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=10.0)),
    steps=st.integers(1, 400),
    sampling=st.sampled_from(["left", "midpoint"]),
)
def test_coefficient_table_is_the_per_step_params_at_table(ramp, t_f, steps, sampling):
    sched = DrivingSchedule(XXZParams(3, *ramp[:3]), XXZParams(3, *ramp[3:]), t_f, steps)
    offset = 0.0 if sampling == "left" else 0.5
    want = []
    for step in range(steps):
        params = params_at(sched, min((step + offset) * sched.dt, t_f))
        want.append((params.J, params.Jz, -params.B))
    assert np.array_equal(schedule_coefficients(sched, sampling), np.array(want))


def test_schedule_rejects_mismatched_registers():
    with pytest.raises(ValueError):
        DrivingSchedule(XXZParams(2, 1.0, 0.0, 0.0), XXZParams(3, 1.0, 0.0, 0.0))


def test_schedule_rejects_mixed_boundaries():
    with pytest.raises(ValueError):
        DrivingSchedule(
            XXZParams(3, 1.0, 0.0, 0.0, boundary="open"),
            XXZParams(3, 1.0, 0.0, 0.0, boundary="periodic"),
        )


@pytest.mark.parametrize("bad", [True, "1"])
@pytest.mark.parametrize(
    "build",
    [
        lambda x: XXZParams(3, J=x, Jz=0.0, B=0.0),
        lambda x: GridAxis(x, 1.0, 0.5),
        lambda x: ThermalSpec(build_xxz(XXZParams(3, 1.0, 0.0, 0.5)), x),
        lambda x: split_chain(XXZParams(4, 1.0, 0.2, 0.5), (1, 2), x),
        lambda x: DrivingSchedule(XXZParams(3, 1.0, 0.0, 0.0), XXZParams(3, 1.0, 0.0, 0.5), x, 10),
    ],
    ids=["XXZParams.J", "GridAxis.minimum", "ThermalSpec.beta", "CompositeSystem.beta", "DrivingSchedule.t_f"],
)
def test_parameter_classes_refuse_booleans_and_strings(build, bad):
    # the one number rule of config files: a finite int or float, not a bool
    with pytest.raises(ValueError):
        build(bad)


@pytest.mark.parametrize("n", [np.int64(7), 3.0, True, "3"], ids=["int64", "float", "bool", "str"])
def test_chain_size_must_be_an_int_before_it_is_a_size(n):
    message = f"n must be an integer, got n={n!r} of type {type(n).__name__}"
    with pytest.raises(ValueError, match=re.escape(message)):
        XXZParams(n, 1.0, 0.0, 0.0)


def test_chain_size_below_two_is_a_size_problem():
    with pytest.raises(ValueError, match="at least two sites"):
        XXZParams(1, 1.0, 0.0, 0.0)


# ---------------------------------------------------------------- config

def test_params_from_config_round_trip():
    payload = {"n": 3, "J": 1.0, "Jz": 0.25, "B": 0.1, "boundary": "open"}
    params = xxz_params_from_config(payload)
    assert params == XXZParams(3, 1.0, 0.25, 0.1, boundary="open")


def test_params_from_config_unknown_key_names_path():
    payload = {"n": 3, "J": 1.0, "Jz": 0.25, "B": 0.1, "typo": 1}
    with pytest.raises(ConfigError, match="params"):
        xxz_params_from_config(payload)


def test_params_from_config_missing_key():
    with pytest.raises(ConfigError, match="Jz"):
        xxz_params_from_config({"n": 3, "J": 1.0, "B": 0.1})


def test_params_from_config_bad_boundary():
    payload = {"n": 3, "J": 1.0, "Jz": 0.0, "B": 0.0, "boundary": "twisted"}
    with pytest.raises(ConfigError):
        xxz_params_from_config(payload)


def test_schedule_from_config():
    payload = {
        "initial": {"n": 2, "J": 1.0, "Jz": 0.5, "B": 0.0},
        "final": {"n": 2, "J": 1.0, "Jz": 0.0, "B": 0.5},
        "t_f": 0.5,
        "steps": 16,
    }
    sched = schedule_from_config(payload)
    assert sched.steps == 16 and sched.t_f == 0.5
    with pytest.raises(ConfigError, match="schedule"):
        schedule_from_config({**payload, "oops": True})
