"""End-to-end checks of the command line entry points, run in process.

Exit code contract: 0 success (witness/sweep: something detected), 1
configuration problems, 2 failed numerical checks, 3 clean run with no
detection.
"""

import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import entwit.cli
from csv_oracle import legacy_sweep_csv, legacy_trajectories_csv
from entwit import (
    QubitRegister,
    ThermalSpec,
    UnitaryOperator,
    XXZParams,
    build_css,
    build_w_state,
    detection_protocol,
    exact_evolution,
    trotter_evolution,
)
from entwit.cli import main
from dense_oracle import dense_chain_pieces, matrix_to_json, xxz_matrix
from entwit.operators import sector_stacks
from entwit.thermo import logsumexp
from entwit.witness import SWEEP_POINT_BYTES
from entwit.work_stats import TRAJECTORY_BYTES

W3 = {"matrix": matrix_to_json(QubitRegister(3), build_w_state(3).entries)}
CSS3 = {"matrix": matrix_to_json(QubitRegister(3), build_css(3).entries)}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_json(tmp_path, name):
    with open(tmp_path / name) as fh:
        return json.load(fh)


def traced_peak(run):
    """Bytes that ``run()`` allocates at its peak, by tracemalloc, and its result."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = run()
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        if not tracing:
            tracemalloc.stop()


def capture(monkeypatch, name):
    """Record every value that ``entwit.cli.<name>`` returns."""
    seen = []
    original = getattr(entwit.cli, name)

    def recorded(*args, **kwargs):
        seen.append(original(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(entwit.cli, name, recorded)
    return seen


# ---------------------------------------------------------------- witness

def test_witness_detects_and_writes_report(tmp_path):
    cfg = write_config(tmp_path, {"protocol": "three-qubit", "rho_star": W3})
    rc = main(["witness", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    report = read_json(tmp_path, "witness_report.json")
    assert report["command"] == "witness"
    assert report["report"]["detected"] is True
    assert abs(report["report"]["s_left"] - np.log(9 / 4)) < 1e-6


def test_witness_exit_three_without_detection(tmp_path):
    cfg = write_config(tmp_path, {"protocol": "three-qubit", "rho_star": CSS3})
    rc = main(["witness", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    assert read_json(tmp_path, "witness_report.json")["report"]["detected"] is False


def test_witness_routes_agree(tmp_path):
    thermal_star = {
        "params": {"n": 3, "J": 1.0, "Jz": 0.497, "B": 0.003},
        "beta": 100.0,
    }
    cfg = write_config(tmp_path, {"protocol": "three-qubit", "rho_star": thermal_star})
    out_a = tmp_path / "direct"
    out_b = tmp_path / "via"
    out_a.mkdir(), out_b.mkdir()
    assert main(["witness", "--config", cfg, "--out", str(out_a)]) in (0, 3)
    assert main(
        ["witness", "--config", cfg, "--out", str(out_b), "--route", "via-work"]
    ) in (0, 3)
    a = read_json(out_a, "witness_report.json")["report"]
    b = read_json(out_b, "witness_report.json")["report"]
    assert abs(a["s_left"] - b["s_left"]) < 1e-8
    assert abs(a["s_right"] - b["s_right"]) < 1e-8


def test_twelve_qubit_work_route_witness(tmp_path):
    # an inline field ramp between two Gibbs states of the XX chain, and a
    # candidate with Jz = 0.1; every spectrum and transition stays in its
    # S^z blocks
    n, beta, beta_star = 12, 100.0, 1.0 / 0.05
    chain = {"n": n, "J": 1.0, "Jz": 0.0}
    cfg = write_config(tmp_path, {
        "protocol": {"initial": {**chain, "B": 1.2}, "final": {**chain, "B": 0.5}, "steps": 40},
        "rho_star": {"params": {"n": n, "J": 1.0, "Jz": 0.1, "B": 0.5}, "temperature": 0.05},
    })
    started = time.perf_counter()
    rc = main(["witness", "--config", cfg, "--route", "via-work", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - started
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"n=12 work-route witness: {elapsed:.1f} s, process peak RSS {peak_mb:.0f} MB")
    report = read_json(tmp_path, "witness_report.json")["report"]

    # Oracle from one eigh per sector of H_f.  H_i = H_f - 0.7 S_z has the
    # same eigenvectors and energies E_f - 0.7 m, and
    # S(rho_f || rho*) = sum p ln p + beta* tr(rho_f H*) + ln Z*.
    pieces = dense_chain_pieces(n)
    h_final = xxz_matrix(XXZParams(n, 1.0, 0.0, 0.5), *pieces)
    h_star = xxz_matrix(XXZParams(n, 1.0, 0.1, 0.5), *pieces)
    e_final, m, star_diagonal = [], [], []
    for indices, blocks in sector_stacks(h_final):
        w, v = np.linalg.eigh(blocks)
        star = h_star[indices[:, :, None], indices[:, None, :]]
        e_final.append(w.ravel())
        m.append(np.repeat(pieces[2][indices[:, 0]], w.shape[-1]))
        star_diagonal.append((v * (star @ v)).sum(axis=-2).ravel())
    e_final, m, star_diagonal = (np.concatenate(x) for x in (e_final, m, star_diagonal))
    e_star = np.concatenate([np.linalg.eigvalsh(b).ravel() for _, b in sector_stacks(h_star)])

    def log_gibbs(energies, b):
        return -b * energies - logsumexp(-b * energies)

    log_p = log_gibbs(e_final, beta)
    p = np.exp(log_p)
    s_left = float(p @ (log_p - log_gibbs(e_final - 0.7 * m, beta)))
    s_right = float(p @ log_p + beta_star * (p @ star_diagonal) + logsumexp(-beta_star * e_star))
    assert report["s_left"] == pytest.approx(s_left, abs=1e-9 * max(1.0, s_left))
    assert report["s_right"] == pytest.approx(s_right, abs=1e-9 * max(1.0, s_right))
    assert report["detected"] == (s_right < s_left - 1e-9)
    assert rc == (0 if report["detected"] else 3)


def test_direct_witness_builds_no_evolution(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the direct route resolved an evolution")

    monkeypatch.setattr("entwit.cli.trotter_evolution", refuse)
    cfg = write_config(
        tmp_path, {"protocol": "three-qubit", "rho_star": W3, "evolution": "trotter"}
    )
    assert main(["witness", "--config", cfg, "--out", str(tmp_path)]) == 0
    # the work route refuses a matrix candidate before it resolves the drive
    assert main(["witness", "--config", cfg, "--out", str(tmp_path), "--route", "via-work"]) == 1
    assert "rho_star: the via-work route needs a declared Gibbs state" in capsys.readouterr().err
    thermal = {"params": {"n": 3, "J": 1.0, "Jz": 0.1, "B": 0.5}, "temperature": 0.05}
    cfg = write_config(
        tmp_path, {"protocol": "three-qubit", "rho_star": thermal, "evolution": "trotter"}
    )
    with pytest.raises(AssertionError, match="resolved an evolution"):
        main(["witness", "--config", cfg, "--out", str(tmp_path), "--route", "via-work"])


def test_witness_rejects_wrong_register(tmp_path, capsys):
    bad = {"matrix": matrix_to_json(QubitRegister(2), np.eye(4) / 4)}
    cfg = write_config(tmp_path, {"protocol": "three-qubit", "rho_star": bad})
    assert main(["witness", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "rho_star" in capsys.readouterr().err


# ---------------------------------------------------------------- sweep

SMALL_GRID = {
    "B": {"min": 0.4, "max": 0.6, "step": 0.2},
    "Jz": {"min": 0.0, "max": 0.0, "step": 1.0},
    "T": {"min": 0.01, "max": 0.05, "step": 0.04},
}


def test_sweep_writes_csv_and_metadata(tmp_path):
    cfg = write_config(tmp_path, {"n": 3, "grid": SMALL_GRID})
    rc = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0  # the low-T corner detects
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "B,Jz,T,s_left,s_right,margin,detected"
    assert len(lines) == 1 + 2 * 1 * 2
    meta = read_json(tmp_path, "sweep_meta.json")
    assert meta["grid"]["n"] == 3
    assert meta["grid"]["points"] == 4
    assert meta["grid"]["detected_points"] >= 1


def test_sweep_exit_three_when_empty(tmp_path):
    hot = {
        "B": {"min": 0.4, "max": 0.4, "step": 1.0},
        "Jz": {"min": 0.0, "max": 0.0, "step": 1.0},
        "T": {"min": 1000.0, "max": 1000.0, "step": 1.0},
    }
    cfg = write_config(tmp_path, {"n": 3, "grid": hot})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_sweep_csv_matches_the_per_report_writer_over_many_jz_values(tmp_path, monkeypatch):
    # six Jz planes on an n = 3 and an n = 7 ring; every file must equal the
    # per-report writer's
    grids = capture(monkeypatch, "sweep_detection")
    grid = {
        "B": {"min": 0.0, "max": 1.0, "step": 0.25},
        "Jz": {"min": 0.0, "max": 0.5, "step": 0.1},
        "T": {"min": 0.02, "max": 0.5, "step": 0.12},
    }
    for n in (3, 7):
        cfg = write_config(tmp_path, {"n": n, "grid": grid}, f"sweep{n}.json")
        out = tmp_path / f"n{n}"
        out.mkdir()
        main(["sweep", "--config", cfg, "--out", str(out)])
        legacy_sweep_csv(grids[-1], out / "legacy.csv")
        assert (out / "sweep.csv").read_bytes() == (out / "legacy.csv").read_bytes()
        assert 0 < grids[-1].detected.sum() < grids[-1].point_count  # both flags


def test_sweep_rejects_zero_step_axis(tmp_path, capsys):
    grid = {**SMALL_GRID, "B": {"min": 0.0, "max": 1.0, "step": 0.0}}
    cfg = write_config(tmp_path, {"n": 3, "grid": grid})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "step" in capsys.readouterr().err


@pytest.mark.parametrize("route", ["direct", "via-work"])
def test_sweep_refuses_a_temperature_without_a_finite_inverse(tmp_path, capsys, monkeypatch, route):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr("entwit.cli.sweep_detection", refuse)
    grid = {**SMALL_GRID, "T": {"min": 1e-310, "max": 1e-310, "step": 1.0}}
    cfg = write_config(tmp_path, {"n": 3, "grid": grid})
    assert main(["sweep", "--route", route, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite 1/T" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_sweep_rejects_unknown_n(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr("entwit.cli.sweep_detection", refuse)
    for n in (2, 13, True, "7"):
        cfg = write_config(tmp_path, {"n": n, "grid": SMALL_GRID})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n=" in err
    assert not (tmp_path / "out").exists()


def test_a_chain_size_that_is_not_an_int_is_refused(tmp_path, capsys):
    star = {"params": {"n": 3.0, "J": 1.0, "Jz": 0.0, "B": 0.5}, "temperature": 0.05}
    for command, payload, reason in (
        ("sweep", {"n": 3.0, "grid": SMALL_GRID}, "n: references take an integer n from 3 to 12, got n=3.0"),
        ("witness", {"protocol": "three-qubit", "rho_star": star}, "n must be an integer, got n=3.0 of type float"),
    ):
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and reason in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["verify", "sample"])
def test_an_inline_schedule_above_twelve_sites_is_a_config_error(tmp_path, capsys, command):
    chain = {"n": 13, "J": 1.0, "Jz": 0.0}
    cfg = write_config(tmp_path, {"protocol": {"initial": {**chain, "B": 1.2}, "final": {**chain, "B": 0.5}}})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n=13" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_sweep_rejects_a_bad_chain_with_the_ideal_reference(tmp_path, capsys):
    # the ideal reference builds no chain, so the grid checks it
    for key, value in (("boundary", "twisted"), ("J", float("nan"))):
        cfg = write_config(tmp_path, {"n": 3, key: value, "grid": SMALL_GRID})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_sweep_refuses_a_grid_whose_results_exceed_memory(tmp_path, capsys, monkeypatch):
    # a 1e-12 step asks for 10^12 B values; the grid is refused before any
    # axis is built, where it once ended in numpy's allocation error
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr("entwit.cli.sweep_detection", refuse)
    grid = {**SMALL_GRID, "B": {"min": 0.0, "max": 1.0, "step": 1e-12}}
    cfg = write_config(tmp_path, {"n": 3, "grid": grid})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "memory budget" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_sweep_peak_per_point_is_within_the_declared_bytes(tmp_path):
    # the sweep-n3-fine grid, 61 B x 13 Jz x 100 T values
    grid = {
        "B": {"min": 0.0, "max": 1.2, "step": 0.02},
        "Jz": {"min": 0.0, "max": 0.96, "step": 0.08},
        "T": {"min": 0.02, "max": 2.0, "step": 0.02},
    }
    cfg = write_config(tmp_path, {"n": 3, "grid": grid})
    peak, rc = traced_peak(lambda: main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]))
    assert rc == 0 and read_json(tmp_path / "out", "sweep_meta.json")["grid"]["points"] == 79_300
    assert peak <= SWEEP_POINT_BYTES * 79_300


@pytest.mark.parametrize("axis", ["B", "Jz"])
def test_sweep_refuses_an_axis_without_values(tmp_path, capsys, axis):
    grid = {**SMALL_GRID, axis: {"min": 0.0, "max": -1e-13, "step": 1e-15}}
    cfg = write_config(tmp_path, {"n": 3, "grid": grid})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"grid.{axis}" in err and "no value" in err
    # the file is named once, not once per layer of the error
    assert err.count(cfg) == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_sweep_runs_every_size_from_three_to_twelve(tmp_path):
    for n in (4, 5):
        cfg = write_config(tmp_path, {"n": n, "grid": SMALL_GRID})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / f"n{n}")]) in (0, 3)
        meta = read_json(tmp_path / f"n{n}", "sweep_meta.json")
        assert meta["grid"]["n"] == n


def test_sweep_refuses_an_open_chain_for_the_reference_protocol(tmp_path, capsys):
    # W_n is the ground state of the periodic ring only, so neither the
    # thermal reference nor the work route exists on an open chain
    for extra, route in (({"reference": "thermal"}, "direct"), ({}, "via-work")):
        cfg = write_config(tmp_path, {"n": 5, "boundary": "open", **extra, "grid": SMALL_GRID})
        out = tmp_path / f"open-{route}"
        assert main(["sweep", "--route", route, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "boundary='open'" in err and "Traceback" not in err
        assert not out.exists()
    # the ideal reference pair does not depend on the chain
    cfg = write_config(tmp_path, {"n": 5, "boundary": "open", "grid": SMALL_GRID})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "ideal")]) in (0, 3)
    assert read_json(tmp_path / "ideal", "sweep_meta.json")["config"]["boundary"] == "open"


def test_sweep_thermal_reference_follows_the_coupling(tmp_path, capsys):
    # at T = 100 the chain's Gibbs state is near-maximally mixed, so
    # separable; with the final field blind to J it read s_left = 81.1
    hot = {**SMALL_GRID, "T": {"min": 100.0, "max": 100.0, "step": 1.0}}
    cfg = write_config(tmp_path, {"n": 7, "J": 2, "reference": "thermal", "grid": hot})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "hot")]) == 3
    with open(tmp_path / "hot" / "sweep.csv") as fh:
        s_left = float(fh.readlines()[1].split(",")[3])
    assert abs(s_left - 6 * np.log(7 / 6)) < 1e-5
    # no chain makes W_n its ground state at J <= 0
    for route in ("direct", "via-work"):
        cfg = write_config(tmp_path, {"n": 7, "J": -1, "reference": "thermal", "grid": hot})
        assert main(["sweep", "--route", route, "--config", cfg, "--out", str(tmp_path / "neg")]) == 1
        assert "J=-1" in capsys.readouterr().err
    # the ideal reference needs no chain
    cfg = write_config(tmp_path, {"n": 3, "J": -1, "grid": SMALL_GRID})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "ideal")]) in (0, 3)


def test_sweep_reference_default_follows_the_route(tmp_path, capsys, monkeypatch):
    # the work route reads declared Gibbs states only: its default is the
    # thermal pair, and an explicit ideal pair is refused before any work
    for route, kind, description in (
        ("direct", "ideal", "ideal reference states"),
        ("via-work", "thermal", "thermal identification at beta=100"),
    ):
        runs = []
        for name, stated in (("default", {}), ("stated", {"reference": kind})):
            cfg = write_config(tmp_path, {"n": 3, **stated, "grid": SMALL_GRID})
            out = tmp_path / f"{route}-{name}"
            assert main(["sweep", "--route", route, "--config", cfg, "--out", str(out)]) in (0, 3)
            runs.append(((out / "sweep.csv").read_bytes(), read_json(out, "sweep_meta.json")["grid"]))
        assert runs[0] == runs[1]
        assert runs[0][1]["reference"]["description"] == description

    def refuse(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr("entwit.cli.sweep_detection", refuse)
    cfg = write_config(tmp_path, {"n": 3, "reference": "ideal", "grid": SMALL_GRID})
    out = tmp_path / "refused"
    assert main(["sweep", "--route", "via-work", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: reference: ") and "'ideal'" in err and "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------- verify

def test_verify_default_protocol_passes(tmp_path, capsys):
    rc = main(["verify", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "jarzynski: pass" in out
    assert "FAIL" not in out
    report = read_json(tmp_path, "verify_report.json")
    assert report["all_passed"] is True
    names = {check["name"] for check in report["checks"]}
    assert {"unitarity", "jarzynski", "tasaki", "protocol_independence"} <= names


def test_verify_diagonalizes_each_hamiltonian_once(tmp_path, decompositions):
    assert main(["verify", "--out", str(tmp_path)]) == 0
    # the two protocol endpoints; the exact evolution diagonalizes no
    # Hamiltonian of its own
    assert len(decompositions) == len(set(decompositions)) == 2


# CI's n = 5 via-work sweep grid: 5 B, 6 Jz and 5 T values
CI_GRID = {
    "B": {"min": 0.0, "max": 1.0, "step": 0.25},
    "Jz": {"min": 0.0, "max": 0.5, "step": 0.1},
    "T": {"min": 0.02, "max": 0.5, "step": 0.12},
}
W3_DRIVEN = {
    "protocol": "three-qubit",
    "evolution": "trotter",
    "rho_star": {"params": {"n": 3, "J": 1, "Jz": 0.1, "B": 0.5}, "temperature": 0.05},
}


@pytest.mark.parametrize(
    "argv, config, built",
    [
        # the Trotter, identity and Haar drives, which the Tasaki average
        # reads again, and the two legs of the witness's work route
        (["verify"], None, 5),
        (["verify"], {"unitary_file": "u.json"}, 6),
        # the reference leg, then one matrix per Jz that every B and T reads
        (["sweep", "--route", "via-work"], {"n": 5, "reference": "thermal", "grid": CI_GRID}, 7),
        (["sample"], {"protocol": "three-qubit", "count": 100}, 1),
        (["witness", "--route", "via-work"], W3_DRIVEN, 2),
    ],
)
def test_each_drive_is_measured_once(tmp_path, monkeypatch, transitions, argv, config, built):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "u.json").write_text(json.dumps(matrix_to_json(QubitRegister(3), np.eye(8))))
    config_args = [] if config is None else ["--config", write_config(tmp_path, config)]
    assert main(argv + config_args + ["--out", str(tmp_path / "out")]) in (0, 3)
    assert len(transitions) == built


def run_fresh(args, **environment):
    """Run ``python args`` in a fresh interpreter that imports this entwit,
    with ``environment`` over this process's variables (None unsets one)."""
    source = str(Path(entwit.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))
    for name, value in environment.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True)


def test_cli_runs_without_scipy(tmp_path):
    # a fresh interpreter: the package must import and verify on numpy alone
    script = (
        "import json, sys\n"
        "import entwit.cli\n"
        "code = entwit.cli.main(['verify', '--out', sys.argv[1]])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    done = run_fresh(["-c", script, str(tmp_path)])
    code, loaded = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    assert read_json(tmp_path, "verify_report.json")["all_passed"] is True
    assert loaded == []


@pytest.mark.parametrize(
    "preset, timeout, threads",
    [({}, None, None), ({"OPENBLAS_THREAD_TIMEOUT": "7", "OPENBLAS_NUM_THREADS": "1"}, "7", "1")],
)
def test_import_sets_the_blas_thread_timeout_before_numpy_loads(preset, timeout, threads):
    # OpenBLAS reads the variable once, when numpy loads it: the probe
    # records its value at the first lookup of numpy; a caller's values win
    timeout = timeout or entwit.BLAS_THREAD_TIMEOUT
    script = (
        "import importlib.abc, json, os, sys\n"
        "seen = []\n"
        "class Probe(importlib.abc.MetaPathFinder):\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy':\n"
        "            seen.append(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
        "sys.meta_path.insert(0, Probe())\n"
        "import entwit\n"
        "print(json.dumps([seen, os.environ.get('OPENBLAS_THREAD_TIMEOUT'), os.environ.get('OPENBLAS_NUM_THREADS')]))\n"
    )
    environment = {"OPENBLAS_THREAD_TIMEOUT": None, "OPENBLAS_NUM_THREADS": None, **preset}
    seen, after, after_threads = json.loads(run_fresh(["-c", script], **environment).stdout.splitlines()[-1])
    assert seen == [timeout] and after == timeout and after_threads == threads


def test_the_blas_thread_timeout_changes_no_output_byte(tmp_path):
    # each command in fresh processes, with the variable unset (entwit's
    # value) and at OpenBLAS's own spin of 2^28 cycles
    sweep = write_config(tmp_path, {"n": 3, "grid": CI_GRID}, "sweep.json")
    sample = write_config(tmp_path, {"protocol": "three-qubit", "count": 40000}, "sample.json")
    commands = {
        "sweep": ["sweep", "--config", sweep],
        "sample": ["sample", "--config", sample, "--seed", "3"],
        "verify": ["verify"],
    }
    for timeout in (None, "28"):
        for name, argv in commands.items():
            out = str(tmp_path / f"{name}-{timeout}")
            run_fresh(["-m", "entwit.cli", *argv, "--out", out], OPENBLAS_THREAD_TIMEOUT=timeout)
    for name in commands:
        default, spinning = tmp_path / f"{name}-None", tmp_path / f"{name}-28"
        files = sorted(path.name for path in default.iterdir())
        assert files and files == sorted(path.name for path in spinning.iterdir())
        for file in files:
            assert (default / file).read_bytes() == (spinning / file).read_bytes(), (name, file)


def test_verify_reads_the_unitary_file_as_it_reads_a_config(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    missing = tmp_path / "missing.json"
    for path, reason in ((missing, "No such file"), (broken, "parse error at line 1"), (tmp_path, "Is a directory")):
        cfg = write_config(tmp_path, {"unitary_file": str(path)})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and reason in err
    # open() would take an int as a file descriptor
    cfg = write_config(tmp_path, {"unitary_file": 0})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "unitary_file: expected a file path" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_the_haar_drive_is_stored_as_the_dense_path_stores_it():
    register = QubitRegister(6)
    u = entwit.cli._haar_unitary(register, 4)
    dense = UnitaryOperator(register, u.entries)
    assert len(u.stacks) == len(dense.stacks) == 1
    assert np.array_equal(u.entries, dense.entries)
    assert u.deviation == dense.deviation


@pytest.mark.parametrize("name, n", [("three-qubit", 3), ("seven-qubit", 7)])
def test_trotter_vs_exact_is_the_dense_maximum_bit_for_bit(tmp_path, name, n):
    cfg = write_config(tmp_path, {"protocol": name})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    (value,) = [c["value"] for c in read_json(tmp_path, "verify_report.json")["checks"] if c["name"] == "trotter_vs_exact"]
    schedule = detection_protocol(n).schedule
    u_mid, u_exact = trotter_evolution(schedule, sampling="midpoint"), exact_evolution(schedule)
    assert value == float(np.abs(u_mid.entries - u_exact.entries).max()) > 0
    # the two products are compared block by block: they share their blocks
    for (mine, _), (theirs, _) in zip(u_mid.stacks, u_exact.stacks, strict=True):
        assert np.array_equal(mine, theirs)


def test_verify_rejects_nonunitary_injection(tmp_path, capsys):
    bad = matrix_to_json(QubitRegister(3), np.eye(8) * 0.5)
    upath = tmp_path / "u.json"
    upath.write_text(json.dumps(bad))
    cfg = write_config(tmp_path, {"unitary_file": str(upath)})
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}: unitary_file: unitarity check failed: ")


# ---------------------------------------------------------------- sample

@pytest.mark.filterwarnings("ignore:thermal identification")
def test_sample_writes_trajectories(tmp_path):
    cfg = write_config(
        tmp_path,
        {"protocol": "three-qubit", "beta": 1.0, "count": 500, "evolution": "identity"},
    )
    rc = main(["sample", "--config", cfg, "--out", str(tmp_path), "--seed", "7"])
    assert rc == 0
    lines = (tmp_path / "trajectories.csv").read_text().splitlines()
    assert lines[0] == "n_index,m_index,energy_initial,energy_final,work,generalized_exponent"
    assert len(lines) == 501
    summary = read_json(tmp_path, "sample_summary.json")
    assert summary["count"] == 500 and summary["seed"] == 7
    assert abs(summary["mean"] - summary["exact"]) < 5 * summary["stderr"]


@pytest.mark.filterwarnings("ignore:thermal identification")
def test_sample_is_deterministic_for_a_seed(tmp_path):
    cfg = write_config(
        tmp_path,
        {"protocol": "three-qubit", "beta": 1.0, "count": 40000, "evolution": "identity"},
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        out.mkdir()
        main(["sample", "--config", cfg, "--out", str(out), "--seed", "3"])
        outs.append([(out / file).read_bytes() for file in ("trajectories.csv", "sample_summary.json")])
    assert outs[0] == outs[1]


def test_a_warning_is_one_stderr_line(tmp_path, capsys):
    # beta times the seven-qubit gap is 1.98 at beta = 10: the run warns, and
    # names no file or source line of the package
    cfg = write_config(tmp_path, {"protocol": "seven-qubit", "beta": 10, "count": 100, "evolution": "identity"})
    assert main(["sample", "--config", cfg, "--out", str(tmp_path), "--seed", "3"]) == 0
    assert capsys.readouterr().err == (
        "warning: thermal identification of the reference pair is only accurate when beta times the "
        "final gap is large; it is 1.98 < ln(1e6) at n=7, beta=10, J=1\n"
    )


@pytest.mark.filterwarnings("ignore:thermal identification")
@pytest.mark.parametrize("n", [7, 9])
def test_trajectories_match_the_per_row_writer(tmp_path, monkeypatch, n):
    # a warm, non-commuting drive reaches hundreds of level pairs, and
    # 34,002 draws end in a partial block; at n = 9 a pair n * dim + m no
    # longer fits one int16
    draws = capture(monkeypatch, "sample_tpm")
    schedule = {
        "initial": {"n": n, "J": 1.0, "Jz": 0.5, "B": 1.2},
        "final": {"n": n, "J": 0.6, "Jz": -0.3, "B": 0.92},
        "steps": 20,
    }
    cfg = write_config(
        tmp_path, {"protocol": schedule, "beta": 0.1, "count": 34002, "evolution": "trotter"}
    )
    main(["sample", "--config", cfg, "--out", str(tmp_path), "--seed", "5"])
    batch, _ = draws[-1]
    legacy_trajectories_csv(batch, tmp_path / "legacy.csv")
    assert (tmp_path / "trajectories.csv").read_bytes() == (tmp_path / "legacy.csv").read_bytes()
    pairs = batch.n_index.astype(np.int64) * 2**n + batch.m_index
    assert np.unique(pairs).size > 500
    assert n == 7 or pairs.max() >= 2**15


def test_sample_rejects_bad_count(tmp_path, capsys):
    cfg = write_config(tmp_path, {"protocol": "three-qubit", "count": -5})
    assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "count" in capsys.readouterr().err


def test_sample_refuses_a_count_beyond_the_memory_budget(tmp_path, capsys, monkeypatch):
    # 10^13 draws need about 10^15 bytes: refused before any spectrum or
    # unitary is built
    def refuse(*args, **kwargs):
        raise AssertionError("the sample started")

    for name in ("trotter_evolution", "exact_evolution", "sample_tpm"):
        monkeypatch.setattr(f"entwit.cli.{name}", refuse)
    monkeypatch.setattr(ThermalSpec, "spectrum", property(refuse))
    cfg = write_config(tmp_path, {"protocol": "three-qubit", "count": 10**13})
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "count" in err and "memory budget" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_sample_count_bound_is_trajectory_bytes_per_draw(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("entwit.cli.memory_budget", lambda: TRAJECTORY_BYTES * 10)
    for count, rc in ((11, 1), (10, 0)):
        cfg = write_config(tmp_path, {"protocol": "three-qubit", "count": count, "evolution": "identity"})
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / f"out{count}")]) == rc
    assert "memory budget" in capsys.readouterr().err
    assert not (tmp_path / "out11").exists() and (tmp_path / "out10" / "trajectories.csv").exists()


def test_sample_peak_per_draw_is_within_the_declared_bytes(tmp_path):
    count = 200_000
    cfg = write_config(tmp_path, {"protocol": "seven-qubit", "count": count})
    peak, rc = traced_peak(lambda: main(["sample", "--config", cfg, "--out", str(tmp_path / "out")]))
    assert rc == 0
    assert peak <= TRAJECTORY_BYTES * count


THREE = {"n": 3, "J": 1.0, "Jz": 0.497, "B": 0.003}


def candidate(**params):
    return {"protocol": "three-qubit", "rho_star": {"params": {**THREE, **params}, "beta": 20.0}}


def schedule(**fields):
    return {"protocol": {"initial": THREE, "final": THREE, **fields}}


def grid(axis, **bounds):
    return {"n": 3, "grid": {**SMALL_GRID, axis: {"min": 0.1, "max": 1.0, "step": 0.5, **bounds}}}


# a config number is a finite int or float and not a bool, and steps an int
NOT_NUMBERS = [
    ("witness", candidate(J="1", Jz=True, B="0.5"), "rho_star.params.J"),
    ("witness", candidate(Jz=True), "rho_star.params.Jz"),
    ("witness", candidate(B=10**400), "rho_star.params.B"),
    ("witness", {**candidate(), "rho_star": {"params": THREE, "temperature": "0.05"}}, "rho_star.temperature"),
    ("sweep", grid("B", min="0"), "grid.B.min"),
    ("sweep", grid("T", min=True), "grid.T.min"),
    ("verify", schedule(t_f="1", steps=True), "protocol.t_f"),
    ("verify", schedule(steps=True), "steps must be a positive integer"),
    ("verify", schedule(steps=40.0), "steps must be a positive integer"),
    ("sample", {**schedule(), "count": 10, "beta": False}, "beta"),
]


@pytest.mark.parametrize("command, payload, key", NOT_NUMBERS)
def test_a_config_value_that_is_not_a_number_is_refused(tmp_path, capsys, command, payload, key):
    cfg = write_config(tmp_path, payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, payload",
    [
        ("witness", {"protocol": "three-qubit", "rho_star": W3, "evolution": "trotter"}),
        ("sample", {"protocol": "three-qubit", "count": 10, "evolution": "trotter"}),
    ],
)
def test_unknown_sampling_rule_is_config_error(tmp_path, capsys, command, payload):
    cfg = write_config(tmp_path, {**payload, "sampling": "bogus"})
    args = [command, "--config", cfg, "--out", str(tmp_path)]
    if command == "witness":
        args += ["--route", "via-work"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "sampling" in err and "bogus" in err


# ---------------------------------------------------------------- errors

THREE_QUBIT_CHAIN = {"n": 3, "J": 1.0, "Jz": 0.497, "B": 0.003}
BETA_CONFIGS = {
    "witness": lambda v: {"protocol": "three-qubit", "beta": v, "rho_star": W3},
    "witness-schedule": lambda v: {
        "protocol": {"initial": THREE_QUBIT_CHAIN, "final": THREE_QUBIT_CHAIN, "steps": 4},
        "beta": v,
        "rho_star": W3,
    },
    "witness-rho_star-beta": lambda v: {
        "protocol": "three-qubit", "rho_star": {"params": THREE_QUBIT_CHAIN, "beta": v}
    },
    "witness-rho_star-temperature": lambda v: {
        "protocol": "three-qubit", "rho_star": {"params": THREE_QUBIT_CHAIN, "temperature": v}
    },
    "sample": lambda v: {"protocol": "three-qubit", "beta": v, "count": 10},
    "verify": lambda v: {"protocol": "three-qubit", "beta": v},
    "sweep": lambda v: {"n": 3, "beta": v, "grid": SMALL_GRID},
}

# beta = 1e-320 overflows the standard protocols' fields and 1/temperature,
# but is a valid inverse temperature for a custom schedule or a candidate
TINY_BETA_IS_VALID = {"witness-schedule", "witness-rho_star-beta"}
INVALID_BETAS = [
    (case, value)
    for case in sorted(BETA_CONFIGS)
    for value in (0.0, -1.0, float("nan"), float("inf"), 1e-320)
    if not (value == 1e-320 and case in TINY_BETA_IS_VALID)
]


@pytest.mark.filterwarnings("ignore:thermal identification")
@pytest.mark.parametrize("case, value", INVALID_BETAS)
def test_an_invalid_inverse_temperature_is_a_config_error(tmp_path, capsys, case, value):
    # json writes NaN and Infinity, and json.load reads them back
    cfg = write_config(tmp_path, BETA_CONFIGS[case](value))
    rc = main([case.split("-")[0], "--config", cfg, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "sample"])
def test_a_negative_seed_is_refused_before_any_work(tmp_path, monkeypatch, capsys, command):
    built = capture(monkeypatch, "_protocol_from_config")
    cfg = write_config(tmp_path, {"protocol": "three-qubit"})
    rc = main([command, "--config", cfg, "--seed", "-1", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "--seed" in err
    assert built == []


@pytest.mark.parametrize(
    "command, payload",
    [("sweep", {"n": 3, "grid": SMALL_GRID}), ("sample", {"protocol": "three-qubit", "count": 100})],
)
def test_a_workers_flag_is_a_usage_error(tmp_path, capsys, command, payload):
    # every sweep plane and sample block runs in the one process
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--workers", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--workers" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("route", ["direct", "via-work"])
def test_an_unknown_evolution_is_a_config_error_on_either_route(tmp_path, capsys, route):
    rho_star = {"params": THREE_QUBIT_CHAIN, "beta": 100.0}
    cfg = write_config(
        tmp_path, {"protocol": "three-qubit", "rho_star": rho_star, "evolution": "bogus"}
    )
    rc = main(["witness", "--config", cfg, "--route", route, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "evolution" in err and "bogus" in err
    assert not (tmp_path / "witness_report.json").exists()


OUTPUTS = {
    "witness": ({"protocol": "three-qubit", "rho_star": W3}, "witness_report.json"),
    "sweep": ({"n": 3, "grid": SMALL_GRID}, "sweep.csv"),
    "verify": ({}, "verify_report.json"),
    "sample": ({"protocol": "three-qubit", "count": 10}, "trajectories.csv"),
}


@pytest.mark.parametrize(
    "below, named, reason",
    [
        ("", "taken", "exists and is not a directory"),
        # a file as the nearest existing ancestor: the message os.makedirs
        # gives, naming the path it would fail on (root ignores permissions)
        ("out", "taken/out", "Not a directory"),
        ("a/b", "taken/a", "Not a directory"),
    ],
)
@pytest.mark.parametrize("command", sorted(OUTPUTS))
def test_an_out_that_is_a_file_is_refused_before_any_work(
    tmp_path, capsys, monkeypatch, command, below, named, reason
):
    def refuse(*args, **kwargs):
        raise AssertionError("the work started")

    for name in ("witness_evaluate", "sweep_detection", "trotter_evolution", "exact_evolution", "sample_tpm"):
        monkeypatch.setattr(f"entwit.cli.{name}", refuse)
    monkeypatch.setattr(ThermalSpec, "spectrum", property(refuse))
    taken = tmp_path / "taken"
    taken.write_text("kept")
    cfg = write_config(tmp_path, OUTPUTS[command][0])
    assert main([command, "--config", cfg, "--out", str(taken / below)]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / named}: {reason}\n"
    assert taken.read_text() == "kept"


@pytest.mark.parametrize("command", sorted(OUTPUTS))
def test_an_out_that_cannot_be_written_is_an_error_line(tmp_path, capsys, command):
    config, first_file = OUTPUTS[command]
    cfg = write_config(tmp_path, config)
    (tmp_path / "file").write_text("")
    blocked = tmp_path / "blocked" / first_file
    blocked.mkdir(parents=True)
    for out, path, reason in (
        (tmp_path / "file" / "out", tmp_path / "file" / "out", "Not a directory"),
        (tmp_path / "blocked", blocked, "Is a directory"),
    ):
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"


def test_missing_config_file(tmp_path, capsys):
    rc = main(["witness", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
    assert rc == 1
    assert "absent.json" in capsys.readouterr().err


def test_config_parse_error_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"protocol": }')
    rc = main(["witness", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_unknown_keys_are_named(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"protocol": "three-qubit", "rho_star": W3, "extra": 1}
    )
    assert main(["witness", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "extra" in capsys.readouterr().err


def test_unknown_subcommand_is_config_error(capsys):
    assert main(["frobnicate"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_import_registers_one_exit_hook():
    # finalization skips the frozen heap for the CLI and every API caller:
    # importing the package registers gc.freeze once, and main adds no hook
    script = (
        "import atexit, gc, importlib, json\n"
        "counts = [atexit._ncallbacks()]\n"
        "import entwit\n"
        "counts.append(atexit._ncallbacks())\n"
        "import entwit.cli\n"
        "for _ in range(2):\n"
        "    assert entwit.cli.main(['frobnicate']) == 1\n"
        "counts.append(atexit._ncallbacks())\n"
        "registered = []\n"
        "atexit.register = registered.append\n"
        "importlib.reload(entwit)\n"
        "print(json.dumps([counts, registered == [gc.freeze]]))\n"
    )
    counts, hook_is_freeze = json.loads(run_fresh(["-c", script]).stdout.splitlines()[-1])
    before, imported, after_main = counts
    assert imported == before + 1 and after_main == imported and hook_is_freeze


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
