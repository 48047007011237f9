"""End-to-end checks of the command line entry points, run in process.

Exit code contract: 0 success (witness/sweep: something detected), 1
configuration problems, 2 failed numerical checks, 3 clean run with no
detection.
"""

import atexit
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entwit.cli
from csv_oracle import legacy_sweep_csv, legacy_trajectories_csv
from entwit import build_css, build_w_state, matrix_to_json, QubitRegister
from entwit.cli import main

W3 = {"matrix": matrix_to_json(QubitRegister(3), build_w_state(3).entries)}
CSS3 = {"matrix": matrix_to_json(QubitRegister(3), build_css(3).entries)}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_json(tmp_path, name):
    with open(tmp_path / name) as fh:
        return json.load(fh)


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


def test_direct_witness_builds_no_evolution(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the direct route resolved an evolution")

    monkeypatch.setattr("entwit.cli.trotter_evolution", refuse)
    cfg = write_config(
        tmp_path, {"protocol": "three-qubit", "rho_star": W3, "evolution": "trotter"}
    )
    assert main(["witness", "--config", cfg, "--out", str(tmp_path)]) == 0
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


def test_sweep_outputs_are_worker_independent(tmp_path):
    cfg = write_config(tmp_path, {"n": 3, "grid": SMALL_GRID})
    out1 = tmp_path / "w1"
    out2 = tmp_path / "w2"
    out1.mkdir(), out2.mkdir()
    main(["sweep", "--config", cfg, "--out", str(out1), "--workers", "1"])
    main(["sweep", "--config", cfg, "--out", str(out2), "--workers", "2"])
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "sweep_meta.json").read_bytes() == (out2 / "sweep_meta.json").read_bytes()


def test_sweep_csv_is_worker_independent_over_many_jz_tasks(tmp_path, monkeypatch):
    # the sweep hands out one task per Jz value, so this grid reaches the pool;
    # every file must also equal the per-report writer's
    grids = capture(monkeypatch, "sweep_detection")
    grid = {
        "B": {"min": 0.0, "max": 1.0, "step": 0.25},
        "Jz": {"min": 0.0, "max": 0.5, "step": 0.1},
        "T": {"min": 0.02, "max": 0.5, "step": 0.12},
    }
    for n in (3, 7):
        cfg = write_config(tmp_path, {"n": n, "grid": grid}, f"sweep{n}.json")
        outs = [tmp_path / f"n{n}w{w}" for w in (1, 2)]
        for workers, out in zip((1, 2), outs):
            out.mkdir()
            main(["sweep", "--config", cfg, "--out", str(out), "--workers", str(workers)])
            legacy_sweep_csv(grids[-1], out / "legacy.csv")
            assert (out / "sweep.csv").read_bytes() == (out / "legacy.csv").read_bytes()
            assert 0 < grids[-1].detected.sum() < grids[-1].point_count  # both flags
        assert (outs[0] / "sweep.csv").read_bytes() == (outs[1] / "sweep.csv").read_bytes()


def test_sweep_rejects_zero_step_axis(tmp_path, capsys):
    grid = {**SMALL_GRID, "B": {"min": 0.0, "max": 1.0, "step": 0.0}}
    cfg = write_config(tmp_path, {"n": 3, "grid": grid})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "step" in capsys.readouterr().err


def test_sweep_rejects_unknown_n(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n": 4, "grid": SMALL_GRID})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "n" in capsys.readouterr().err


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
    # the two protocol endpoints and the closed-form evolution's mean Hamiltonian
    assert len(decompositions) == len(set(decompositions)) == 3


def test_cli_runs_without_scipy(tmp_path):
    # a fresh interpreter: the package must import and verify on numpy alone
    script = (
        "import json, sys\n"
        "import entwit.cli\n"
        "code = entwit.cli.main(['verify', '--out', sys.argv[1]])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    source = str(Path(entwit.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True, check=True
    )
    code, loaded = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    assert read_json(tmp_path, "verify_report.json")["all_passed"] is True
    assert loaded == []


def test_verify_rejects_nonunitary_injection(tmp_path, capsys):
    bad = matrix_to_json(QubitRegister(3), np.eye(8) * 0.5)
    upath = tmp_path / "u.json"
    upath.write_text(json.dumps(bad))
    cfg = write_config(tmp_path, {"unitary_file": str(upath)})
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "unitarity" in capsys.readouterr().err


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
def test_sample_is_deterministic_across_workers(tmp_path, monkeypatch):
    cfg = write_config(
        tmp_path,
        {"protocol": "three-qubit", "beta": 1.0, "count": 400, "evolution": "identity"},
    )
    outs = []
    for name, extra in [("a", ["--workers", "1"]), ("b", ["--workers", "3"]), ("c", [])]:
        out = tmp_path / name
        out.mkdir()
        if not extra:
            monkeypatch.setenv("ENTWIT_WORKERS", "2")
        main(["sample", "--config", cfg, "--out", str(out), "--seed", "3"] + extra)
        outs.append((out / "trajectories.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.filterwarnings("ignore:thermal identification")
def test_trajectories_match_the_per_row_writer(tmp_path, monkeypatch):
    # a warm, non-commuting seven-qubit drive reaches hundreds of level pairs,
    # and 34,002 draws end in a partial block
    draws = capture(monkeypatch, "sample_tpm")
    schedule = {
        "initial": {"n": 7, "J": 1.0, "Jz": 0.5, "B": 1.2},
        "final": {"n": 7, "J": 0.6, "Jz": -0.3, "B": 0.92},
        "steps": 20,
    }
    cfg = write_config(
        tmp_path, {"protocol": schedule, "beta": 0.1, "count": 34002, "evolution": "trotter"}
    )
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        out.mkdir()
        main(["sample", "--config", cfg, "--out", str(out), "--seed", "5", "--workers", str(workers)])
        batch, _ = draws[-1]
        legacy_trajectories_csv(batch, tmp_path / f"legacy{workers}.csv")
        assert (out / "trajectories.csv").read_bytes() == (tmp_path / f"legacy{workers}.csv").read_bytes()
    assert np.unique(batch.n_index * 128 + batch.m_index).size > 500
    assert (tmp_path / "w1" / "trajectories.csv").read_bytes() == (tmp_path / "w2" / "trajectories.csv").read_bytes()


def test_sample_rejects_bad_worker_env(tmp_path, monkeypatch, capsys):
    cfg = write_config(
        tmp_path, {"protocol": "three-qubit", "count": 10, "evolution": "identity"}
    )
    monkeypatch.setenv("ENTWIT_WORKERS", "lots")
    assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "ENTWIT_WORKERS" in capsys.readouterr().err


def test_sample_rejects_bad_count(tmp_path, capsys):
    cfg = write_config(tmp_path, {"protocol": "three-qubit", "count": -5})
    assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "count" in capsys.readouterr().err


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


def test_main_registers_one_exit_hook(monkeypatch):
    # finalization skips the frozen heap; a second main in one process must
    # not register the hook again
    registered = []
    monkeypatch.setattr(atexit, "register", registered.append)
    entwit.cli._freeze_heap_at_exit.cache_clear()
    assert main(["frobnicate"]) == 1
    assert main(["frobnicate"]) == 1
    assert registered == [gc.freeze]


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
