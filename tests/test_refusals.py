"""Every refusal of the ``entwit`` command, pinned byte for byte.

Each row holds a subcommand's arguments (split as a shell would), the
config it reads and the one stderr line and exit code the run must give.
In the arguments and the line, ``<cfg>`` stands for the config file,
``<out>`` for the default ``--out`` and ``<tmp>`` for the test's directory.
No row writes into ``<tmp>/file``, an existing file that some rows name as
``--out``.  The rows reach every
``raise ConfigError`` of ``entwit.cli`` at least once, on all four
subcommands.  A refusal of the config names the file once, as its first
word, and then the JSON path of the refused value where it sits below the
top level; refusals of the command line, of ``--out`` and of an unreadable
unitary file name no config.  A matrix that fails its numerical check (a
non-unitary unitary file, a state that is not self-adjoint) is a refusal
of the config like any other.
"""

import json
import shlex

import numpy as np
import pytest

import entwit.cli
import entwit.witness
from dense_oracle import matrix_to_json
from entwit import QubitRegister, build_w_state
from entwit.cli import main

PARAMS = {"n": 3, "J": 1, "Jz": 0.1, "B": 0.5}
WITNESS = {"protocol": "three-qubit", "rho_star": {"params": PARAMS, "temperature": 0.05}}
GRID = {
    "B": {"min": 0.0, "max": 1.0, "step": 0.5},
    "Jz": {"min": 0.0, "max": 0.0, "step": 1.0},
    "T": {"min": 0.1, "max": 0.1, "step": 1.0},
}
SWEEP = {"n": 3, "grid": GRID}
SAMPLE = {"protocol": "three-qubit", "count": 1000}
SCHEDULE = {"initial": {"n": 3, "J": 1, "Jz": 0, "B": 0.3}, "final": {"n": 3, "J": 1, "Jz": 0, "B": 0.5}, "steps": 10}
W3 = matrix_to_json(QubitRegister(3), build_w_state(3).entries)
MIXED2 = matrix_to_json(QubitRegister(2), np.eye(4) / 4)
SKEWED3 = matrix_to_json(QubitRegister(3), np.eye(8) / 8 + np.triu(np.full((8, 8), 0.01), 1))
# the sample and sweep budgets, fixed so that their refusals read the same
# on every machine
BUDGET = 2**33


def rho_star(**keys):
    return {**WITNESS, "rho_star": {**WITNESS["rho_star"], **keys}}


def grid(**axes):
    return {**SWEEP, "grid": {**GRID, **axes}}


ROWS = [
    # the command line
    ("usage", "witness", None,
     "error: the following arguments are required: --config", 1),
    ("seed", "sample --config <cfg> --seed -1", SAMPLE,
     "error: argument --seed: expected a non-negative integer, got '-1'", 1),
    # reading the config
    ("missing-file", "witness --config <cfg>", None,
     "error: <cfg>: No such file or directory", 1),
    ("parse-error", "witness --config <cfg>", '{"protocol": }',
     "error: <cfg>: config parse error at line 1, column 14", 1),
    ("not-an-object", "sample --config <cfg>", "[1]",
     "error: <cfg>: top level must be a JSON object", 1),
    # witness
    ("witness-unknown-key", "witness --config <cfg>", {**WITNESS, "extra": 1},
     "error: <cfg>: unknown keys ['extra']", 1),
    ("witness-missing-keys", "witness --config <cfg>", {},
     "error: <cfg>: missing required key 'protocol'", 1),
    ("witness-missing-rho", "witness --config <cfg>", {"protocol": "three-qubit"},
     "error: <cfg>: missing required key 'rho_star'", 1),
    ("witness-beta-number", "witness --config <cfg>", {**WITNESS, "beta": "x"},
     "error: <cfg>: beta: expected a finite number, got 'x'", 1),
    ("witness-beta-zero", "witness --config <cfg>", {**WITNESS, "beta": 0},
     "error: <cfg>: beta: must be a finite positive number, got 0.0", 1),
    ("protocol-name", "witness --config <cfg>", {**WITNESS, "protocol": "five-qubit"},
     "error: <cfg>: protocol: unknown name 'five-qubit'; use 'three-qubit', 'seven-qubit', or a schedule object", 1),
    ("protocol-beta-range", "witness --config <cfg>", {**WITNESS, "beta": 1e-310},
     "error: <cfg>: beta: the reference parameters overflow at beta=1e-310", 1),
    ("protocol-type", "witness --config <cfg>", {**WITNESS, "protocol": 5},
     "error: <cfg>: protocol: expected a name or a schedule object", 1),
    ("schedule-key", "witness --config <cfg>", {**WITNESS, "protocol": {"initial": SCHEDULE["initial"]}},
     "error: <cfg>: protocol: missing required key 'final'", 1),
    ("schedule-steps", "witness --config <cfg>", {**WITNESS, "protocol": {**SCHEDULE, "steps": 0}},
     "error: <cfg>: protocol: steps must be a positive integer, got 0", 1),
    ("schedule-interpolation", "witness --config <cfg>", {**WITNESS, "protocol": {**SCHEDULE, "interpolation": "quench-at-start"}},
     "error: <cfg>: protocol: unknown keys ['interpolation']", 1),
    ("state-type", "witness --config <cfg>", {**WITNESS, "rho_star": 5},
     "error: <cfg>: rho_star: expected an object", 1),
    ("matrix-key", "witness --config <cfg>", {**WITNESS, "rho_star": {"matrix": W3, "x": 1}},
     "error: <cfg>: rho_star: unknown keys ['x']", 1),
    ("matrix-payload", "witness --config <cfg>", {**WITNESS, "rho_star": {"matrix": {"n": 3}}},
     "error: <cfg>: rho_star.matrix: matrix payload missing key 're'", 1),
    ("matrix-register", "witness --config <cfg>", {**WITNESS, "rho_star": {"matrix": MIXED2}},
     "error: <cfg>: rho_star.matrix: state is on 2 qubits, protocol uses 3", 1),
    ("matrix-not-self-adjoint", "witness --config <cfg>", {**WITNESS, "rho_star": {"matrix": SKEWED3}},
     "error: <cfg>: rho_star.matrix: density matrix is not self-adjoint: max |A - A^dag| = 1.000e-02 exceeds 1e-12", 1),
    ("state-params-missing", "witness --config <cfg>", {**WITNESS, "rho_star": {"temperature": 1}},
     "error: <cfg>: rho_star: missing required key 'params'", 1),
    ("state-temperature-and-beta", "witness --config <cfg>", rho_star(beta=1),
     "error: <cfg>: rho_star: give exactly one of 'temperature' or 'beta'", 1),
    ("params-unknown-key", "witness --config <cfg>", rho_star(params={**PARAMS, "K": 1}),
     "error: <cfg>: rho_star.params: unknown keys ['K']", 1),
    ("params-number", "witness --config <cfg>", rho_star(params={**PARAMS, "J": "1"}),
     "error: <cfg>: rho_star.params.J: expected a finite number, got '1'", 1),
    ("params-size", "witness --config <cfg>", rho_star(params={**PARAMS, "n": 4}),
     "error: <cfg>: rho_star.params: chain has 4 sites, protocol uses 3", 1),
    ("temperature-number", "witness --config <cfg>", rho_star(temperature="x"),
     "error: <cfg>: rho_star.temperature: expected a finite number, got 'x'", 1),
    ("temperature-zero", "witness --config <cfg>", rho_star(temperature=0),
     "error: <cfg>: rho_star.temperature: must be positive", 1),
    ("temperature-overflow", "witness --config <cfg>", rho_star(temperature=1e-310),
     "error: <cfg>: rho_star: beta must be a finite number, got inf", 1),
    ("state-beta-number", "witness --config <cfg>", {**WITNESS, "rho_star": {"params": PARAMS, "beta": "x"}},
     "error: <cfg>: rho_star.beta: expected a finite number, got 'x'", 1),
    ("state-beta-negative", "witness --config <cfg>", {**WITNESS, "rho_star": {"params": PARAMS, "beta": -1}},
     "error: <cfg>: rho_star.beta: must be positive", 1),
    ("witness-sigma-ref", "witness --config <cfg>", {**WITNESS, "sigma_ref": {"matrix": W3}},
     "error: <cfg>: unknown keys ['sigma_ref']", 1),
    ("witness-sampling", "witness --config <cfg>", {**WITNESS, "sampling": "right"},
     "error: <cfg>: sampling: expected one of ('left', 'midpoint'), got 'right'", 1),
    ("witness-evolution", "witness --config <cfg> --route via-work", {**WITNESS, "evolution": "magic"},
     "error: <cfg>: evolution: expected one of ('identity', 'exact', 'trotter'), got 'magic'", 1),
    ("via-work-matrix", "witness --config <cfg> --route via-work", {**WITNESS, "rho_star": {"matrix": W3}},
     "error: <cfg>: rho_star: the via-work route needs a declared Gibbs state, got a matrix", 1),
    ("witness-unwritable", "witness --config <cfg> --out <tmp>/blocked", WITNESS,
     "error: <tmp>/blocked/witness_report.json: Is a directory", 1),
    # sweep
    ("sweep-unknown-key", "sweep --config <cfg>", {**SWEEP, "extra": 1},
     "error: <cfg>: unknown keys ['extra']", 1),
    ("sweep-missing-keys", "sweep --config <cfg>", {},
     "error: <cfg>: missing required key 'grid'", 1),
    ("sweep-missing-n", "sweep --config <cfg>", {"grid": GRID},
     "error: <cfg>: missing required key 'n'", 1),
    ("sweep-coupling-number", "sweep --config <cfg>", {**SWEEP, "J": "1"},
     "error: <cfg>: J: expected a finite number, got '1'", 1),
    ("sweep-beta-zero", "sweep --config <cfg>", {**SWEEP, "beta": 0},
     "error: <cfg>: beta: must be positive with a finite 1/beta, got 0.0", 1),
    ("sweep-beta-overflow", "sweep --config <cfg>", {**SWEEP, "beta": 1e-310},
     "error: <cfg>: beta: must be positive with a finite 1/beta, got 1e-310", 1),
    ("sweep-reference-overflow", "sweep --config <cfg>", {**SWEEP, "reference": "thermal", "beta": 6e-309},
     "error: <cfg>: beta: the reference parameters overflow at beta=6e-309", 1),
    ("reference-name", "sweep --config <cfg>", {**SWEEP, "reference": "hot"},
     "error: <cfg>: reference: expected 'ideal' or 'thermal', got 'hot'", 1),
    ("reference-ideal-via-work", "sweep --config <cfg> --route via-work", {**SWEEP, "reference": "ideal"},
     "error: <cfg>: reference: the via-work route needs the thermal reference, got 'ideal'", 1),
    ("grid-type", "sweep --config <cfg>", {**SWEEP, "grid": 5},
     "error: <cfg>: grid: expected an object with axes B, Jz, T", 1),
    ("grid-missing-axis", "sweep --config <cfg>", {**SWEEP, "grid": {"B": GRID["B"], "Jz": GRID["Jz"]}},
     "error: <cfg>: grid: missing required key 'T'", 1),
    ("axis-type", "sweep --config <cfg>", grid(B=1),
     "error: <cfg>: grid.B: expected an object with min, max, step", 1),
    ("axis-missing-keys", "sweep --config <cfg>", grid(Jz={"step": 1.0}),
     "error: <cfg>: grid.Jz: missing required key 'max'", 1),
    ("axis-number", "sweep --config <cfg>", grid(B={"min": "0", "max": 1.0, "step": 0.5}),
     "error: <cfg>: grid.B.min: expected a finite number, got '0'", 1),
    ("axis-step", "sweep --config <cfg>", grid(B={"min": 0.0, "max": 1.0, "step": 0}),
     "error: <cfg>: grid.B: axis step must be positive, got 0.0", 1),
    ("axis-empty", "sweep --config <cfg>", grid(Jz={"min": 0.0, "max": -1e-13, "step": 1e-15}),
     "error: <cfg>: grid.Jz: axis holds no value: maximum -1e-13 < minimum 0.0", 1),
    ("sweep-size-type", "sweep --config <cfg>", {**SWEEP, "n": "3"},
     "error: <cfg>: n: references take an integer n from 3 to 12, got n='3'", 1),
    ("sweep-size-range", "sweep --config <cfg>", {**SWEEP, "n": 13},
     "error: <cfg>: n: references take an integer n from 3 to 12, got n=13", 1),
    ("sweep-boundary", "sweep --config <cfg>", {**SWEEP, "boundary": "twisted"},
     "error: <cfg>: boundary: expected one of ('periodic', 'open'), got 'twisted'", 1),
    ("sweep-temperature-zero", "sweep --config <cfg>", grid(T={"min": 0.0, "max": 0.1, "step": 0.1}),
     "error: <cfg>: grid.T: temperatures must be strictly positive", 1),
    ("sweep-temperature-overflow", "sweep --config <cfg>", grid(T={"min": 1e-310, "max": 1e-310, "step": 1.0}),
     "error: <cfg>: grid.T: temperatures need a finite 1/T, got T=1e-310", 1),
    ("sweep-temperature-overflow-via-work", "sweep --config <cfg> --route via-work", grid(T={"min": 1e-310, "max": 1e-310, "step": 1.0}),
     "error: <cfg>: grid.T: temperatures need a finite 1/T, got T=1e-310", 1),
    ("sweep-memory", "sweep --config <cfg>", grid(B={"min": 0.0, "max": 1.0, "step": 1e-12}),
     "error: <cfg>: grid: the grid has 1000000000001 points, whose results need about 42000000000042 bytes, more than the memory budget of 8589934592 bytes", 1),
    ("sweep-reference-coupling", "sweep --config <cfg>", {**SWEEP, "J": -1, "reference": "thermal"},
     "error: <cfg>: J: the reference protocol needs J > 0, got J=-1.0", 1),
    ("sweep-reference-boundary", "sweep --config <cfg> --route via-work", {**SWEEP, "boundary": "open"},
     "error: <cfg>: boundary: the reference protocol needs the periodic ring, got boundary='open': W_n is not an eigenstate of the open chain", 1),
    ("sweep-out-file", "sweep --config <cfg> --out <tmp>/file", SWEEP,
     "error: <tmp>/file: exists and is not a directory", 1),
    ("sweep-out-below-file", "sweep --config <cfg> --out <tmp>/file/out", SWEEP,
     "error: <tmp>/file/out: Not a directory", 1),
    # verify
    ("verify-unknown-key", "verify --config <cfg>", {"extra": 1},
     "error: <cfg>: unknown keys ['extra']", 1),
    ("verify-beta-number", "verify --config <cfg>", {"beta": "x"},
     "error: <cfg>: beta: expected a finite number, got 'x'", 1),
    ("verify-protocol-name", "verify --config <cfg>", {"protocol": "five-qubit"},
     "error: <cfg>: protocol: unknown name 'five-qubit'; use 'three-qubit', 'seven-qubit', or a schedule object", 1),
    ("verify-schedule-size", "verify --config <cfg>", {"protocol": {**SCHEDULE, "initial": {**SCHEDULE["initial"], "n": 13}}},
     "error: <cfg>: protocol.initial: n=13 exceeds the dense-storage ceiling of 12 qubits", 1),
    ("verify-duration-number", "verify --config <cfg>", {"protocol": {**SCHEDULE, "t_f": "1"}},
     "error: <cfg>: protocol.t_f: expected a finite number, got '1'", 1),
    ("unitary-path-type", "verify --config <cfg>", {"unitary_file": 0},
     "error: <cfg>: unitary_file: expected a file path, got 0", 1),
    ("unitary-path-null", "verify --config <cfg>", {"unitary_file": None},
     "error: <cfg>: unitary_file: expected a file path, got None", 1),
    ("unitary-missing", "verify --config <cfg>", {"unitary_file": "<tmp>/missing.json"},
     "error: <tmp>/missing.json: No such file or directory", 1),
    ("unitary-parse-error", "verify --config <cfg>", {"unitary_file": "<tmp>/broken.json"},
     "error: <tmp>/broken.json: config parse error at line 1, column 2", 1),
    ("unitary-directory", "verify --config <cfg>", {"unitary_file": "<tmp>"},
     "error: <tmp>: Is a directory", 1),
    ("unitary-payload", "verify --config <cfg>", {"unitary_file": "<tmp>/notmatrix.json"},
     "error: <cfg>: unitary_file: matrix payload missing key 'n'", 1),
    ("unitary-register", "verify --config <cfg>", {"unitary_file": "<tmp>/unitary2.json"},
     "error: <cfg>: unitary_file: unitary is on 2 qubits, protocol uses 3", 1),
    ("unitary-not-unitary", "verify --config <cfg>", {"unitary_file": "<tmp>/scaled.json"},
     "error: <cfg>: unitary_file: unitarity check failed: max |U^dag U - I| = 3.000e+00 exceeds 1e-10", 1),
    ("verify-out-file", "verify --out <tmp>/file", None,
     "error: <tmp>/file: exists and is not a directory", 1),
    # sample
    ("sample-unknown-key", "sample --config <cfg>", {**SAMPLE, "extra": 1},
     "error: <cfg>: unknown keys ['extra']", 1),
    ("sample-missing-protocol", "sample --config <cfg>", {},
     "error: <cfg>: missing required key 'protocol'", 1),
    ("sample-beta-zero", "sample --config <cfg>", {**SAMPLE, "beta": 0},
     "error: <cfg>: beta: must be a finite positive number, got 0.0", 1),
    ("count-zero", "sample --config <cfg>", {**SAMPLE, "count": 0},
     "error: <cfg>: count: expected a positive integer, got 0", 1),
    ("count-bool", "sample --config <cfg>", {**SAMPLE, "count": True},
     "error: <cfg>: count: expected a positive integer, got True", 1),
    ("count-memory", "sample --config <cfg>", {**SAMPLE, "count": 10**13},
     "error: <cfg>: count: 10000000000000 draws need about 260000000000000 bytes, more than the memory budget of 8589934592 bytes", 1),
    ("sample-sampling", "sample --config <cfg>", {**SAMPLE, "sampling": "right"},
     "error: <cfg>: sampling: expected one of ('left', 'midpoint'), got 'right'", 1),
    ("sample-evolution", "sample --config <cfg>", {**SAMPLE, "evolution": "magic"},
     "error: <cfg>: evolution: expected one of ('identity', 'exact', 'trotter'), got 'magic'", 1),
    ("sample-schedule-size", "sample --config <cfg>", {"protocol": {**SCHEDULE, "initial": {**SCHEDULE["initial"], "n": 13}}},
     "error: <cfg>: protocol.initial: n=13 exceeds the dense-storage ceiling of 12 qubits", 1),
    ("sample-out-file", "sample --config <cfg> --out <tmp>/file", SAMPLE,
     "error: <tmp>/file: exists and is not a directory", 1),
    ("sample-out-empty", "sample --config <cfg> --out ''", SAMPLE,
     "error: argument --out: expected a directory path, got ''", 1),
]


def write_files(tmp_path):
    """The files the rows name besides their config."""
    (tmp_path / "file").write_text("")
    (tmp_path / "blocked" / "witness_report.json").mkdir(parents=True)
    (tmp_path / "broken.json").write_text("{")
    (tmp_path / "notmatrix.json").write_text('{"x": 1}')
    (tmp_path / "unitary2.json").write_text(json.dumps(matrix_to_json(QubitRegister(2), np.eye(4))))
    (tmp_path / "scaled.json").write_text(json.dumps(matrix_to_json(QubitRegister(3), 2 * np.eye(8))))


@pytest.mark.filterwarnings("ignore:thermal identification:UserWarning")
@pytest.mark.parametrize("argv, config, expected, code", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_each_refusal_is_one_line_naming_the_config_once(tmp_path, capsys, monkeypatch, argv, config, expected, code):
    monkeypatch.setattr(entwit.cli, "memory_budget", lambda: BUDGET)
    monkeypatch.setattr(entwit.witness, "memory_budget", lambda: BUDGET)
    write_files(tmp_path)
    cfg = str(tmp_path / "config.json")
    if config is not None:
        text = config if isinstance(config, str) else json.dumps(config).replace("<tmp>", str(tmp_path))
        (tmp_path / "config.json").write_text(text)
    words = shlex.split(argv) + ([] if "--out" in argv else ["--out", "<out>"])
    places = {"<cfg>": cfg, "<out>": str(tmp_path / "out"), "<tmp>": str(tmp_path)}

    def fill(text):
        for place, value in places.items():
            text = text.replace(place, value)
        return text

    assert main([fill(word) for word in words]) == code
    err = capsys.readouterr().err
    assert err == fill(expected) + "\n"
    # named once, as the refusal's first word, or not at all
    assert err.count(cfg) == (1 if expected.startswith("error: <cfg>: ") else 0)
    assert not (tmp_path / "out").exists()
    assert (tmp_path / "file").read_text() == ""
