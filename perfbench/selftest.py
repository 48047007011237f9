"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Makes one genuine output each of ``sweep-n3-fine`` and ``drive-n7``, then
requires the checks to accept those and to reject corrupted copies: a
flipped detection flag, a CSV truncated mid-line and one missing its last
rows, every s_right off by 1e-6 (margins shifted to match, so only the oracle
comparison can notice), and a witness report whose s_right is off by 1e-6.
Exits 1 if any verdict is wrong.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def _rewrite_csv(path: Path, edit) -> None:
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    fields = [row.split(",") for row in rows]
    edit(fields)
    path.write_text("\n".join([header] + [",".join(f) for f in fields]) + "\n", encoding="utf-8")


def _flip_flag(fields) -> None:
    row = fields[len(fields) // 2]
    row[6] = "false" if row[6] == "true" else "true"


def _shift_s_right(fields) -> None:
    for row in fields:
        row[4] = format(float(row[4]) + 1e-6, ".17g")
        row[5] = format(float(row[3]) - float(row[4]), ".17g")


def _truncate_mid_line(path: Path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: int(len(data) * 0.6)])


def _drop_last_rows(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-100]), encoding="utf-8")


def _shift_report(path: Path) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["report"]["s_right"] += 1e-6
    path.write_text(json.dumps(payload), encoding="utf-8")


CASES = {
    "sweep-n3-fine": (
        "sweep.csv",
        {
            "flipped flag": lambda p: _rewrite_csv(p, _flip_flag),
            "truncated mid-line": _truncate_mid_line,
            "last 100 rows missing": _drop_last_rows,
            "s_right off by 1e-6": lambda p: _rewrite_csv(p, _shift_s_right),
        },
    ),
    "drive-n7": ("witness_report.json", {"s_right off by 1e-6": _shift_report}),
}


def _verdict(plan, out: Path, exit_code: int) -> str | None:
    try:
        plan.check(out, exit_code)
    except workloads.CheckFailed as err:
        return str(err)
    return None


def main() -> int:
    wrong = 0
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        work_dir = Path(tmp)
        for name, (file_name, corruptions) in CASES.items():
            plan = workloads.make_plan(name, seed=0, config_dir=work_dir / name / "config")
            sample = run.run_child(plan, work_dir / name / "genuine", traced=False)
            genuine = work_dir / name / "genuine" / "out"
            problem = _verdict(plan, genuine, sample["exit_code"])
            print(f"{name}: genuine output {'accepted' if problem is None else 'REJECTED: ' + problem}")
            wrong += problem is not None
            for label, corrupt in corruptions.items():
                copy = work_dir / name / label.replace(" ", "_")
                shutil.copytree(genuine, copy)
                corrupt(copy / file_name)
                problem = _verdict(plan, copy, sample["exit_code"])
                print(f"{name}: {label}: {'rejected (' + problem + ')' if problem else 'ACCEPTED'}")
                wrong += problem is None
    print("self-test", "passed" if wrong == 0 else f"failed: {wrong} wrong verdicts")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
