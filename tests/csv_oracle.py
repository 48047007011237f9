"""Row-by-row CSV writers that the columnar writers are checked against.

These are the package's former output paths: ``trajectories.csv`` formatted
one trajectory at a time, and ``sweep.csv`` formatted from one report per
grid point, with the margin and the detection flag decided point by point.
They share no formatting code with ``entwit``.
"""

import math

from entwit.witness import STRICTNESS_EPSILON


def legacy_trajectories_csv(batch, path) -> None:
    # the batch forms each column on every read, so each is read once
    n_index, m_index = batch.n_index, batch.m_index
    energy_initial, energy_final = batch.energy_initial, batch.energy_final
    work, exponent = batch.work, batch.generalized_exponent
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("n_index,m_index,energy_initial,energy_final,work,generalized_exponent\n")
        for i in range(len(batch)):
            handle.write(
                ",".join(
                    [
                        str(int(n_index[i])),
                        str(int(m_index[i])),
                        format(energy_initial[i], ".17g"),
                        format(energy_final[i], ".17g"),
                        format(work[i], ".17g"),
                        format(exponent[i], ".17g"),
                    ]
                )
                + "\n"
            )


def legacy_report(s_left: float, s_right: float, epsilon: float = STRICTNESS_EPSILON) -> dict:
    """The scalar witness rule: both sides infinite gives a NaN margin and no
    detection; otherwise the margin must exceed epsilon."""
    if math.isinf(s_left) and math.isinf(s_right):
        return {"s_left": s_left, "s_right": s_right, "margin": math.nan, "detected": False}
    return {
        "s_left": s_left,
        "s_right": s_right,
        "margin": s_left - s_right,
        "detected": s_right < s_left - epsilon,
    }


def legacy_sweep_csv(grid, path) -> None:
    """One report per point, B-major, from the grid's s_left and s_right."""
    reports = []
    for i, b_value in enumerate(grid.b_axis.values().tolist()):
        for j, jz_value in enumerate(grid.jz_axis.values()):
            for k, temperature in enumerate(grid.t_axis.values()):
                report = legacy_report(float(grid.s_left), float(grid.s_right[i, j, k]))
                report["metadata"] = {"B": b_value, "Jz": float(jz_value), "T": float(temperature)}
                reports.append(report)
    lines = ["B,Jz,T,s_left,s_right,margin,detected"]
    for report in reports:
        meta = report["metadata"]
        lines.append(
            ",".join(
                [
                    format(meta["B"], ".17g"),
                    format(meta["Jz"], ".17g"),
                    format(meta["T"], ".17g"),
                    format(report["s_left"], ".17g"),
                    format(report["s_right"], ".17g"),
                    format(report["margin"], ".17g"),
                    "true" if report["detected"] else "false",
                ]
            )
        )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
