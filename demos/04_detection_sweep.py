"""
Mapping the detection region of a spin chain
============================================

Sweep the chain's field, anisotropy and temperature, test the thermal state
at every grid point, and look at where detection survives.  Ends by writing
the same CSV/metadata pair the command-line tool produces.
"""

import os
import tempfile

import numpy as np

from entwit import (
    GridAxis,
    SweepGrid,
    sweep_detection,
    sweep_metadata,
    sweep_reference,
    write_sweep_csv,
)

reference = sweep_reference(3)
print("reference:", reference.description)

# a modest grid around the known detection pocket
grid = SweepGrid(
    b_axis=GridAxis(0.0, 1.0, 0.1),
    jz_axis=GridAxis(0.0, 0.6, 0.1),
    t_axis=GridAxis(0.01, 2.01, 0.05),
    n=3,
)
grid = sweep_detection(grid, reference)
# results are columns: s_left is one number, and s_right, margin and
# detected are arrays indexed [B, Jz, T]
print(f"{grid.point_count} grid points, {int(grid.detected.sum())} detections")
print("best margin:", np.nanmax(grid.margin))

# detection lives at low temperature; scan one (B, Jz) column in T
b_values = grid.b_axis.values()
t_values = grid.t_axis.values()
detected = grid.detected

column = detected[5, 0]  # B = 0.5, Jz = 0.0
edge = np.argmin(column) if not column.all() else len(t_values)
print(f"\nB=0.5, Jz=0.0 column: detected up to T = {t_values[edge - 1]:.2f}, lost above")

# boundary temperature for each field value at Jz = 0
print("\ndetection boundary T*(B) at Jz = 0:")
for i, b in enumerate(b_values):
    col = detected[i, 0]
    if not col[0]:
        print(f"  B = {b:.1f}: no detection")
        continue
    edge = np.argmin(col) if not col.all() else len(t_values)
    print(f"  B = {b:.1f}: T* ~ {t_values[edge - 1]:.2f}")

# very hot grids are empty
hot = SweepGrid(
    b_axis=GridAxis(0.0, 1.0, 0.25),
    jz_axis=GridAxis(0.0, 0.5, 0.25),
    t_axis=GridAxis(1000.0, 3000.0, 1000.0),
    n=3,
)
hot = sweep_detection(hot, reference)
print("\nhot grid detections:", int(hot.detected.sum()))

# the witness's reach on the J = 1 ring with the ideal reference: over the
# README's 825-point grid its detections fall fast with n, though most of
# these Gibbs states have a negative partial transpose (README table)
print("\ndetections on 825 points (B 0..1, Jz -0.5..0.5, T 0.02..1.0):")
for n in range(3, 7):
    reach = SweepGrid(GridAxis(0.0, 1.0, 0.1), GridAxis(-0.5, 0.5, 0.25), GridAxis(0.02, 1.0, 0.07), n=n)
    reach = sweep_detection(reach, sweep_reference(n))
    print(f"  n = {n}: {int(reach.detected.sum())} of {reach.point_count}")

# persist results the same way the CLI does
out = tempfile.mkdtemp()
csv_path = os.path.join(out, "sweep.csv")
write_sweep_csv(grid, csv_path)
meta = sweep_metadata(grid, reference)
print("\nwrote", csv_path)
with open(csv_path) as fh:
    lines = fh.readlines()
print("header:", lines[0].strip())
print("rows  :", len(lines) - 1)
print("metadata detected_points:", meta["detected_points"])
