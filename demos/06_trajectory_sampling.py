"""
Monte Carlo estimation of the exponential work average
======================================================

Exact sums over two-point-measurement outcomes become impractical as the
chain grows, so the estimator samples trajectories instead.  This script
watches the estimate converge at the expected 1/sqrt(N) rate and checks the
z-scores stay sane.
"""

import warnings

import numpy as np

from entwit import detection_protocol, sample_tpm, transition_matrix, trotter_evolution

# the standard 3-qubit drive at a moderate temperature, so the work
# distribution is broad enough that sampling actually has to work
warnings.filterwarnings("ignore", message="thermal identification")
beta = 1.0
proto = detection_protocol(3, beta=beta)
# the drive is measured once; every sampling run below reads its matrix at beta
spectra = (proto.initial_spec.spectrum, proto.final_spec.spectrum)
tm = transition_matrix(*spectra, trotter_evolution(proto.schedule))

print("exact <e^{-beta W}> via partition ratio:")
batch, summary = sample_tpm(tm, beta, beta, count=100, seed=1)
print("  ", summary.exact)

print("\nconvergence ladder (seed 1):")
print(f"{'count':>8}  {'mean':>10}  {'stderr':>10}  {'z':>7}")
for count in (100, 1000, 10000, 100000):
    batch, summary = sample_tpm(tm, beta, beta, count=count, seed=1)
    print(
        f"{count:>8}  {summary.mean:>10.6f}  {summary.stderr:>10.6f}  "
        f"{summary.z_score:>7.2f}"
    )

# stderr should fall by ~sqrt(10) per decade
errs = []
for count in (1000, 10000, 100000):
    _, summary = sample_tpm(tm, beta, beta, count=count, seed=1)
    errs.append(summary.stderr)
print("\nstderr ratios per decade:", errs[0] / errs[1], errs[1] / errs[2])
print("sqrt(10) =", np.sqrt(10.0))

# a seed fixes the stream: each 16384-draw block has its own
_, s1 = sample_tpm(tm, beta, beta, count=20000, seed=42)
_, s2 = sample_tpm(tm, beta, beta, count=20000, seed=42)
print("\nseed 42 twice, mean difference:", abs(s1.mean - s2.mean))

# a peek at the raw trajectories
batch, _ = sample_tpm(tm, beta, beta, count=5, seed=0)
print("\nfirst trajectories (n, m, W, exponent):")
for n, m, w, x in zip(batch.n_index, batch.m_index, batch.work, batch.generalized_exponent):
    print(f"  {n}  {m}  {w:+.6f}  {x:+.6f}")

# z-scores across independent seeds: no bias, healthy spread
zs = []
for seed in range(20):
    _, summary = sample_tpm(tm, beta, beta, count=4000, seed=seed)
    zs.append(summary.z_score)
zs = np.array(zs)
print("\nz-scores over 20 seeds: mean", round(zs.mean(), 3), " max |z|", round(np.abs(zs).max(), 2))
