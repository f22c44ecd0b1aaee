#!/usr/bin/env python3
# -----------------------------------------------------------------------------
# The data-adaptive bandwidth selector, and why oversmoothing hurts.
#
# The selector compares left- and right-windowed fits at points where the
# regression function should be continuous.  On highly oscillatory designs a
# large bandwidth smooths away local structure, so its discrepancy loss L(b)
# grows and a smaller bandwidth wins; forcing b = b_max instead inflates the
# bias at the cutoff.
# -----------------------------------------------------------------------------

import numpy as np

from geordd import ScalarDgp, estimate_sharp, select_bandwidth

print("=" * 72)
print("1. The loss profile on an oscillatory design (setting IV)")
print("=" * 72)

sample, _ = ScalarDgp(setting="IV", n=1000, seed=3).sample()
search = select_bandwidth(sample)
print(f"bounds: b_min = {search.b_min:.4f}, b_max = {search.b_max:.4f}")
print(f"{'b':>10s}  {'L(b)':>12s}")
for b, loss in zip(search.grid[::3], search.losses[::3]):
    marker = "  <- b*" if b == search.b_star else ""
    print(f"{b:10.4f}  {loss:12.6f}{marker}")
print(f"selected b* = {search.b_star:.4f}")

print()
print("=" * 72)
print("2. Bias at b* versus forced oversmoothing at b_max (30 replications)")
print("=" * 72)

bias_star, bias_max = [], []
for rep in range(30):
    s, truth = ScalarDgp(setting="IV", n=1000, seed=400 + rep).sample()
    sr = select_bandwidth(s)
    bias_star.append(abs(estimate_sharp(s, sr.b_star, sr.b_star).magnitude - truth.length))
    bias_max.append(abs(estimate_sharp(s, sr.b_max, sr.b_max).magnitude - truth.length))
print(f"mean |bias| at b*:    {np.mean(bias_star):.4f}")
print(f"mean |bias| at b_max: {np.mean(bias_max):.4f}")
print(f"oversmoothing inflates the bias by {np.mean(bias_max) / np.mean(bias_star):.1f}x")

print()
print("=" * 72)
print("3. Tie-breaking: exactly linear data selects the smallest candidate")
print("=" * 72)

linear, _ = ScalarDgp(setting="I", sigma=0.0, n=500, seed=9).sample()
sr = select_bandwidth(linear)
print(f"all losses ~ 0 (max = {sr.losses.max():.2e});"
      f" ties break toward small b: b* = {sr.b_star:.4f} = b_min")
