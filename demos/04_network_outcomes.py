#!/usr/bin/env python3
# -----------------------------------------------------------------------------
# Network-valued outcomes: estimating a structural break in random graphs.
#
# Outcomes are graph Laplacians from a weighted stochastic block model whose
# edge-weight law jumps at the cutoff.  The population truth is available in
# closed form (expected Laplacians on both sides), so we can measure the
# quotient-metric bias directly and watch it shrink with the sample size.
# -----------------------------------------------------------------------------

from geordd import (
    NetworkDgp,
    estimate_sharp,
    quotient_distance,
    run_campaign,
    select_bandwidth,
)

print("=" * 72)
print("1. One draw: estimate vs closed-form truth")
print("=" * 72)

dgp = NetworkDgp(n=500, seed=11)
sample, truth = dgp.sample()  # the draw and its closed-form truth
print(f"true effect length (Frobenius): {truth.length:.4f}")
search = select_bandwidth(sample)
est = estimate_sharp(sample, search.b_star, search.b_star, reference=truth.reference)
print(f"estimated effect length:        {est.magnitude:.4f}  (b* = {search.b_star:.3f})")
bias = quotient_distance(est.effect, truth, truth.reference)
print(f"quotient-metric bias:           {bias:.4f}")

print()
print("=" * 72)
print("2. A small campaign: bias decreases with n")
print("=" * 72)

result = run_campaign(dgp, sizes=[100, 200, 500], reps=20, seed=5)
for n, bias in result.bias_by_size().items():
    print(f"  n = {n:5d}: mean quotient bias = {bias:.3f}")
print(f"log-log rate slope: {result.rate_fit.slope:.3f}"
      f"  (theoretical benchmark: -0.4)")
print(f"bandwidth fallbacks in small samples: "
      f"{result.metadata['n_bandwidth_fallbacks']}")
