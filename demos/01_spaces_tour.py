#!/usr/bin/env python3
# -----------------------------------------------------------------------------
# Tour of the outcome geometries: distances, geodesics, transports, and the
# quotient metric that compares treatment effects.
#
# Every estimator in this package is built from four primitives that each
# space provides:
#   * distance(a, b)         - the metric
#   * geodesic(a, b, t)      - the constant-speed path from a to b
#   * transport(a, b, w)     - move w by "the same displacement" as a -> b
#   * embed / inverse_embed  - isometric Hilbert coordinates (where they exist)
# -----------------------------------------------------------------------------

import numpy as np

from geordd import (
    CompositionalSphere,
    Euclidean,
    FunctionalL2,
    GeodesicEffect,
    NetworkLaplacian,
    SpdSpace,
    Wasserstein1D,
    quotient_distance,
)
from geordd.spaces.network import laplacian_from_weights

print("=" * 72)
print("1. Functional outcomes: L2 curves on a shared grid")
print("=" * 72)

l2 = FunctionalL2(n_grid=24, domain=(0.0, 24.0))  # e.g. hourly daily curves
grid = l2.grid
morning_peak = l2.point(1.0 + 0.8 * np.exp(-0.5 * ((grid - 8) / 2) ** 2))
flat_day = l2.point(np.full(24, 1.0))
print(f"distance(morning peak, flat day) = {l2.distance(morning_peak, flat_day):.4f}")
mid = l2.geodesic(morning_peak, flat_day, 0.5)
print(f"midpoint curve range: [{mid.data.min():.3f}, {mid.data.max():.3f}]")

print()
print("=" * 72)
print("2. Compositional outcomes: vote shares on the sphere orthant")
print("=" * 72)

sphere = CompositionalSphere(3)
# square-root map sends shares to the unit sphere; distances are arc lengths
lost = CompositionalSphere.from_shares([0.440, 0.364, 0.196])
won = CompositionalSphere.from_shares([0.452, 0.374, 0.174])
print(f"shares {np.round(sphere.to_shares(lost), 3)} vs {np.round(sphere.to_shares(won), 3)}")
print(f"arc-length distance = {sphere.distance(lost, won):.4f}")
v = sphere.log_map(lost, won)
print(f"log-map norm matches distance: {np.linalg.norm(v):.4f}")
print(f"exp(log) roundtrip error: {sphere.distance(sphere.exp_map(lost, v), won):.2e}")

print()
print("=" * 72)
print("3. Networks as graph Laplacians (flat Frobenius geometry)")
print("=" * 72)

net = NetworkLaplacian(4, max_weight=3.0)
w1 = np.zeros((4, 4)); w1[0, 1] = w1[1, 0] = 1.0; w1[2, 3] = w1[3, 2] = 0.5
w2 = w1 + 0.8 * (np.ones((4, 4)) - np.eye(4)) * 0.2
l_a, l_b = net.point(laplacian_from_weights(w1)), net.point(laplacian_from_weights(w2))
print(f"Frobenius distance = {net.distance(l_a, l_b):.4f}")
print("geodesics are straight lines; transport adds the Laplacian displacement")

print()
print("=" * 72)
print("4. SPD matrices under four metrics")
print("=" * 72)

a = np.array([[2.0, 0.3], [0.3, 1.0]])
b = np.array([[1.0, -0.2], [-0.2, 3.0]])
for variant in ("frobenius", "power", "log_euclidean", "log_cholesky"):
    spd = SpdSpace(2, variant)
    d = spd.distance(spd.point(a), spd.point(b))
    print(f"  {variant:15s} d(A, B) = {d:.4f}")

print()
print("=" * 72)
print("5. Distributions: 2-Wasserstein via quantile functions")
print("=" * 72)

wass = Wasserstein1D(n_grid=100)
u = np.linspace(0, 1, 100)
normal_ish = wass.point(2.0 * (u - 0.5))           # uniform on [-1, 1]
shifted = wass.point(2.0 * (u - 0.5) + 1.0)        # shifted by +1
print(f"W2(base, shifted by 1) = {wass.distance(normal_ish, shifted):.4f}  (location shift)")
mccann = wass.geodesic(normal_ish, shifted, 0.25)
print(f"McCann interpolant at t=0.25 has mean {np.trapezoid(mccann.data, u):+.4f}")

print()
print("=" * 72)
print("6. Comparing effects: the quotient metric")
print("=" * 72)

eu = Euclidean(1)
omega = eu.point([0.0])
effect_a = GeodesicEffect(eu.point([0.0]), eu.point([1.0]), omega)
effect_b = GeodesicEffect(eu.point([5.0]), eu.point([6.0]), omega)
effect_c = GeodesicEffect(eu.point([0.0]), eu.point([3.0]), omega)
print("two effects with the same displacement are equivalent:")
print(f"  d_G(0->1, 5->6) = {quotient_distance(effect_a, effect_b):.2e}")
print("different displacements are separated:")
print(f"  d_G(0->1, 0->3) = {quotient_distance(effect_a, effect_c):.4f}")
