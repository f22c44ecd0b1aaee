"""Output checks with independent numpy oracles.

The checks test invariants and exact identities (normal-equations local-linear
fits, first-order optimality on the sphere, log-map arithmetic), never
today's numbers, so a correctness fix in the program does not read as a
failure.  Each check returns a list of violation strings; empty means pass.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

#: losses within this share of the minimum tie; the smallest tied bandwidth wins
TIE_TOL = 1e-12


def loclin_weights(r, c, h, side):
    """Normalized triangular-kernel local-linear weights at ``c`` (sum to one).

    ``side`` is ``"left"`` (r < c) or ``"right"`` (r >= c).  The intercept of
    the weighted least-squares line fit equals ``weights @ y``.
    """
    d = r - c
    keep = d < 0 if side == "left" else d >= 0
    k = np.where(keep, np.clip(1.0 - np.abs(d) / h, 0.0, None), 0.0)
    s0, s1, s2 = k.sum(), (k * d).sum(), (k * d * d).sum()
    return k * (s2 - s1 * d) / (s0 * s2 - s1 * s1)


def wls_intercept(r, y, c, h, side):
    """Intercept of a kernel-weighted line fit, solved from the normal equations."""
    d = r - c
    keep = d < 0 if side == "left" else d >= 0
    k = np.where(keep, np.clip(1.0 - np.abs(d) / h, 0.0, None), 0.0)
    x = np.stack([np.ones_like(d), d], axis=1)
    xtwx = x.T @ (k[:, None] * x)
    xtwy = x.T @ (k[:, None] * y)
    return np.linalg.solve(xtwx, xtwy)[0]


# -- network Laplacians (cli-network-auto) ---------------------------------------


def laplacian_violations(mat, wmax, label):
    scale = max(1.0, float(np.abs(mat).max()))
    tol = 1e-10 * scale
    off = mat - np.diag(np.diag(mat))
    out = []
    if np.abs(mat - mat.T).max() > tol:
        out.append(f"{label}: not symmetric")
    if np.abs(mat.sum(axis=1)).max() > tol:
        out.append(f"{label}: rows do not sum to zero")
    if off.max() > tol or (-off).max() > wmax + tol:
        out.append(f"{label}: edge weights outside [0, {wmax}]")
    return out


def load_csv_columns(path):
    """(r, Y) from a sample CSV written as ``r,y0,...``."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1:]


def read_cli_output(out_dir):
    """The parts of a ``geordd sharp`` output directory that the checks read."""
    out_dir = Path(out_dir)
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    with open(out_dir / "bandwidth_search.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    est = report["estimate"]
    m = int(round(math.sqrt(len(est["effect"]["start"]["data"]))))
    return {
        "search": report["bandwidth_search"],
        "csv_rows": [(float(b), float(loss)) for b, loss in rows],
        "h": (est["bandwidths"]["h0"], est["bandwidths"]["h1"]),
        "magnitude": est["magnitude"],
        "start": np.asarray(est["effect"]["start"]["data"], dtype=float).reshape(m, m),
        "end": np.asarray(est["effect"]["end"]["data"], dtype=float).reshape(m, m),
        "plots": all((out_dir / f).is_file() for f in ("curves.csv", "bins.csv")),
    }


def check_cli(out, r, y, cutoff, wmax):
    """Violations plus the number of endpoints whose oracle fit needed projection."""
    bad = []
    s = out["search"]
    grid = np.asarray(s["grid"], dtype=float)
    losses = np.asarray(s["losses"], dtype=float)
    if not s["b_min"] <= s["b_star"] <= s["b_max"]:
        bad.append("b_star outside [b_min, b_max]")
    best = losses.min()
    first_tie = np.flatnonzero(losses <= best + TIE_TOL * (1.0 + best))[0]
    if s["b_star"] != grid[first_tie]:
        bad.append("b_star is not the first near-tie argmin of the losses")
    if out["csv_rows"] != list(zip(grid.tolist(), losses.tolist())):
        bad.append("bandwidth_search.csv disagrees with report.json")
    if out["h"] != (s["b_star"], s["b_star"]):
        bad.append("estimate bandwidths differ from b_star")
    if not out["plots"]:
        bad.append("curves.csv or bins.csv missing")
    dist = float(np.linalg.norm(out["end"] - out["start"]))
    if abs(out["magnitude"] - dist) > 1e-10 * (1.0 + dist):
        bad.append("magnitude differs from the Frobenius distance of the endpoints")
    projected = 0
    for side, h, label in (("left", out["h"][0], "start"), ("right", out["h"][1], "end")):
        bad += laplacian_violations(out[label], wmax, label)
        fit = wls_intercept(r, y, cutoff, h, side).reshape(out[label].shape)
        if laplacian_violations(fit, wmax, "oracle"):
            projected += 1
            continue
        scale = max(1.0, float(np.abs(fit).max()))
        if np.abs(out[label] - fit).max() > 1e-8 * scale:
            bad.append(f"{label} differs from the normal-equations fit")
    return bad, projected


# -- campaign rows (campaign-network) ------------------------------------------


def check_campaign(rows, metadata, rate_fit, sizes, reps):
    bad = []
    keys = sorted((row["n"], row["rep"]) for row in rows)
    if keys != sorted((n, rep) for n in sizes for rep in range(reps)):
        bad.append("rows are not one per (size, replication)")
    n_fail = 0
    for row in rows:
        if row["setting"] != "network":
            bad.append(f"row {row['n']}/{row['rep']}: setting {row['setting']!r}")
        if row["fail_flag"]:
            n_fail += 1
        elif not (
            math.isfinite(row["bias"]) and row["bias"] >= 0.0
            and math.isfinite(row["bandwidth"]) and row["bandwidth"] > 0.0
        ):
            bad.append(f"row {row['n']}/{row['rep']}: bias or bandwidth not finite")
    if metadata["n_failures"] != n_fail:
        bad.append("metadata n_failures disagrees with the rows")
    if list(metadata["sizes"]) != list(sizes) or metadata["reps"] != reps:
        bad.append("metadata sizes/reps disagree with the request")
    if not 0 <= metadata["n_bandwidth_fallbacks"] <= len(rows) - n_fail:
        bad.append("metadata n_bandwidth_fallbacks out of range")
    if rate_fit is None or not math.isfinite(rate_fit.slope):
        bad.append("rate fit missing or not finite")
    return bad, n_fail


# -- compositional sphere (sphere-fuzzy) -----------------------------------------


def log_rows(base, pts):
    """Rows of Log_base(p): arc length times the unit tangent direction."""
    dots = np.clip(pts @ base, -1.0, 1.0)
    u = pts - dots[:, None] * base
    norms = np.linalg.norm(u, axis=1)
    scale = np.divide(np.arccos(dots), norms, out=np.zeros_like(norms), where=norms > 1e-14)
    return scale[:, None] * u


def exp_at(base, v):
    v = v - (v @ base) * base
    norm = float(np.linalg.norm(v))
    if norm < 1e-14:
        return base.copy()
    return math.cos(norm) * base + math.sin(norm) * v / norm


def orthant_violations(z, label):
    if abs(float(np.linalg.norm(z)) - 1.0) > 1e-10 or z.min() < 0.0:
        return [f"{label}: not on the unit-sphere orthant"]
    return []


def minimiser_violations(pts, w, z, label):
    """Certify ``z`` against every sample point and by its Riemannian gradient."""
    out = []
    f_pts = float((np.arccos(np.clip(pts @ pts.T, -1.0, 1.0)) ** 2 @ w).min())
    if float(w @ np.arccos(np.clip(pts @ z, -1.0, 1.0)) ** 2) > f_pts + 1e-10:
        out.append(f"{label}: objective above a sample point's")
    grad = w @ log_rows(z, pts)
    grad = grad - (grad @ z) * z
    if float(np.linalg.norm(grad)) / float(np.abs(w).sum()) > 1e-6:
        out.append(f"{label}: Riemannian gradient not small")
    return out


def sphere_oracle(pts, r, t, z, cutoff, h, omega):
    """Tangent-space fuzzy quantities at reference ``omega``, from numpy alone."""
    v = log_rows(omega, pts)
    wl = loclin_weights(r, cutoff, h, "left")
    wr = loclin_weights(r, cutoff, h, "right")
    m0 = float(np.clip(wl @ t, 0.0, 1.0))
    m1 = float(np.clip(wr @ t, 0.0, 1.0))
    den = m1 - m0
    nu0, nu1 = wl @ v, wr @ v
    stratum = (t == 1) & (z == 0)
    nu_plus = loclin_weights(r[stratum], cutoff, h, "left") @ v[stratum]
    args = [nu_plus + (nu - nu_plus) / den for nu in (nu0, nu1)]
    return {"tau": (nu1 - nu0) / den, "endpoints": [exp_at(omega, a) for a in args]}


def extract_sphere(h, sharp, tangent, geodesic):
    """Plain arrays from the three estimates of one sphere-fuzzy op."""
    return {
        "h": h,
        "start": np.array(sharp.start.data),
        "end": np.array(sharp.end.data),
        "magnitude": sharp.magnitude,
        "omega": np.array(sharp.effect.reference.data),
        "omega_geo": np.array(geodesic.effect.reference.data),
        "tau_tangent": np.array(tangent.tau),
        "tau_geodesic": np.array(geodesic.tau),
        "mu": [np.array(p.data) for p in geodesic.endpoints],
        "geo_magnitude": geodesic.magnitude,
        "exp_fallback": "exp_out_of_domain" in geodesic.warnings,
    }


def check_sphere(out, pts, r, t, z, cutoff):
    bad = []
    h = out["h"]
    for label in ("start", "end", "omega"):
        bad += orthant_violations(out[label], label)
    for i, mu in enumerate(out["mu"]):
        bad += orthant_violations(mu, f"complier endpoint {i}")
    bad += minimiser_violations(pts, loclin_weights(r, cutoff, h, "left"), out["start"], "start")
    bad += minimiser_violations(pts, loclin_weights(r, cutoff, h, "right"), out["end"], "end")
    bad += minimiser_violations(pts, np.full(r.size, 1.0 / r.size), out["omega"], "omega")
    if not np.array_equal(out["omega"], out["omega_geo"]):
        bad.append("sharp and fuzzy reference points differ")
    for key, pa, pb in (("magnitude", out["start"], out["end"]), ("geo_magnitude", *out["mu"])):
        d = float(2.0 * np.arcsin(min(0.5 * np.linalg.norm(pa - pb), 1.0)))
        if abs(out[key] - d) > 1e-10 * (1.0 + d):
            bad.append(f"{key} differs from the arc length between its endpoints")
    oracle = sphere_oracle(pts, r, t, z, cutoff, h, out["omega"])
    scale = max(1.0, float(np.linalg.norm(oracle["tau"])))
    for key in ("tau_tangent", "tau_geodesic"):
        if np.linalg.norm(out[key] - oracle["tau"]) > 1e-8 * scale:
            bad.append(f"{key} differs from the numpy log-map estimate")
    if not out["exp_fallback"]:
        for i, (mu, ref) in enumerate(zip(out["mu"], oracle["endpoints"])):
            if np.abs(mu - ref).max() > 1e-8:
                bad.append(f"complier endpoint {i} differs from the numpy exp map")
    return bad
