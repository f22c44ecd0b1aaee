"""The three benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup`` (timed as
``setup_s``), runs one op in ``op`` (timed), and checks an op's output in
``verify`` (untimed).  Ops call geordd through module attributes looked up at
call time, so a traced run sees the wrapped names.

- ``cli-network-auto``: the applied user's full path at large n, one
  ``geordd sharp --bw auto`` on 20,000 ten-node graph Laplacians.
- ``campaign-network``: the methodologist's Monte Carlo loop, the same layers
  in the opposite regime (many small samples).
- ``sphere-fuzzy``: the only iterative-solver path and the only fuzzy path,
  one compositional sample per op.
"""

from __future__ import annotations

import numpy as np

import geordd.cli as cli
import geordd.io as gio
import geordd.rdd_fuzzy as rdd_fuzzy
import geordd.rdd_sharp as rdd_sharp
import geordd.simlab as simlab
from geordd import CompositionalSphere, NoncomplianceSide, RddSample

from checks import (
    check_campaign,
    check_cli,
    check_sphere,
    extract_sphere,
    load_csv_columns,
    read_cli_output,
)


def plain_call(name, fn, args, kwargs):
    return fn(*args, **kwargs)


class Workload:
    """Interface: ``setup()``, ``op(i)``, ``verify(result)``, ``perturbed(result)``.

    ``verify`` returns ``(units, failed_units, violations)``; ``perturbed``
    returns the violations found after corrupting one output value, which a
    sound check must report.  ``call`` runs the harness's own calls into
    geordd and is swapped for a span recorder while set-up is traced.
    """

    #: wall time of one op at the commit that defined the benchmark, 2-core box;
    #: sizes the op count so a run lasts about ``--seconds``
    nominal_op_s = 1.0
    #: op counts are rounded to a multiple of this (a full bandwidth cycle)
    op_multiple = 1
    call = staticmethod(plain_call)

    def __init__(self, seed, smoke, workdir, n_ops):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.n_ops = n_ops
        #: counts the checks report beside pass/fail, copied to the result file
        self.notes = {}

    def prepare_checks(self):
        """Untimed work the checks need once per run."""


class CliNetworkAuto(Workload):
    name = "cli-network-auto"
    nominal_op_s = 7.3
    wmax = 3.0

    def __init__(self, seed, smoke, workdir, n_ops):
        super().__init__(seed, smoke, workdir, n_ops)
        self.n = 2_000 if smoke else 20_000
        self.csv = workdir / "sample.csv"
        self.runs = 0

    def setup(self):
        sample, _ = simlab.NetworkDgp(n=self.n, seed=self.seed).sample()
        gio.write_sample_csv(sample, self.csv)

    def prepare_checks(self):
        self.r, self.y = load_csv_columns(self.csv)

    def op(self, i):
        self.runs += 1
        out = self.workdir / f"op{self.runs}"
        argv = ["sharp", "--input", str(self.csv), "--space", "laplacian",
                "--wmax", str(self.wmax), "--cutoff", "0", "--bw", "auto",
                "--out", str(out)]
        return cli.main(argv), out

    def verify(self, result):
        bad, projected = self._check(result, perturb=False)
        self.notes["oracle_projected_endpoints"] = (
            self.notes.get("oracle_projected_endpoints", 0) + projected
        )
        return 1, int(bool(bad)), bad

    def perturbed(self, result):
        return self._check(result, perturb=True)[0]

    def _check(self, result, perturb):
        code, out_dir = result
        if code != 0:
            return [f"exit code {code}"], 0
        out = read_cli_output(out_dir)
        if perturb:
            out["start"][0, 1] += 1e-6
        return check_cli(out, self.r, self.y, 0.0, self.wmax)


class CampaignNetwork(Workload):
    name = "campaign-network"
    nominal_op_s = 7.0

    def __init__(self, seed, smoke, workdir, n_ops):
        super().__init__(seed, smoke, workdir, n_ops)
        self.sizes = [100, 200] if smoke else [100, 200, 500, 1000]
        self.reps = 10

    def setup(self):
        # one seed per op, so no op repeats another's inputs
        self.op_seeds = np.random.SeedSequence(self.seed).generate_state(self.n_ops).tolist()

    def op(self, i):
        s = self.op_seeds[i]
        return simlab.run_campaign(
            simlab.NetworkDgp(seed=s), sizes=self.sizes, reps=self.reps, seed=s
        )

    @property
    def units(self):
        return len(self.sizes) * self.reps

    def verify(self, result):
        bad, n_fail = check_campaign(
            result.rows, result.metadata, result.rate_fit, self.sizes, self.reps
        )
        return self.units, self.units if bad else n_fail, bad

    def perturbed(self, result):
        rows = result.rows[1:]
        return check_campaign(rows, result.metadata, result.rate_fit, self.sizes, self.reps)[0]


class SphereFuzzy(Workload):
    name = "sphere-fuzzy"
    nominal_op_s = 1.2
    bandwidths = (0.3, 0.45, 0.6)
    op_multiple = len(bandwidths)
    #: Dirichlet concentration; the mean composition moves smoothly with r
    #: and shifts with treatment
    kappa = 10.0

    def __init__(self, seed, smoke, workdir, n_ops):
        super().__init__(seed, smoke, workdir, n_ops)
        self.n = 200 if smoke else 500

    def setup(self):
        # One sample per op: solver iterations vary severalfold between
        # samples, so a run of one sample would time its sample, not the path.
        seeds = np.random.SeedSequence(self.seed).spawn(self.n_ops)
        self.samples = [self._sample(np.random.default_rng(s)) for s in seeds]

    def _sample(self, rng):
        n = self.n
        r = rng.uniform(-1.0, 1.0, n)
        z = (r >= 0.0).astype(int)
        # one-sided noncompliance: always-takers left of the cutoff only
        t = np.where(z == 1, 1, (rng.random(n) < 0.25).astype(int))
        logits = np.stack([0.4 * np.sin(np.pi * r / 2), -0.3 * r, np.zeros(n)], axis=1)
        logits += np.outer(t, [0.6, -0.3, 0.0])
        mean = np.exp(logits)
        mean /= mean.sum(axis=1, keepdims=True)
        g = rng.gamma(self.kappa * mean)
        shares = g / g.sum(axis=1, keepdims=True)
        ys = tuple(CompositionalSphere.from_shares(row) for row in shares)
        return self.call(
            "sample.build", RddSample, (), {"r": r, "ys": ys, "cutoff": 0.0, "t": t, "z": z}
        )

    def prepare_checks(self):
        self.pts = [np.stack([y.data for y in s.ys]) for s in self.samples]

    def op(self, i):
        h = self.bandwidths[i % len(self.bandwidths)]
        s = self.samples[i]
        return (
            i,
            h,
            rdd_sharp.estimate_sharp(s, h, h),
            rdd_fuzzy.estimate_riemannian_fuzzy(s, None, h, h),
            rdd_fuzzy.estimate_geodesic_riemannian_fuzzy(
                s, None, NoncomplianceSide.ALWAYS_TAKERS, h, h
            ),
        )

    def verify(self, result):
        bad = self._check(result[0], extract_sphere(*result[1:]))
        return 1, int(bool(bad)), bad

    def perturbed(self, result):
        out = extract_sphere(*result[1:])
        out["start"][0] += 1e-6
        return self._check(result[0], out)

    def _check(self, i, out):
        s = self.samples[i]
        return check_sphere(out, self.pts[i], s.r, s.t, s.z, s.cutoff)


WORKLOADS = {w.name: w for w in (CliNetworkAuto, CampaignNetwork, SphereFuzzy)}
