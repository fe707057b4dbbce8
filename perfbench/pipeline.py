"""The three benchmark workloads and the pipeline every one of them runs.

A run repeats whole rounds of the same pipeline until the next round
would end past ``--seconds`` (at least MIN_ROUNDS rounds).  One round:

1. build the ``FlowSystem``;
2. run ``greedy_offline``;
3. save the model to ``.rbm`` and load it back;
4. serve a burst of online queries from the loaded model;
5. run ``infsup_profile`` and an ``error_sweep`` against fresh FE truths;
6. check the outputs (untimed, untraced).

The machine's speed drifts by tens of percent over seconds, so the
short measurements are spread over the whole run: ahead of every
full-order solve a probe serves a burst of queries from the last model
loaded and, in turn, times one more ``FlowSystem`` build or one more
model round trip.  Probe time is taken out of the greedy's and the
sweep's wall times, and every time metric is a median over the run.
The online stream is one closed-loop caller.  The greedy's training
grid and the held-out set are fixed per workload (the accuracy
protocol); the run's seed draws the online queries.  Library functions
are looked up on their module at call time, so a ``Tracer`` sees the
benchmark's own calls as well as the library's internal ones.
Everything runs on one thread.
"""

from __future__ import annotations

import contextlib
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

from cavityrb import analysis, hifi, rb
from cavityrb.assembly import StabilizationConfig
from cavityrb.util import NonConvergenceError, SingularSystemError

import checks

NX, NY = 32, 16           # the desk mesh of the acceptance criteria
PROTOCOL_SEED = 42        # training grid; the held-out set uses 43
STREAM_OPTIONS = ("i", "ii", "iii")
SWEEP_OPTIONS = ("i", "ii", "iii")
INFSUP_GRID = 5
WARMUP_QUERIES = 6        # first queries of a burst: untimed (and checked
                          # in the burst after each load)
MIN_ROUNDS = 2
PROBE_CYCLE = 3           # probe turns: FlowSystem build, model round trip, -


@dataclass(frozen=True)
class Workload:
    problem: str
    fe_pair: str
    method: str
    delta: float
    n_max: int
    train_size: int
    test_size: int
    n_values: tuple       # basis sizes of the sweep (truncations + n_max)
    burst: int            # online queries per burst, a multiple of 3

    def config(self) -> hifi.ProblemConfig:
        return hifi.ProblemConfig(
            problem=self.problem, fe_pair=self.fe_pair,
            stabilization=StabilizationConfig(method=self.method,
                                              delta=self.delta))


WORKLOADS = {
    # bound by sparse LU factorization of the P2P2 saddle system
    "stokes-p2p2": Workload("stokes", "P2P2", "ResidualBased", 0.05,
                            n_max=6, train_size=16, test_size=4,
                            n_values=(3, 6), burst=1200),
    # Newton, convection and SUPG assembly, reduced N^3 tensors
    "ns-p2p2": Workload("navier_stokes", "P2P2", "SUPGFamily", 1.0,
                        n_max=8, train_size=9, test_size=2,
                        n_values=(4, 8), burst=720),
    # small greedy, long online stream: the many-query stage
    "online-p1p1": Workload("stokes", "P1P1", "BrezziPitkaranta", 0.05,
                            n_max=20, train_size=36, test_size=8,
                            n_values=(5, 10, 15, 20), burst=300),
}


def draw_points(cfg, rng, size: int) -> list[tuple]:
    """Uniform parameter points in the configured box."""
    return [(float(rng.uniform(*cfg.mu1_range)),
             float(rng.uniform(*cfg.mu2_range))) for _ in range(size)]


class SolveLog:
    """Times every ``system.solve`` call and keeps its solution.

    Installed as an instance attribute, so it sees the greedy's snapshot
    solves and the sweep's truth solves; ``before`` runs ahead of each.
    """

    def __init__(self, system, before):
        self.calls: list[tuple] = []    # (mu, solution, seconds)
        self._solve = system.solve
        self._before = before
        system.solve = self

    def __call__(self, mu, **kwargs):
        self._before()
        t0 = time.perf_counter()
        sol = self._solve(mu, **kwargs)
        self.calls.append((tuple(mu), sol, time.perf_counter() - t0))
        return sol


class Run:
    """Samples and counts of one benchmark run, gathered round by round."""

    def __init__(self, name: str, seed: int, workdir: str):
        self.w = WORKLOADS[name]
        self.cfg = self.w.config()
        self.test_points = draw_points(
            self.cfg, np.random.default_rng(PROTOCOL_SEED + 1),
            self.w.test_size)
        self.stream_rng = np.random.default_rng(seed)
        self.path = os.path.join(workdir, "model.rbm")
        self.model = None               # the last model loaded
        self.probes = 0
        self.probe_s = 0.0              # wall time spent in probes
        self.rounds = 0
        self.times = {k: [] for k in ("setup", "offline", "solve", "sweep",
                                      "io")}
        self.latencies = {opt: [] for opt in STREAM_OPTIONS}
        self.attempted = self.failed = 0
        self.violations: list[str] = []
        self.worst: dict = {}
        self.last: dict = {}

    def _timed(self, key: str, fn):
        t0 = time.perf_counter()
        out = fn()
        self.times[key].append(time.perf_counter() - t0)
        return out

    def _build(self):
        return self._timed("setup", lambda: hifi.FlowSystem(self.cfg, NX, NY))

    def _round_trip(self, model):
        def save_load():
            rb.save_model(model, self.path)
            return rb.load_model(self.path)[0]
        return self._timed("io", save_load)

    def burst(self) -> list:
        """Serve one burst of queries from the last model loaded.

        Closed loop, one caller: the next query is sent when one returns.
        A query derives the option's view of the model and solves at a
        fresh parameter; options cycle i, ii, iii.  The first
        WARMUP_QUERIES warm the caches after the work between bursts and
        are not timed.  Returns their outputs (option, mu, u, p).
        """
        if self.model is None:
            return []
        sample = []
        points = draw_points(self.cfg, self.stream_rng, self.w.burst)
        for k, mu in enumerate(points):
            opt = STREAM_OPTIONS[k % len(STREAM_OPTIONS)]
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                u, p, _ = rb.solve_reduced(rb.with_option(self.model, opt),
                                           mu)
            except (SingularSystemError, NonConvergenceError) as exc:
                self.failed += 1
                print(f"query failed: option {opt} at mu={mu}: {exc}",
                      file=sys.stderr)
                continue
            dt = time.perf_counter() - t0
            if k < WARMUP_QUERIES:
                sample.append((opt, mu, u, p))
            else:
                self.latencies[opt].append(dt)
        return sample

    def probe(self) -> None:
        """Runs ahead of every full-order solve: a burst of queries and, in
        turn, one FlowSystem build or one model round trip, so that these
        short measurements sample the machine across the whole run."""
        t0 = time.perf_counter()
        turn = self.probes % PROBE_CYCLE
        self.probes += 1
        if turn == 0:
            self._build()
        elif turn == 1 and self.model is not None:
            self._round_trip(self.model)
        self.burst()
        self.probe_s += time.perf_counter() - t0

    def _stage(self, key: str, fn):
        """Run fn, recording its wall time less the probes inside it."""
        t0, p0 = time.perf_counter(), self.probe_s
        out = fn()
        self.times[key].append(time.perf_counter() - t0 - (self.probe_s - p0))
        return out

    def round(self, tracer=None) -> None:
        w = self.w
        system = self._build()
        solves = SolveLog(system, self.probe)
        with tracer if tracer is not None else contextlib.nullcontext():
            model, _ = self._stage("offline", lambda: rb.greedy_offline(
                system, w.n_max, w.train_size, PROTOCOL_SEED))
            loaded = self.model = self._round_trip(model)
            sample = self.burst()
            infsup_rows = analysis.infsup_profile(loaded, INFSUP_GRID)
            n_top = loaded.u_snaps.shape[1]
            n_values = sorted({n for n in w.n_values if n < n_top} | {n_top})
            first_truth = len(solves.calls)
            report = self._stage("sweep", lambda: analysis.error_sweep(
                system, loaded, PROTOCOL_SEED, test_points=self.test_points,
                n_values=n_values, options=SWEEP_OPTIONS))
        truths = solves.calls[first_truth:]
        self.times["solve"].extend(t for _, _, t in solves.calls)
        sweep_points = len(n_values) * len(SWEEP_OPTIONS) * len(truths)
        self.attempted += len(solves.calls) + sweep_points
        self.failed += len(report.failures)
        self.rounds += 1
        self.last = {
            "model_bytes": os.path.getsize(self.path), "n_basis": n_top,
            "n_velocity_i": loaded.n_vel, "n_pressure": loaded.n_p,
            "fe_solves_per_round": len(solves.calls),
            "pressure_err": {opt: mean for n, opt, fld, _, mean, _, _, _
                             in report.rows
                             if n == n_top and fld == "pressure"}}
        self._check(system, model, loaded, truths, sample, report.rows,
                    infsup_rows, n_top)

    def _record(self, key, result) -> None:
        bad, value = result
        self.violations.extend(bad)
        self.worst[key] = max(self.worst.get(key, value), value)

    def _check(self, system, model, loaded, truths, sample, sweep_rows,
               infsup_rows, n_top) -> None:
        for k, mu in enumerate(loaded.mus):
            self._record("a_fe_equations", checks.fe_equations(
                system, tuple(mu), loaded.u_snaps[:, k],
                loaded.p_snaps[:, k], "snapshot"))
        for mu, sol, _ in truths:
            self._record("a_fe_equations", checks.fe_equations(
                system, mu, sol.velocity.values, sol.pressure.values,
                "truth"))
        cases = [s for s in sample if s[0] in ("i", "ii")]
        for opt in ("i", "ii"):
            view = rb.with_option(loaded, opt)
            cases += [(opt, mu, *rb.solve_reduced(view, mu)[:2])
                      for mu in self.test_points]
        for opt, mu, u, p in cases:
            self._record("b_galerkin", checks.galerkin(
                system, rb.with_option(loaded, opt), mu, u, p))
        self._record("c_reproduction", checks.reproduction(system, loaded))
        bad, (gap, beta) = checks.paper_findings(sweep_rows, infsup_rows,
                                                 n_top)
        self.violations.extend(bad)
        self.worst["d_pressure_gap_iii_over_i"] = gap
        self.worst["d_min_modified_beta"] = beta
        self._record("e_roundtrip_mismatches", checks.roundtrip(
            model, loaded, [mu for _, mu, _, _ in sample]))

    def metrics(self) -> dict:
        """The end-to-end metrics: {name: (value, unit)}."""
        t, lat = self.times, self.latencies
        med = statistics.median
        every = [x for opt in STREAM_OPTIONS for x in lat[opt]]
        return {
            "setup_s": (med(t["setup"]), "s"),
            "offline_s": (med(t["offline"]), "s"),
            "truth_solve_s": (med(t["solve"]), "s"),
            "sweep_s": (med(t["sweep"]), "s"),
            "online_i_p50_us": (1e6 * med(lat["i"]), "us"),
            "online_ii_p50_us": (1e6 * med(lat["ii"]), "us"),
            "online_p99_us": (1e6 * float(np.percentile(every, 99)), "us"),
            "model_io_s": (med(t["io"]), "s"),
            "model_bytes": (self.last["model_bytes"], "bytes"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "pressure_err_i": (self.last["pressure_err"]["i"], "1"),
            "pressure_err_ii": (self.last["pressure_err"]["ii"], "1"),
        }

    def details(self) -> dict:
        return {**self.last, "rounds": self.rounds, "samples": self.times,
                "timed_queries": {o: len(v) for o, v in
                                  self.latencies.items()},
                "checks_worst": self.worst}


def run(name: str, seed: int, seconds: float, workdir: str,
        tracer=None) -> Run:
    """Whole rounds until the next one would end past ``seconds``."""
    state = Run(name, seed, workdir)
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        state.round(tracer)
        now = time.perf_counter()
        if (state.rounds >= MIN_ROUNDS
                and now - start + (now - t0) > seconds):
            return state
