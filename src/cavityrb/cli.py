"""Command-line front end.

Subcommands
    fe-solve   full-order solve at one parameter (VTK + diagnostics)
    offline    greedy reduced-basis construction (model.rbm + trace.csv)
    online     reduced solve at one parameter, checked against FE truth
    sweep      reduced-vs-truth error statistics over a test set
    infsup     reduced inf-sup profiles over a parameter grid

Every output embeds the resolved run configuration as '# key = value'
comment lines.  Exit codes: 0 success, 2 configuration error, 3 solver
failure (singular system / non-convergence / formulations that forfeit
pressure stability online).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from .assembly import STAB_METHODS, StabilizationConfig, dump_affine_operator
from .analysis import (INFSUP_HEADER, SWEEP_HEADER, error_sweep,
                       infsup_profile, relative_errors)
from .fespace import vertex_point_fields
from .hifi import PAIRS, PROBLEMS, FeSolution, FlowSystem, ProblemConfig
from .rb import (OPTIONS, greedy_offline, load_model, reconstruct,
                 save_model, solve_reduced, with_option)
from .util import (ConfigError, NonConvergenceError, SingularSystemError,
                   fmt17, write_csv)

TRACE_HEADER = ("n", "mu1", "mu2", "max_indicator")

_STR_KEYS = {
    "problem": PROBLEMS,
    "fe_pair": tuple(PAIRS),
    "stabilization.method": STAB_METHODS,
    "option": OPTIONS,
}
_FLOAT_KEYS = ("stabilization.delta", "stabilization.rho", "mu1.min",
               "mu1.max", "mu2.min", "mu2.max", "mu_bar2", "online.mu1",
               "online.mu2")
_INT_KEYS = ("n_max", "train_size", "test_size", "mesh.nx", "mesh.ny",
             "seed", "threads")
_ALL_KEYS = tuple(_STR_KEYS) + _FLOAT_KEYS + _INT_KEYS


@dataclass
class RunConfig:
    """Resolved run configuration (defaults < config file < CLI flags)."""

    problem: str = "stokes"
    fe_pair: str = "P1P1"
    method: str = "None"
    delta: float = 0.0
    rho: float = 0.0
    option: str = "i"
    # None = per-problem default box (see ProblemConfig)
    mu1_min: float | None = None
    mu1_max: float | None = None
    mu2_min: float | None = None
    mu2_max: float | None = None
    mu_bar2: float = 1.0
    online_mu1: float | None = None
    online_mu2: float | None = None
    n_max: int = 20
    train_size: int = 100
    test_size: int = 50
    nx: int = 32
    ny: int = 16
    seed: int | None = None
    threads: int = 1

    _FIELD_OF_KEY = {
        "problem": "problem", "fe_pair": "fe_pair",
        "stabilization.method": "method", "stabilization.delta": "delta",
        "stabilization.rho": "rho", "option": "option",
        "mu1.min": "mu1_min", "mu1.max": "mu1_max",
        "mu2.min": "mu2_min", "mu2.max": "mu2_max", "mu_bar2": "mu_bar2",
        "online.mu1": "online_mu1", "online.mu2": "online_mu2",
        "n_max": "n_max", "train_size": "train_size",
        "test_size": "test_size", "mesh.nx": "nx", "mesh.ny": "ny",
        "seed": "seed", "threads": "threads",
    }

    def echo_items(self) -> list[tuple[str, str]]:
        """Resolved settings as printable pairs, in declaration order.

        The thread count is omitted: it must never influence output
        bytes, so it is not part of the configuration record.
        """
        out = []
        for key in _ALL_KEYS:
            if key == "threads":
                continue
            value = getattr(self, self._FIELD_OF_KEY[key])
            if value is None:
                text = "none"
            elif isinstance(value, float):
                text = fmt17(value)
            else:
                text = str(value)
            out.append((key, text))
        return out

    def echo_lines(self) -> list[str]:
        return [f"{k} = {v}" for k, v in self.echo_items()]


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """key = value lines; '#' comments; unknown keys are errors."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"{source}:{lineno}: empty value for {key!r}")
        out[key] = value
    return out


def _convert(key: str, value: str):
    if key in _STR_KEYS:
        allowed = _STR_KEYS[key]
        if value not in allowed:
            raise ConfigError(
                f"{key} must be one of {', '.join(allowed)}; got {value!r}")
        return value
    try:
        if key in _INT_KEYS:
            return int(value)
        return float(value)
    except ValueError:
        kind = "an integer" if key in _INT_KEYS else "a number"
        raise ConfigError(f"{key} expects {kind}; got {value!r}") from None


def resolve_config(args) -> RunConfig:
    rc = RunConfig()
    if args.config is not None:
        try:
            with open(args.config, "r") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        for key, raw in parse_config_text(text, source=args.config).items():
            setattr(rc, RunConfig._FIELD_OF_KEY[key], _convert(key, raw))
    if getattr(args, "seed", None) is not None:
        rc.seed = args.seed
    if getattr(args, "threads", None) is not None:
        rc.threads = args.threads
    if rc.seed is None:
        raise ConfigError("a seed is required (config 'seed' or --seed)")
    if rc.threads < 1:
        raise ConfigError("threads must be a positive integer")
    box = ProblemConfig(problem=rc.problem)   # the per-problem defaults
    for name, value in zip(("mu1_min", "mu1_max", "mu2_min", "mu2_max"),
                           box.mu1_range + box.mu2_range):
        if getattr(rc, name) is None:
            setattr(rc, name, value)
    for name, lo, hi in (("mu1", rc.mu1_min, rc.mu1_max),
                         ("mu2", rc.mu2_min, rc.mu2_max)):
        if not lo < hi:
            raise ConfigError(f"{name} range must satisfy min < max")
    for name, value in (("n_max", rc.n_max), ("train_size", rc.train_size),
                        ("test_size", rc.test_size), ("mesh.nx", rc.nx),
                        ("mesh.ny", rc.ny)):
        if value < 1:
            raise ConfigError(f"{name} must be at least 1")
    return rc


def build_system(rc: RunConfig) -> FlowSystem:
    try:
        stab = StabilizationConfig(method=rc.method, delta=rc.delta,
                                   rho=rc.rho)
        config = ProblemConfig(
            problem=rc.problem, fe_pair=rc.fe_pair, stabilization=stab,
            mu1_range=(rc.mu1_min, rc.mu1_max),
            mu2_range=(rc.mu2_min, rc.mu2_max), mu_bar2=rc.mu_bar2)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return FlowSystem(config, rc.nx, rc.ny)


def _resolve_mu(rc: RunConfig, args) -> tuple[float, float]:
    mu1 = args.mu1 if args.mu1 is not None else rc.online_mu1
    mu2 = args.mu2 if args.mu2 is not None else rc.online_mu2
    if mu1 is None or mu2 is None:
        raise ConfigError(
            "a parameter point is required (--mu1/--mu2 or online.mu1/mu2)")
    # nu needs mu1 > 0 and the stretch a(mu2) needs mu2 > -1
    if not (mu1 > 0 and mu2 > -1):
        raise ConfigError(f"parameter point ({mu1:g}, {mu2:g}) lies outside "
                          f"mu1 > 0, mu2 > -1")
    return (float(mu1), float(mu2))


def _out_dir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_text(path: str, rc: RunConfig, lines: list[str]) -> None:
    with open(path, "w") as fh:
        for line in rc.echo_lines():
            fh.write(f"# {line}\n")
        for line in lines:
            fh.write(line + "\n")


def _solution_vtk(path: str, system: FlowSystem, sol: FeSolution,
                  title: str) -> None:
    total = sol.total_velocity
    point_vectors = {"velocity": vertex_point_fields(total)["values"]}
    if system.pressure_space.family == "P0":
        write_vtk_kwargs = {"cell_scalars":
                            {"pressure": sol.pressure.values}}
    else:
        write_vtk_kwargs = {"point_scalars":
                            {"pressure": vertex_point_fields(
                                sol.pressure)["values"]}}
    from .vtk import write_vtk
    write_vtk(path, system.mesh, title=title,
              point_vectors=point_vectors, **write_vtk_kwargs)


def cmd_fe_solve(rc: RunConfig, args) -> int:
    system = build_system(rc)
    mu = _resolve_mu(rc, args)
    sol = system.solve(mu)
    out = _out_dir(args)
    if args.dump_operators:
        for name, op in system.operators.items():
            dump_affine_operator(op, out, name)
    diag = sol.diagnostics
    lines = [
        f"mu1 = {fmt17(mu[0])}",
        f"mu2 = {fmt17(mu[1])}",
        f"velocity_dofs = {system.velocity_space.dof_count}",
        f"pressure_dofs = {system.pressure_space.dof_count}",
        f"iterations = {diag.get('iterations')}",
        f"relative_residual = {fmt17(float(diag.get('residual', 0.0)))}",
    ]
    _write_text(os.path.join(out, "fe_solve.txt"), rc, lines)
    _solution_vtk(os.path.join(out, "solution.vtk"), system, sol,
                  title=f"fe-solve mu=({fmt17(mu[0])},{fmt17(mu[1])}) "
                        f"seed={rc.seed}")
    print(f"fe-solve: mu=({mu[0]:g},{mu[1]:g}) "
          f"iterations={diag.get('iterations')} "
          f"residual={float(diag.get('residual', 0.0)):.3e}")
    return 0


def cmd_offline(rc: RunConfig, args) -> int:
    system = build_system(rc)
    model, trace = greedy_offline(system, rc.n_max, rc.train_size, rc.seed)
    out = _out_dir(args)
    save_model(model, os.path.join(out, "model.rbm"),
               config_echo=dict(rc.echo_items()))
    write_csv(os.path.join(out, "trace.csv"), TRACE_HEADER,
              [(n, float(m1), float(m2), float(ind))
               for n, m1, m2, ind in trace.rows],
              echo=rc.echo_lines())
    print(f"offline: N={model.n_u} (+{model.n_s} supremizers), "
          f"final indicator={trace.rows[-1][3]:.3e}")
    return 0


def _load_model_arg(rc: RunConfig, args):
    path = args.model
    if path is None:
        path = os.path.join(args.out or ".", "model.rbm")
    if not os.path.exists(path):
        raise ConfigError(f"reduced model not found: {path}")
    # (model, its ProblemConfig): a header the configuration refuses
    # is a malformed model too
    try:
        model, _ = load_model(path)
        stab = StabilizationConfig(method=model.method, delta=model.delta,
                                   rho=model.rho)
        return model, ProblemConfig(
            problem=model.problem, fe_pair=model.fe_pair, stabilization=stab,
            mu1_range=model.mu1_range, mu2_range=model.mu2_range,
            mu_bar2=model.mu_bar2)
    except ValueError as exc:
        raise ConfigError(f"cannot load reduced model {path}: {exc}") from exc


def cmd_online(rc: RunConfig, args) -> int:
    model, config = _load_model_arg(rc, args)
    option = args.option or rc.option
    if option == "iv":
        print("error: option iv drops both supremizers and stabilization; "
              "the reduced pressure space has no inf-sup control and "
              "results are not reported", file=sys.stderr)
        return 3
    mu = _resolve_mu(rc, args)
    om = with_option(model, option)
    u, p, info = solve_reduced(om, mu)
    system = FlowSystem(config, model.nx, model.ny)
    sol = reconstruct(om, system, u, p, mu, diagnostics=info)
    truth = system.solve(mu)
    eu, ep = relative_errors(system, truth, sol.velocity.values,
                             sol.pressure.values)
    out = _out_dir(args)
    lines = [
        f"mu1 = {fmt17(mu[0])}",
        f"mu2 = {fmt17(mu[1])}",
        f"option = {option}",
        f"n_velocity = {om.n_vel}",
        f"n_pressure = {om.n_p}",
        f"iterations = {info.get('iterations')}",
        f"velocity_rel_err_h1semi = {fmt17(eu)}",
        f"pressure_rel_err_l2 = {fmt17(ep)}",
    ]
    _write_text(os.path.join(out, "online.txt"), rc, lines)
    _solution_vtk(os.path.join(out, "online.vtk"), system, sol,
                  title=f"online option={option} "
                        f"mu=({fmt17(mu[0])},{fmt17(mu[1])}) seed={rc.seed}")
    print(f"online: option={option} mu=({mu[0]:g},{mu[1]:g}) "
          f"velocity err={eu:.3e} pressure err={ep:.3e} "
          f"iterations={info.get('iterations')}")
    return 0


def cmd_sweep(rc: RunConfig, args) -> int:
    model, config = _load_model_arg(rc, args)
    system = FlowSystem(config, model.nx, model.ny)
    report = error_sweep(system, model, rc.seed, test_size=rc.test_size,
                         threads=rc.threads)
    out = _out_dir(args)
    write_csv(os.path.join(out, "errors.csv"), SWEEP_HEADER, report.rows,
              echo=rc.echo_lines())
    for stage, seconds in report.timings.items():
        print(f"timing {stage} = {seconds:.2f}", file=sys.stderr)
    print(f"sweep: {len(report.rows)} rows, "
          f"{len(report.failures)} failed points")
    return 0


def cmd_infsup(rc: RunConfig, args) -> int:
    model, _ = _load_model_arg(rc, args)
    rows = infsup_profile(model, grid_n=args.grid)
    out = _out_dir(args)
    write_csv(os.path.join(out, "infsup.csv"), INFSUP_HEADER, rows,
              echo=rc.echo_lines())
    worst = min(r[4] for r in rows if r[2] in ("i", "ii"))
    print(f"infsup: {len(rows)} rows, "
          f"min modified beta over options i/ii = {worst:.3e}")
    return 0


_COMMANDS = {
    "fe-solve": cmd_fe_solve,
    "offline": cmd_offline,
    "online": cmd_online,
    "sweep": cmd_sweep,
    "infsup": cmd_infsup,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value configuration file")
    common.add_argument("--out", help="output directory (default: cwd)")
    common.add_argument("--seed", type=int, help="run seed (overrides config)")
    common.add_argument("--threads", type=int,
                        help="worker threads for the sweep's truth solves and "
                             "points (never affects output bytes)")

    parser = argparse.ArgumentParser(
        prog="cavityrb",
        description="Stabilized reduced-basis solver for parametrized "
                    "lid-driven cavity flow")
    sub = parser.add_subparsers(dest="command", required=True)

    fe = sub.add_parser("fe-solve", parents=[common],
                        help="full-order solve at one parameter")
    fe.add_argument("--mu1", type=float)
    fe.add_argument("--mu2", type=float)
    fe.add_argument("--dump-operators", action="store_true",
                    help="write the affine operator terms as MatrixMarket")

    sub.add_parser("offline", parents=[common],
                   help="greedy reduced-basis construction")

    onl = sub.add_parser("online", parents=[common],
                         help="reduced solve checked against FE truth")
    onl.add_argument("--model", help="path to model.rbm")
    onl.add_argument("--mu1", type=float)
    onl.add_argument("--mu2", type=float)
    onl.add_argument("--option", choices=OPTIONS)

    sw = sub.add_parser("sweep", parents=[common],
                        help="error statistics over a random test set")
    sw.add_argument("--model", help="path to model.rbm")

    inf = sub.add_parser("infsup", parents=[common],
                         help="reduced inf-sup profile over a grid")
    inf.add_argument("--model", help="path to model.rbm")
    inf.add_argument("--grid", type=int, default=5,
                     help="grid points per parameter direction")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = resolve_config(args)
        return _COMMANDS[args.command](rc, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SingularSystemError, NonConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
