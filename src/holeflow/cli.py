"""Command-line interface.

Subcommands: gen-fixture, nucleate, evolve, verify, expanding-holes,
series, experiment, report.  Exit codes: 0 success, 1 check failure or
input the library refuses, 2 usage error, 3 resolution exhausted.  Every
output file embeds a header with the effective configuration and a
git-style content hash of its inputs, and identical configuration + seed
yields byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, fields, asdict
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .dvar import DvarParseError, read_dvar, write_dvar
from .estimates import ExpandingHolesConfig, expanding_holes_run
from .fixtures import FIXTURE_KINDS, make_fixture
from .flow import DtPolicy, ResolutionExhausted, evolve
from .geom import coordinate_plane
from .iteration import (FIXTURE_RADIUS_FACTOR, ExperimentConfig,
                        build_schedule, orchestrate, rescaled_window,
                        series_term, window_end, window_times)
from .kernels import make_profile
from .nucleation import (GrowthEnvelope, SquashMap, nucleate,
                         nucleation_passes, verify_nucleation)
from .varifold import density_ratio

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOLUTION = 3

# ExperimentResult fields written to files of their own, not to summary.json
BULK_FIELDS = ("rows", "trajectory", "reports")


@dataclass
class Config:
    """Flat run configuration; file format is `key = value` per line."""

    alpha: float = 0.51
    Q: int = 2
    r0: float = 0.1
    zeta: float = 0.1
    delta: float = 0.2
    eps: float = 0.05
    mesh_level: int = 5
    dt_factor: float = 0.1
    seed: int = 0
    log_base: str = "natural"

    def log_base_value(self) -> float:
        return 2.0 if self.log_base == "two" else math.e

    def validate(self, allow_critical: bool = False) -> None:
        for name in ("alpha", "r0", "zeta", "delta", "eps", "dt_factor"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.alpha <= 0.5 and not allow_critical:
            raise ValueError("alpha must exceed 1/2 (pass --allow-critical "
                             "to explore the critical exponent)")
        for name in ("r0", "zeta", "delta", "eps", "dt_factor"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.Q < 1 or self.mesh_level < 1:
            raise ValueError("invalid Q or mesh_level")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.log_base not in ("natural", "two"):
            raise ValueError("log_base must be 'natural' or 'two'")


def load_config(path) -> Config:
    cfg = Config()
    field_types = {f.name: f.type for f in fields(Config)}
    for no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{no}: expected 'key = value'")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in field_types:
            raise ValueError(f"{path}:{no}: unknown key {key!r}")
        typ = field_types[key]
        cast = {"float": float, "int": int, "str": str}[typ]
        setattr(cfg, key, cast(val))
    return cfg


def apply_overrides(cfg: Config, args) -> Config:
    for f in fields(Config):
        val = getattr(args, f.name, None)
        if val is not None:
            setattr(cfg, f.name, val)
    return cfg


def git_blob_sha1(data: bytes) -> str:
    h = hashlib.sha1()
    h.update(b"blob %d\0" % len(data))
    h.update(data)
    return h.hexdigest()


def config_echo(cfg: Config) -> str:
    return " ".join(f"{k}={v}" for k, v in asdict(cfg).items())


def command_inputs(cfg: Config, args, names) -> list:
    """What a command's output depends on, as the blobs its inputs hash
    covers: the config echo, the command's own arguments ``names`` as
    ``name=value`` and the bytes of its ``--mesh`` file when given."""
    blobs = [config_echo(cfg).encode(),
             " ".join(f"{n}={getattr(args, n)}" for n in names).encode()]
    if getattr(args, "mesh", None):
        blobs.append(Path(args.mesh).read_bytes())
    return blobs


def inputs_sha1(input_blobs: list) -> str:
    return git_blob_sha1(b"".join(input_blobs))


def output_header(cfg: Config, input_blobs: list) -> str:
    return (f"# holeflow config: {config_echo(cfg)}\n"
            f"# inputs-sha1: {inputs_sha1(input_blobs)}\n")


def _fmt(x) -> str:
    if x is None:
        return "nan"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_table(path, header: str, rows: list) -> None:
    """CSV of dict rows, with the first row's keys as the columns."""
    columns = list(rows[0]) if rows else []
    with open(path, "w") as fh:
        fh.write(header)
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")


def write_plot(path, header: str, pairs) -> None:
    with open(path, "w") as fh:
        fh.write(header)
        for a, b in pairs:
            fh.write(f"{_fmt(a)} {_fmt(b)}\n")


# ---------------------------------------------------------------- commands

def cmd_gen_fixture(cfg: Config, args) -> int:
    radius = (FIXTURE_RADIUS_FACTOR * cfg.eps if args.radius is None
              else args.radius)
    v = make_fixture(args.kind, cfg.Q, cfg.mesh_level, radius=radius,
                     spacing=args.spacing)
    write_dvar(v, args.out)
    ratio = density_ratio(v, np.zeros(3), radius / 2.0)
    print(f"wrote {args.out}: {v.num_vertices} vertices, {v.num_faces} faces, "
          f"mass {v.total_mass():.6g}, density ratio at origin {ratio:.4f}")
    return EXIT_OK


def cmd_nucleate(cfg: Config, args) -> int:
    v0 = read_dvar(args.mesh)
    t_plane = coordinate_plane(list(range(v0.surface_dim)), v0.ambient_dim)
    va = nucleate(v0, t_plane, cfg.eps, SquashMap(delta=cfg.delta))
    write_dvar(va, args.out)
    env = GrowthEnvelope(alpha=cfg.alpha, r0=cfg.r0)
    rep = verify_nucleation(v0, va, t_plane, cfg.eps, env, cfg.Q)
    ok = nucleation_passes(rep)
    for k, v in rep.items():
        print(f"  {k} = {v}")
    print(f"wrote {args.out}; surgery checks {'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_evolve(cfg: Config, args) -> int:
    v0 = read_dvar(args.mesh)
    header = output_header(cfg, command_inputs(cfg, args,
                                               ("t_end", "snapshots")))
    policy = DtPolicy(c_stab=cfg.dt_factor)
    times = np.linspace(0.0, args.t_end, args.snapshots)
    traj = evolve(v0, args.t_end, policy, snapshot_times=times)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, v in enumerate(traj.snapshots):
        write_dvar(v, out_dir / f"snapshot_{i:04d}.dvar")
    write_table(out_dir / "ledger.csv", header, traj.ledger)
    print(f"evolved to t={args.t_end:g} in {len(traj.ledger)} steps; "
          f"ledger {'valid' if traj.valid else 'INVALID: ' + traj.invalid_reason}")
    return EXIT_OK if traj.valid else EXIT_CHECK_FAILED


def cmd_verify(cfg: Config, args) -> int:
    if args.mesh:
        v = read_dvar(args.mesh)
        print(f"mesh ok: {v.num_vertices} vertices, {v.num_faces} faces")
    results = verify_mod.run_suites(cfg, suite=args.suite)
    all_ok = True
    for name, ok, detail in results:
        print(f"suite {name}: {'PASS' if ok else 'FAIL'} ({detail})")
        all_ok &= ok
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_expanding_holes(cfg: Config, args) -> int:
    v0 = read_dvar(args.mesh) if args.mesh else make_fixture(
        args.kind, cfg.Q, cfg.mesh_level,
        radius=FIXTURE_RADIUS_FACTOR * cfg.eps, spacing=args.spacing)
    t_plane = coordinate_plane(list(range(v0.surface_dim)), v0.ambient_dim)
    va = nucleate(v0, t_plane, cfg.eps, SquashMap(delta=cfg.delta))
    traj = evolve(va, window_end(cfg.eps, 1), DtPolicy(c_stab=cfg.dt_factor),
                  snapshot_times=window_times(cfg.eps, 1))
    run_cfg = ExpandingHolesConfig(t_plane=t_plane,
                                   profile=make_profile(cfg.zeta))
    rep = expanding_holes_run(rescaled_window(traj, cfg.eps, 1), run_cfg)
    meta = {"config": config_echo(cfg),
            "inputs_sha1": inputs_sha1(command_inputs(
                cfg, args, ("kind", "spacing")))}
    Path(args.out).write_text(rep.to_json(_meta=meta))
    ok = rep.dissipation_ok
    print(f"wrote {args.out}; dissipation checks "
          f"{'pass' if ok else 'FAIL'}; "
          f"ratio {rep.mass_ratio_start:.6f} -> {rep.mass_ratio_end:.6f}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_series(cfg: Config, args) -> int:
    try:
        sched = build_schedule(args.J, args.K, cfg.alpha, 2, cfg.r0,
                               log_base=cfg.log_base_value())
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    blobs = command_inputs(cfg, args, ("K", "J"))
    header = output_header(cfg, blobs)
    payload = sched.to_json_dict()
    payload["_meta"] = {"config": config_echo(cfg),
                        "inputs_sha1": inputs_sha1(blobs)}
    (out_dir / "schedule.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True))
    plot_dir = out_dir / "plot"
    plot_dir.mkdir(exist_ok=True)
    write_plot(plot_dir / "series.dat", header,
               [(q, series_term(q, cfg.alpha, 2, cfg.log_base_value()))
                for q in range(args.K, args.J)])
    print(f"wrote {out_dir / 'schedule.json'}")
    return EXIT_OK


def cmd_experiment(cfg: Config, args) -> int:
    blobs = command_inputs(cfg, args, ("j", "kind", "spacing"))
    header = output_header(cfg, blobs)
    meta = {"config": config_echo(cfg), "inputs_sha1": inputs_sha1(blobs)}
    exp_cfg = ExperimentConfig(
        eps=cfg.eps, j=args.j, q=cfg.Q, alpha=cfg.alpha, r0=cfg.r0,
        zeta=cfg.zeta, delta=cfg.delta, mesh_level=cfg.mesh_level,
        kind=args.kind, spacing=args.spacing, dt_factor=cfg.dt_factor,
        log_base=cfg.log_base_value())
    res = orchestrate(exp_cfg, keep_trajectory=True)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_table(out_dir / "experiment.csv", header, res.rows)
    write_table(out_dir / "ledger.csv", header, res.trajectory.ledger)
    for h, rep in enumerate(res.reports, start=1):
        (out_dir / f"excess_report_h{h}.json").write_text(
            rep.to_json(_meta={**meta, "h": h}))
    plot_dir = out_dir / "plot"
    plot_dir.mkdir(exist_ok=True)
    write_plot(plot_dir / "mass.dat", header,
               [(t, v.total_mass())
                for t, v in zip(res.trajectory.times, res.trajectory.snapshots)])
    write_plot(plot_dir / "ratio.dat", header,
               [(r["h"], r["ratio_after"]) for r in res.rows])
    write_plot(plot_dir / "series.dat", header,
               [(q, series_term(q, cfg.alpha, 2, cfg.log_base_value()))
                for q in range(3, 203)])
    summary = {f.name: getattr(res, f.name) for f in fields(res)
               if f.name not in BULK_FIELDS}
    summary["_meta"] = meta
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True, default=str))
    print(f"experiment {'PASS' if res.passes else 'FAIL'}: "
          f"mass {res.mass_initial:.6g} -> {res.mass_final:.6g} "
          f"(strict weighted drop: {res.lef2_lhs:.6g} < {res.lef2_rhs:.6g})")
    return EXIT_OK if res.passes else EXIT_CHECK_FAILED


def cmd_report(cfg: Config, args) -> int:
    out_dir = Path(args.dir)
    summary_path = out_dir / "summary.json"
    if not summary_path.exists():
        print(f"no summary.json under {out_dir}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    summary = json.loads(summary_path.read_text())
    for key, value in summary.items():
        if isinstance(value, float):
            print(f"  {key} = {value}")
    print(f"  passes = {summary.get('passes')}")
    return EXIT_OK if summary.get("passes") else EXIT_CHECK_FAILED


def _checked(cast, ok, what: str):
    """An argparse type: ``cast`` the text, then refuse a value that is not
    ``ok`` with "must be <what>"."""
    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    parse.__name__ = cast.__name__  # argparse's "invalid <name> value"
    return parse


_positive_float = _checked(float, lambda x: 0 < x < math.inf,
                           "positive and finite")
_finite_float = _checked(float, math.isfinite, "finite")
_non_negative_int = _checked(int, lambda n: n >= 0, "non-negative")
_positive_int = _checked(int, lambda n: n >= 1, "positive")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value configuration file")
    common.add_argument("--allow-critical", action="store_true",
                        help="permit alpha <= 1/2")
    for f in fields(Config):
        typ = {"float": float, "int": int, "str": str}[f.type]
        names = [f"--{f.name.replace('_', '-')}"]
        if f.name == "mesh_level":
            names.append("--level")
        common.add_argument(*names, type=typ, dest=f.name, default=None)

    p = argparse.ArgumentParser(
        prog="holeflow", parents=[common],
        description="Discrete-varifold mean curvature flow laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    g = add("gen-fixture", help="write a fixture mesh (DVAR)")
    g.add_argument("--kind", choices=FIXTURE_KINDS, default="flat_stack")
    g.add_argument("--radius", type=_positive_float, default=None)
    g.add_argument("--spacing", type=_finite_float, default=0.0)
    g.add_argument("--out", required=True)

    n = add("nucleate", help="open a hole at the origin")
    n.add_argument("--mesh", required=True)
    n.add_argument("--out", required=True)

    e = add("evolve", help="run the flow on a mesh")
    e.add_argument("--mesh", required=True)
    e.add_argument("--t-end", type=_positive_float, required=True)
    e.add_argument("--snapshots", type=_non_negative_int, default=21)
    e.add_argument("--out-dir", required=True)

    v = add("verify", help="run verification suites")
    v.add_argument("--suite", choices=list(verify_mod.SUITES), default=None)
    v.add_argument("--mesh", default=None)

    x = add("expanding-holes", help="one expansion window")
    x.add_argument("--mesh", default=None)
    x.add_argument("--kind", choices=FIXTURE_KINDS, default="flat_stack")
    x.add_argument("--spacing", type=_finite_float, default=0.0)
    x.add_argument("--out", default="excess_report.json")

    s = add("series", help="schedule and error-series data")
    s.add_argument("--K", type=int, required=True)
    s.add_argument("--J", type=int, required=True)
    s.add_argument("--out-dir", default="series_out")

    r = add("experiment", help="reference hole-expansion run")
    r.add_argument("--j", type=_positive_int, default=2)
    r.add_argument("--kind", choices=FIXTURE_KINDS, default="flat_stack")
    r.add_argument("--spacing", type=_finite_float, default=0.0)
    r.add_argument("--out-dir", default="experiment_out")

    t = add("report", help="summarize an experiment directory")
    t.add_argument("--dir", required=True)
    return p


COMMANDS = {
    "gen-fixture": cmd_gen_fixture,
    "nucleate": cmd_nucleate,
    "evolve": cmd_evolve,
    "verify": cmd_verify,
    "expanding-holes": cmd_expanding_holes,
    "series": cmd_series,
    "experiment": cmd_experiment,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else Config()
        apply_overrides(cfg, args)
        cfg.validate(allow_critical=args.allow_critical)
    except ValueError as e:
        parser.error(str(e))  # exits 2
    try:
        return COMMANDS[args.command](cfg, args)
    except DvarParseError as e:
        print(f"mesh parse error: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ValueError as e:  # the library refuses its input
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ResolutionExhausted as e:
        print(f"aborted: {e}", file=sys.stderr)
        return EXIT_RESOLUTION


if __name__ == "__main__":
    sys.exit(main())
