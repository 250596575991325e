"""Command-line verification tool.

Subcommands:
  check-complex FILE   load a chain complex, verify shapes and D D = 0
  hodge FILE           harmonic/cohomology dimension report per degree
  parametrix FILE      Green operator identities at one degree
  ellipticity FILE     exactness scan of a symbol sample set
  torus-demo           de Rham, embedding and regularity suites on a torus

Every pass/fail line names the identity it checks by its formula.  Exit code
0 means all checks passed, 1 means some verified identity or expected value
failed, 2 means the input could not be parsed or validated, or a linear
algebra routine failed on it.  With --format json the report is
deterministic byte for byte for a fixed seed and configuration.

torus-demo refuses, with exit 2, a geometry whose largest form fiber (the
fiber tensored with the C(n, n // 2) middle-degree exterior slots) has
rank * dim(A) above module.MAX_MODULE_DIM, besides its caps on modes and
exterior slots.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import serial
from .algebra import AlgebraSpec
from .chain import verify_chain_map
from .errors import CStarHodgeError, ValidationError
from .module import ModuleSpec
from .symbol import elliptic_scan
from .torus import (
    TorusGeometry,
    embedding_check,
    harmonic_rank_report,
    random_section,
    regularity_report,
)
from .util import rng_for

RESIDUAL_NAMES = {
    "green_laplacian_plus_projector": "g lap + p = 1",
    "laplacian_green_plus_projector": "lap g + p = 1",
    "laplacian_kills_projector": "lap p = 0",
    "green_kills_projector": "g p = 0",
    "projector_idempotent": "p p = p",
    "projector_after_differential": "p[i+1] D[i] = 0",
    "green_commutes_with_differential": "D[i] g[i] = g[i+1] D[i]",
    "green_commutes": "D[i] g[i] = g[i+1] D[i]",
    "laplacian_commutes": "D[i] lap[i] = lap[i+1] D[i]",
    "differential_after_projector": "D[i] p[i] = 0",
}


@dataclass(frozen=True)
class RunConfig:
    """Shared run parameters; tolerance must dominate the rank cutoff."""

    tolerance: float = 1e-8
    cutoff: float = 1e-10
    seed: int = 0
    fmt: str = "text"

    def validate(self):
        if not (math.isfinite(self.tolerance) and math.isfinite(self.cutoff)):
            raise ValidationError(
                f"need finite tolerance and cutoff, got tolerance={self.tolerance:g} "
                f"cutoff={self.cutoff:g}"
            )
        if not (self.tolerance > self.cutoff > 0.0):
            raise ValidationError(
                f"need tolerance > cutoff > 0, got tolerance={self.tolerance:g} "
                f"cutoff={self.cutoff:g}"
            )

    def as_data(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "cutoff": self.cutoff,
            "seed": self.seed,
        }


def _check_le(name: str, value: float, bound: float) -> dict:
    return {
        "name": name,
        "kind": "le",
        "value": float(value),
        "bound": float(bound),
        "passed": bool(value <= bound),
    }


def _check_eq(name: str, value, expected) -> dict:
    return {
        "name": name,
        "kind": "eq",
        "value": value,
        "expected": expected,
        "passed": bool(value == expected),
    }


def _residual_checks(residuals: dict, tol: float) -> list:
    out = []
    for key in sorted(residuals):
        if key not in RESIDUAL_NAMES:
            continue
        out.append(_check_le(RESIDUAL_NAMES[key], residuals[key], tol))
    return out


def _section_passed(section: dict) -> bool:
    return all(c["passed"] for c in section["checks"])


def _finish(report: dict) -> tuple:
    passed = all(_section_passed(s) for s in report["sections"])
    report["passed"] = passed
    return report, passed


# -- commands ------------------------------------------------------------------------


def cmd_check_complex(args, config: RunConfig) -> tuple:
    cx = serial.load_complex(args.file, tol=config.tolerance)
    checks = [
        _check_le(f"D[{i + 1}] D[{i}] = 0", r, config.tolerance)
        for i, r in enumerate(cx.square_residuals())
    ]
    report = {
        "schema": serial.REPORT_SCHEMA,
        "command": "check-complex",
        "input": args.file,
        "config": config.as_data(),
        "algebra_blocks": list(cx.algebra.block_sizes),
        "module_ranks": [m.rank for m in cx.modules],
        "concrete_dims": [m.concrete_dim for m in cx.modules],
        "sections": [{"title": "complex", "info": {}, "checks": checks}],
    }
    return _finish(report)


def cmd_hodge(args, config: RunConfig) -> tuple:
    cx = serial.load_complex(args.file, tol=config.tolerance)
    degrees = [args.degree] if args.degree is not None else list(range(len(cx.modules)))
    reps = [cx.cohomology_report(i, cutoff=config.cutoff, tol=config.tolerance) for i in degrees]
    sections = []
    for i, rep in zip(degrees, reps):
        checks = _residual_checks(rep.residuals, config.tolerance)
        checks.append(
            _check_eq("harmonic dim = cohomology dim", rep.harmonic_dim, rep.cohomology_dim)
        )
        info = {
            "module_dim": rep.module_dim,
            "harmonic_dim": rep.harmonic_dim,
            "cohomology_dim": rep.cohomology_dim,
            "free_rank": rep.free_rank,
            "rank_margin": rep.rank_margin,
        }
        sections.append({"title": f"degree {i}", "info": info, "checks": checks})

    chain_map = verify_chain_map(cx, cx.parametrix_family(config.cutoff), config.tolerance)
    cm_checks = []
    for entry in chain_map["degrees"]:
        for key, value in sorted(entry.items()):
            if key in RESIDUAL_NAMES:
                cm_checks.append(
                    _check_le(
                        RESIDUAL_NAMES[key].replace("[i]", f"[{entry['degree']}]")
                        .replace("[i+1]", f"[{entry['degree'] + 1}]"),
                        value,
                        config.tolerance,
                    )
                )
    sections.append({"title": "chain map", "info": {}, "checks": cm_checks})

    report = {
        "schema": serial.REPORT_SCHEMA,
        "command": "hodge",
        "input": args.file,
        "config": config.as_data(),
        "algebra_blocks": list(cx.algebra.block_sizes),
        "harmonic_dims": [rep.harmonic_dim for rep in reps],
        "sections": sections,
    }
    return _finish(report)


def cmd_parametrix(args, config: RunConfig) -> tuple:
    cx = serial.load_complex(args.file, tol=config.tolerance)
    par = cx.parametrix(args.degree, cutoff=config.cutoff)
    checks = _residual_checks(par.residuals(), config.tolerance)
    info = {
        "degree": args.degree,
        "green_norm": par.green.norm(),
        "projector_norm": par.projector.norm(),
    }
    report = {
        "schema": serial.REPORT_SCHEMA,
        "command": "parametrix",
        "input": args.file,
        "config": config.as_data(),
        "sections": [{"title": f"degree {args.degree}", "info": info, "checks": checks}],
    }
    return _finish(report)


def cmd_ellipticity(args, config: RunConfig) -> tuple:
    samples = serial.load_sample_set(args.file, tol=config.tolerance)
    cert = elliptic_scan(samples, cutoff=config.cutoff)
    records = []
    for rec in sorted(cert.records, key=lambda r: r["tag"]):
        records.append(
            {
                "tag": rec["tag"],
                "degrees": [
                    {
                        "degree": d.degree,
                        "exact": d.exact,
                        "spectral_margin": d.spectral_margin,
                        "decision_margin": d.decision_margin,
                    }
                    for d in rec["degrees"]
                ],
            }
        )
    checks = [
        _check_eq("every sampled symbol sequence exact (verdict elliptic)", cert.verdict, "elliptic")
    ]
    report = {
        "schema": serial.REPORT_SCHEMA,
        "command": "ellipticity",
        "input": args.file,
        "config": config.as_data(),
        "verdict": cert.verdict,
        "samples": cert.samples,
        "min_spectral_margin": cert.min_spectral_margin,
        "min_decision_margin": cert.min_decision_margin,
        "notes": list(cert.notes),
        "records": records,
        "sections": [{"title": "certificate", "info": {
            "verdict": cert.verdict,
            "samples": cert.samples,
            "min_spectral_margin": cert.min_spectral_margin,
            "min_decision_margin": cert.min_decision_margin,
        }, "checks": checks}],
    }
    return _finish(report)


def _parse_fiber(spec: str) -> tuple:
    try:
        rank_part, _, block_part = spec.partition("x")
        rank = int(rank_part)
        blocks = tuple(int(b) for b in block_part.split(","))
        if rank < 1 or not blocks or any(b < 1 for b in blocks):
            raise ValueError
        return rank, blocks
    except ValueError:
        raise ValidationError(
            f"fiber spec {spec!r}: expected RANKxB1,B2,... e.g. 1x2 or 2x2,1"
        )


def _demo_derham(geometry: TorusGeometry, config: RunConfig) -> dict:
    reports = harmonic_rank_report(geometry, cutoff=config.cutoff)
    checks = []
    ranks = []
    zero_mode = [list([0] * geometry.dimension)]
    for rep in reports:
        k = rep["degree"]
        checks.append(
            _check_le(
                f"mode Laplacian[{k}] = 4 pi^2 |q|^2 id",
                rep["max_multiplier_residual"],
                config.tolerance,
            )
        )
        if k < geometry.dimension - 1:
            checks.append(
                _check_le(
                    f"D[{k + 1}] D[{k}] = 0 per mode",
                    rep["max_square_residual"],
                    config.tolerance,
                )
            )
        checks.append(
            _check_eq(
                f"harmonic modes[{k}] = {{0}}",
                [list(q) for q in rep["kernel_modes"]],
                zero_mode,
            )
        )
        checks.append(
            _check_eq(
                f"harmonic concrete dim[{k}]", rep["harmonic_dim"], rep["expected_dim"]
            )
        )
        if rep["expected_free_rank"] is not None:
            checks.append(
                _check_eq(
                    f"harmonic free rank[{k}] = C(n,{k}) r",
                    rep["free_rank"],
                    rep["expected_free_rank"],
                )
            )
        ranks.append(rep["free_rank"])
    return {
        "title": "de Rham harmonic ranks",
        "info": {"harmonic_free_ranks": ranks},
        "checks": checks,
    }


def _demo_embedding(geometry: TorusGeometry, args, config: RunConfig) -> dict:
    n = geometry.dimension
    t = args.t if args.t is not None else float(n + 1)
    alphas = [tuple([0] * n)] + [
        tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
    ]
    worst = 0.0
    failures = 0
    for i in range(args.sections):
        s = random_section(geometry, 0, rng_for(config.seed, "cli-embedding", i))
        for alpha in alphas:
            rep = embedding_check(s, t, alpha)
            if not rep["passed"]:
                failures += 1
            if rep["bound"] > 0:
                worst = max(worst, rep["sup_grid"] / rep["bound"])
    checks = [
        _check_eq("sup |d^a s| <= C |s|_t for all sections", failures, 0),
        _check_le("worst observed sup/bound ratio", worst, 1.0),
    ]
    return {
        "title": "embedding inequality",
        "info": {
            "t": t,
            "alphas": [list(a) for a in alphas],
            "sections": args.sections,
            "worst_ratio": worst,
        },
        "checks": checks,
    }


def _demo_regularity(geometry: TorusGeometry, args, config: RunConfig) -> dict:
    worst_res = 0.0
    gain_fail = 0
    support_fail = 0
    gain_constant = None
    for i in range(args.sections):
        f = random_section(geometry, 0, rng_for(config.seed, "cli-regularity", i))
        rep = regularity_report(geometry, 0, f, cutoff=config.cutoff)
        worst_res = max(worst_res, rep.solve_residual)
        gain_fail += sum(0 if g["passed"] else 1 for g in rep.gains)
        if not (rep.supports_agree and rep.kernel_is_zero_mode):
            support_fail += 1
        gain_constant = rep.gain_constant
    checks = [
        _check_le("|lap u - (f - Pf)|_0 = 0", worst_res, 1e-9),
        _check_eq("|u|_{t+2} <= C |f|_t for all t", gain_fail, 0),
        _check_eq("kernel support = zero mode for all t", support_fail, 0),
    ]
    return {
        "title": "elliptic regularity",
        "info": {"sections": args.sections, "gain_constant": gain_constant},
        "checks": checks,
    }


def cmd_torus_demo(args, config: RunConfig) -> tuple:
    if args.t is not None and not math.isfinite(args.t):
        raise ValidationError(f"need a finite Sobolev index, got --t {args.t:g}")
    rank, blocks = _parse_fiber(args.fiber)
    geometry = TorusGeometry(args.n, args.band, ModuleSpec(AlgebraSpec(blocks), rank))
    suites = ["derham", "embedding", "regularity"] if args.suite == "all" else [args.suite]
    sections = []
    for suite in suites:
        if suite == "derham":
            sections.append(_demo_derham(geometry, config))
        elif suite == "embedding":
            sections.append(_demo_embedding(geometry, args, config))
        else:
            sections.append(_demo_regularity(geometry, args, config))
    report = {
        "schema": serial.REPORT_SCHEMA,
        "command": "torus-demo",
        "config": config.as_data(),
        "geometry": {
            "dimension": geometry.dimension,
            "band_limit": geometry.band_limit,
            "fiber_rank": rank,
            "algebra_blocks": list(blocks),
            "num_modes": geometry.num_modes,
        },
        "suites": suites,
        "sections": sections,
    }
    return _finish(report)


# -- rendering ---------------------------------------------------------------------------


def _fmt_value(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    if isinstance(v, (list, tuple)):
        return "(" + ", ".join(_fmt_value(x) for x in v) + ")"
    if isinstance(v, dict):
        return " ".join(f"{k}={_fmt_value(x)}" for k, x in v.items())
    return str(v)


def render_text(report: dict) -> str:
    lines = [f"{report['command']}" + (f": {report['input']}" if "input" in report else "")]
    for key in ("algebra_blocks", "module_ranks", "concrete_dims", "harmonic_dims", "verdict", "geometry"):
        if key in report:
            lines.append(f"{key.replace('_', ' ')}: {_fmt_value(report[key])}")
    for section in report["sections"]:
        lines.append(f"[{section['title']}]")
        for key, value in section["info"].items():
            lines.append(f"  {key.replace('_', ' ')}: {_fmt_value(value)}")
        for c in section["checks"]:
            status = "pass" if c["passed"] else "FAIL"
            if c["kind"] == "le":
                lines.append(
                    f"  {c['name']}: residual {c['value']:.3e} <= {c['bound']:.3e}  {status}"
                )
            else:
                lines.append(
                    f"  {c['name']}: {_fmt_value(c['value'])} "
                    f"expected {_fmt_value(c['expected'])}  {status}"
                )
    lines.append(f"result: {'PASS' if report['passed'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return serial.dump_json(report)
    return render_text(report)


# -- argument parsing ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cstarhodge",
        description="Verification tool for Hodge theory over finite-dimensional "
        "C*-algebras: chain complexes of Hilbert modules, Green operators, "
        "harmonic spaces, symbol ellipticity and a torus de Rham laboratory.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-8, help="residual tolerance (default 1e-8)")
    common.add_argument("--cutoff", type=float, default=1e-10, help="singular value rank cutoff (default 1e-10)")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized suites (default 0)")
    common.add_argument("--format", choices=("text", "json"), default="text", help="report format")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-complex", parents=[common], help="validate a chain complex file")
    p.add_argument("file")
    p.set_defaults(run=cmd_check_complex)

    p = sub.add_parser("hodge", parents=[common], help="harmonic and cohomology dimensions")
    p.add_argument("file")
    p.add_argument("--degree", type=int, default=None, help="restrict to one degree")
    p.set_defaults(run=cmd_hodge)

    p = sub.add_parser("parametrix", parents=[common], help="Green operator identities at a degree")
    p.add_argument("file")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(run=cmd_parametrix)

    p = sub.add_parser("ellipticity", parents=[common], help="scan a symbol sample set")
    p.add_argument("file")
    p.set_defaults(run=cmd_ellipticity)

    p = sub.add_parser("torus-demo", parents=[common], help="torus de Rham demonstrations")
    p.add_argument("--n", type=int, required=True, help="torus dimension")
    p.add_argument("--band", type=int, required=True, help="Fourier band limit")
    p.add_argument("--fiber", required=True, help="fiber spec RANKxB1,B2 e.g. 1x2")
    p.add_argument(
        "--suite",
        choices=("derham", "embedding", "regularity", "all"),
        default="all",
    )
    p.add_argument("--sections", type=int, default=20, help="random sections per suite")
    p.add_argument("--t", type=float, default=None, help="Sobolev index for the embedding suite")
    p.set_defaults(run=cmd_torus_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(
        tolerance=args.tol, cutoff=args.cutoff, seed=args.seed, fmt=args.format
    )
    try:
        config.validate()
        report, passed = args.run(args, config)
    except CStarHodgeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as e:
        print(f"error: numerical failure: {e}", file=sys.stderr)
        return 2
    sys.stdout.write(render(report, config.fmt))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
