"""Command-line front end.

Subcommands: group, orbit, union, scan, verify, reproduce. Exit codes are
stable: 0 success/pass, 1 verification failure, 2 no solution, 3 usage or
input error, 4 resource limit.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .designs import strength
from .errors import (
    InputError,
    NoSolutionError,
    NumericRangeError,
    OrbitDesignsError,
    SizeLimitError,
)
from .groups import DEFAULT_MAX_ORDER, FiniteMatrixGroup, build_group, catalog_entry
from .numerics import DEFAULT_TOL, Tolerance, format_rational, parse_rational
from .orbits import LineSet, format_vector, orbit_lines, parse_vector
from .pairscan import scan
from .unions import emit_certificate, solve_union, verify_certificate


@dataclass(frozen=True)
class CliConfig:
    tol: Tolerance
    t_max: int
    fmt: str
    max_order: int


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # route argparse usage errors to exit code 3 instead of its default 2,
    # which this tool reserves for the no-solution outcome
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_common(p: argparse.ArgumentParser, t_max_default: int) -> None:
    p.add_argument("--rel-eq", type=float, default=DEFAULT_TOL.rel_eq,
                   help="relative equality tolerance")
    p.add_argument("--snap-denom-max", type=_positive_int,
                   default=DEFAULT_TOL.snap_denom_max,
                   help="largest denominator tried when snapping to rationals")
    p.add_argument("--dedup-digits", type=_positive_int,
                   default=DEFAULT_TOL.dedup_digits,
                   help="rounding digits for projective deduplication keys")
    p.add_argument("--max-order", type=_positive_int, default=DEFAULT_MAX_ORDER,
                   help="abort a group closure or an orbit walk that passes "
                        "this many elements or lines")
    p.add_argument("--tmax", type=_positive_int, default=t_max_default,
                   help="largest design order probed")
    p.add_argument("--format", choices=("table", "json"), default="table",
                   help="output format")


def _build_parser() -> _Parser:
    parser = _Parser(prog="orbitdesigns",
                     description="weighted designs from unions of group orbits")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", parents=[], help="build a group and summarize it")
    p.add_argument("spec", help="group spec, e.g. 'G(2,1,4)', 'binI', 'H3'")
    _add_common(p, 12)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("orbit", help="orbit a seed vector and report strength")
    p.add_argument("spec")
    p.add_argument("--seed", required=True,
                   help="seed vector literal or @k catalog reference")
    p.add_argument("--dump", action="store_true", help="print the lines")
    _add_common(p, 12)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("union", help="solve the two-orbit weighting quadratic")
    p.add_argument("spec")
    p.add_argument("--x", required=True, help="first seed (literal or @k)")
    p.add_argument("--y", required=True, help="second seed (literal or @k)")
    p.add_argument("--t", type=_positive_int, required=True)
    p.add_argument("--emit", metavar="PATH", help="write a certificate JSON")
    _add_common(p, 12)
    p.set_defaults(func=cmd_union)

    p = sub.add_parser("scan", help="randomized two-orbit identity scan")
    p.add_argument("spec")
    p.add_argument("--samples", type=_positive_int, default=20)
    p.add_argument("--seed", type=int, default=0, help="PRNG seed")
    _add_common(p, 10)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="re-verify a certificate file")
    p.add_argument("path")
    _add_common(p, 12)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reproduce", help="re-derive tabulated weightings")
    p.add_argument("table", choices=("A", "B", "D", "C2", "H", "all"))
    _add_common(p, 12)
    p.set_defaults(func=cmd_reproduce)

    return parser


def _config(args) -> CliConfig:
    try:
        tol = Tolerance(rel_eq=args.rel_eq, snap_denom_max=args.snap_denom_max,
                        dedup_digits=args.dedup_digits)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return CliConfig(tol=tol, t_max=args.tmax, fmt=args.format, max_order=args.max_order)


def _emit(payload: dict, fmt: str, lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))


def _resolve_seed(group_label: str, text: str) -> tuple[np.ndarray, str]:
    """A seed literal, or '@k' for the k-th catalog seed of the group."""
    if text.startswith("@"):
        try:
            k = int(text[1:])
        except ValueError:
            raise InputError(f"bad catalog reference {text!r}") from None
        entry = catalog_entry(group_label)
        if not 1 <= k <= len(entry.seeds):
            raise InputError(
                f"{group_label} has catalog seeds @1..@{len(entry.seeds)}")
        seed = entry.seeds[k - 1]
        return seed, format_vector(np.asarray(seed))
    v = parse_vector(text)
    return v, text


def _orbit(group: FiniteMatrixGroup, label: str, text: str,
           cfg: CliConfig) -> LineSet:
    seed, literal = _resolve_seed(label, text)
    return orbit_lines(group, seed, cfg.tol, seed_literal=literal)


def cmd_group(args, cfg: CliConfig) -> int:
    g = build_group(args.spec, cfg.tol, cfg.max_order)
    deviation = g.unitarity_deviation()
    payload = {
        "group": g.spec.label,
        "order": g.order,
        "dim": g.dim,
        "field": g.field,
        "unitarity_deviation": deviation,
    }
    _emit(payload, cfg.fmt, [
        f"group: {g.spec.label}",
        f"order: {g.order}",
        f"dim: {g.dim}",
        f"field: {g.field}",
        f"unitarity deviation: {deviation:.3e}",
    ])
    return 0


def cmd_orbit(args, cfg: CliConfig) -> int:
    g = build_group(args.spec, cfg.tol, cfg.max_order)
    X = _orbit(g, args.spec, args.seed, cfg)
    rep = strength(X, cfg.t_max, cfg.tol)
    payload = {
        "group": g.spec.label,
        "seed": X.seed_literal,
        "lines": X.n_lines,
        "strength": rep.strength,
        "residuals": {str(t): rep.residual_at(t) for t in rep.t_values},
    }
    out = [
        f"group: {g.spec.label}",
        f"seed: {X.seed_literal}",
        f"lines: {X.n_lines}",
        f"strength: {rep.strength}",
        "t  residual",
    ]
    out += [f"{t:<2d} {rep.residual_at(t):+.3e}" for t in rep.t_values]
    if args.dump:
        payload["line_vectors"] = [format_vector(row) for row in X.lines]
        out += ["lines:"] + [f"  {format_vector(row)}" for row in X.lines]
    _emit(payload, cfg.fmt, out)
    return 0


def _root_payload(root) -> dict:
    return {
        "alpha": root.alpha,
        "beta": [format_rational(b) for b in root.beta] if root.beta else None,
        "w_hat": [format_rational(w) for w in root.w_hat] if root.w_hat else None,
        "residual": root.residual,
        "convex": root.convex,
        "boundary": root.boundary,
        "double_root": root.from_double_root,
    }


def cmd_union(args, cfg: CliConfig) -> int:
    g = build_group(args.spec, cfg.tol, cfg.max_order)
    X = _orbit(g, args.spec, args.x, cfg)
    Y = _orbit(g, args.spec, args.y, cfg)
    sol = solve_union(X, Y, args.t, cfg.tol, cfg.t_max)
    q = sol.quad
    payload = {
        "group": g.spec.label,
        "t": sol.t,
        "lines": [X.n_lines, Y.n_lines],
        "coefficients": {"A": q.a, "B": q.b, "C": q.c},
        "potentials": {"b_xx": q.b_xx, "b_yy": q.b_yy, "b_xy": q.b_xy},
        "c_t": format_rational(q.c_t),
        "discriminant": sol.discriminant,
        "degenerate": sol.degenerate,
        "roots": [_root_payload(r) for r in sol.roots],
        "preferred": sol.preferred,
    }
    out = [
        f"group: {g.spec.label} (t = {sol.t})",
        f"X: {X.n_lines} lines (seed {X.seed_literal})",
        f"Y: {Y.n_lines} lines (seed {Y.seed_literal})",
        f"coefficients: A = {q.a:.12g}, B = {q.b:.12g}, C = {q.c:.12g}",
        f"potentials: b_xx = {q.b_xx:.12g}, b_yy = {q.b_yy:.12g}, "
        f"b_xy = {q.b_xy:.12g}, c_t = {format_rational(q.c_t)}",
        f"discriminant: {sol.discriminant:.12g}",
    ]
    if sol.degenerate:
        out.append("degenerate: every affine weighting of X and Y is a design")
        _emit(payload, cfg.fmt, out)
        return 0
    if sol.empty:
        out.append("no real root: this pair admits no union weighting")
        _emit(payload, cfg.fmt, out)
        return 2
    for i, r in enumerate(sol.roots):
        mark = " (preferred)" if i == sol.preferred else ""
        beta = ("beta = (%s, %s)" % tuple(format_rational(b) for b in r.beta)
                if r.beta else f"alpha = {r.alpha:.12g} (no snap)")
        what = (", w_hat = (%s, %s)" % tuple(format_rational(w) for w in r.w_hat)
                if r.w_hat else "")
        out.append(f"root {i}: {beta}{what}, residual {r.residual:.3e}{mark}")
    if sol.verified is not None:
        payload["verified_strength"] = sol.verified.strength
        payload["union_lines"] = sol.union.n_lines
        out.append(f"verified strength: {sol.t}-{sol.verified.strength}"
                   if sol.verified.strength > sol.t
                   else f"verified strength: {sol.verified.strength}")
    best = sol.preferred_root
    if best is not None and best.beta is not None:
        cert = emit_certificate(sol, X, Y, path=args.emit)
        payload["certificate"] = cert
        if args.emit:
            out.append(f"certificate written: {args.emit}")
    _emit(payload, cfg.fmt, out)
    return 0


def cmd_scan(args, cfg: CliConfig) -> int:
    g = build_group(args.spec, cfg.tol, cfg.max_order)
    rep = scan(g, cfg.t_max, args.samples, args.seed, cfg.tol)
    payload = {
        "group": g.spec.label,
        "seed": rep.seed,
        "samples": rep.samples,
        "t_max": rep.t_max,
        "verdicts": list(rep.verdicts),
        "unanimous": list(rep.unanimous),
        "max_residuals": list(rep.max_residuals),
        "t_generic": rep.t_generic,
        "t_pairs": list(rep.t_pairs) if rep.t_pairs else None,
    }
    pairs = f"{rep.t_pairs[0]}-{rep.t_pairs[1]}" if rep.t_pairs else "{}"
    out = [
        f"group: {g.spec.label} (order {g.order}, dim {g.dim}, {g.field})",
        f"seed: {rep.seed}, samples: {rep.samples}",
        "t  verdict        max residual  unanimous",
    ]
    for t in range(1, rep.t_max + 1):
        res = rep.max_residuals[t - 1]
        res_s = f"{res:.3e}" if res is not None else "-"
        out.append(f"{t:<2d} {rep.verdicts[t - 1]:<14s} {res_s:<13s} "
                   f"{'yes' if rep.unanimous[t - 1] else 'no'}")
    out += [f"t_generic: {rep.t_generic}", f"t_pairs: {pairs}"]
    _emit(payload, cfg.fmt, out)
    return 0


def cmd_verify(args, cfg: CliConfig) -> int:
    result = verify_certificate(args.path, cfg.tol)
    payload = {
        "passed": result.passed,
        "reasons": list(result.reasons),
        "residuals": {str(t): {"stored": s, "recomputed": r}
                      for t, (s, r) in result.residuals.items()},
    }
    out = ["t  stored        recomputed"]
    for t, (stored, recomputed) in sorted(result.residuals.items()):
        out.append(f"{t:<2d} {stored:+.3e}    {recomputed:+.3e}")
    out += [f"reason: {r}" for r in result.reasons]
    out.append("PASS" if result.passed else "FAIL")
    _emit(payload, cfg.fmt, out)
    return 0 if result.passed else 1


def _load_expectations() -> list[dict]:
    text = resources.files("orbitdesigns").joinpath("expectations.csv").read_text()
    return list(csv.DictReader(text.splitlines()))


def _run_expectation(row: dict, cfg: CliConfig) -> tuple[bool, str]:
    label = row["group"]
    t = int(row["t"])
    g = build_group(label, cfg.tol, cfg.max_order)
    X = _orbit(g, label, row["seedX"], cfg)
    if not row["seedY"]:
        rep = strength(X, max(cfg.t_max, t), cfg.tol)
        desc = f"{label} single orbit {X.n_lines} lines: strength {rep.strength}"
        return rep.strength >= t, desc
    Y = _orbit(g, label, row["seedY"], cfg)
    sol = solve_union(X, Y, t, cfg.tol, cfg.t_max)
    shape = f"{label} ({X.n_lines}+{Y.n_lines} lines, t={t})"
    if not row["betaX"]:
        return sol.empty, f"{shape}: expected no real root"
    expect_beta = (parse_rational(row["betaX"]), parse_rational(row["betaY"]))
    best = sol.preferred_root
    got_beta = best.beta if best is not None else None
    if got_beta != expect_beta:
        return False, (f"{shape}: beta {_fmt_pair(got_beta)} != expected "
                       f"{_fmt_pair(expect_beta)}")
    if row["whatX"]:
        expect_what = (parse_rational(row["whatX"]), parse_rational(row["whatY"]))
        if best.w_hat != expect_what:
            return False, (f"{shape}: w_hat {_fmt_pair(best.w_hat)} != expected "
                           f"{_fmt_pair(expect_what)}")
    residual = abs(sol.verified.residual_at(t)) if sol.verified else float("inf")
    if residual > 1e-9:
        return False, f"{shape}: design residual {residual:.3e} exceeds 1e-9"
    return True, f"{shape}: beta = {_fmt_pair(got_beta)}"


def _fmt_pair(pair) -> str:
    if pair is None:
        return "(none)"
    return "(%s, %s)" % tuple(format_rational(p) for p in pair)


def cmd_reproduce(args, cfg: CliConfig) -> int:
    rows = _load_expectations()
    if args.table != "all":
        rows = [r for r in rows if r["table"] == args.table]
    if not rows:
        raise InputError(f"no expectation rows for table {args.table!r}")
    results = []
    for row in rows:
        ok, desc = _run_expectation(row, cfg)
        results.append({"table": row["table"], "ok": ok, "description": desc})
        if cfg.fmt == "table":
            print(f"[{'PASS' if ok else 'FAIL'}] {row['table']}: {desc}")
    failed = sum(1 for r in results if not r["ok"])
    if cfg.fmt == "json":
        print(json.dumps({"rows": results, "failed": failed}, indent=2))
    else:
        print(f"{len(results) - failed}/{len(results)} rows reproduced")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config(args)
        return args.func(args, cfg)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except (SizeLimitError, NumericRangeError) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 4
    except NoSolutionError as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return 2
    except OrbitDesignsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
