"""Command-line front end.

Subcommands: group, orbit, union, scan, verify, reproduce. Exit codes are
stable: 0 success/pass, 1 verification failure, 2 no solution, 3 usage or
input error, 4 resource limit, 141 stdout closed by its reader.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction
from importlib import resources
from typing import TYPE_CHECKING

import numpy as np

from .designs import strength
from .errors import (
    InputError,
    NumericRangeError,
    OrbitDesignsError,
    SizeLimitError,
)
from .orbits import LineSet, format_vector, orbit_lines, parse_vector
from .unions import emit_certificate, solve_union, verify_certificate

if TYPE_CHECKING:  # not at run time: verify loads neither groups nor pairscan
    from .groups import FiniteMatrixGroup


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


def _add_common(p: argparse.ArgumentParser, t_max: int | None) -> None:
    if t_max is not None:
        p.add_argument("--tmax", type=_positive_int, default=t_max,
                       help="largest design order probed or verified")
    p.add_argument("--format", choices=("table", "json"), default="table",
                   help="output format")


def _build_parser() -> _Parser:
    parser = _Parser(prog="orbitdesigns",
                     description="weighted designs from unions of group orbits")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="build a group and summarize it")
    p.add_argument("spec", help="group spec, e.g. 'G(2,1,4)', 'binI', 'H3'")
    _add_common(p, None)
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

    p = sub.add_parser("scan", help="two-orbit identity scan: exact verdicts from "
                                    "invariant counts, cross-checked on random pairs")
    p.add_argument("spec")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed")
    _add_common(p, 10)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="re-verify a certificate file")
    p.add_argument("path")
    _add_common(p, 12)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reproduce", help="re-derive tabulated weightings")
    p.add_argument("table", help="a table of expectations.csv, or 'all'")
    _add_common(p, None)
    p.set_defaults(func=cmd_reproduce)

    return parser


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
        from .groups import catalog_entry
        entry = catalog_entry(group_label)
        if not 1 <= k <= len(entry.seeds):
            raise InputError(
                f"{group_label} has catalog seeds @1..@{len(entry.seeds)}")
        seed = entry.seeds[k - 1]
        return seed, format_vector(np.asarray(seed))
    v = parse_vector(text)
    return v, text


def _orbit(group: FiniteMatrixGroup, label: str, text: str) -> LineSet:
    seed, literal = _resolve_seed(label, text)
    return orbit_lines(group, seed, seed_literal=literal)


def _closable_group(text: str) -> FiniteMatrixGroup:
    """The group of a spec text, refused by groups.closure_limit before it is built."""
    from .groups import build_group, closure_limit, parse_group_spec
    spec = parse_group_spec(text)
    closure_limit(spec)
    return build_group(spec)


def cmd_group(args) -> int:
    g = _closable_group(args.spec)
    order = len(g.elements)  # the closure checks the family's order, if it has one
    deviation = max(g.unitarity_deviations)
    payload = {
        "group": g.spec.label,
        "order": order,
        "dim": g.dim,
        "field": g.field,
        "unitarity_deviation": deviation,
    }
    _emit(payload, args.format, [
        f"group: {g.spec.label}",
        f"order: {order}",
        f"dim: {g.dim}",
        f"field: {g.field}",
        f"unitarity deviation: {deviation:.3e}",
    ])
    return 0


def cmd_orbit(args) -> int:
    from .groups import build_group
    g = build_group(args.spec)
    X = _orbit(g, args.spec, args.seed)
    rep = strength(X, args.tmax)
    payload = {
        "group": g.spec.label,
        "seed": X.seed_literal,
        "lines": X.n_lines,
        "strength": rep.strength,
        "residuals": {str(t): r for t, r in enumerate(rep.residuals, start=1)},
    }
    out = [
        f"group: {g.spec.label}",
        f"seed: {X.seed_literal}",
        f"lines: {X.n_lines}",
        f"strength: {rep.strength}",
        "t  residual",
    ]
    out += [f"{t:<2d} {r:+.3e}" for t, r in enumerate(rep.residuals, start=1)]
    if args.dump:
        payload["line_vectors"] = [format_vector(row) for row in X.lines]
        out += ["lines:"] + [f"  {format_vector(row)}" for row in X.lines]
    _emit(payload, args.format, out)
    return 0


def _root_payload(root) -> dict:
    return {
        "alpha": root.alpha,
        "beta": [str(b) for b in root.beta] if root.beta else None,
        "w_hat": [str(w) for w in root.w_hat] if root.w_hat else None,
        "residual": root.residual,
        "convex": root.convex,
        "boundary": root.boundary,
        "double_root": True,  # every real root of the union quadratic is double
    }


def cmd_union(args) -> int:
    from .groups import build_group
    g = build_group(args.spec)
    X = _orbit(g, args.spec, args.x)
    Y = _orbit(g, args.spec, args.y)
    sol = solve_union(X, Y, args.t, args.tmax)
    q = sol.quad
    payload = {
        "group": g.spec.label,
        "t": sol.t,
        "lines": [X.n_lines, Y.n_lines],
        "coefficients": {"A": q.a, "B": q.b, "C": q.c},
        "potentials": {"b_xx": q.b_xx, "b_yy": q.b_yy, "b_xy": q.b_xy},
        "c_t": str(q.c_t),
        "discriminant": sol.discriminant,
        "degenerate": sol.degenerate,
        "roots": [_root_payload(sol.root)] if sol.root else [],
        "preferred": 0 if sol.root else None,
    }
    out = [
        f"group: {g.spec.label} (t = {sol.t})",
        f"X: {X.n_lines} lines (seed {X.seed_literal})",
        f"Y: {Y.n_lines} lines (seed {Y.seed_literal})",
        f"coefficients: A = {q.a:.12g}, B = {q.b:.12g}, C = {q.c:.12g}",
        f"potentials: b_xx = {q.b_xx:.12g}, b_yy = {q.b_yy:.12g}, "
        f"b_xy = {q.b_xy:.12g}, c_t = {q.c_t}",
        f"discriminant: {sol.discriminant:.12g}",
    ]
    if sol.degenerate:
        out.append("degenerate: every affine weighting of X and Y is a design")
        if args.emit:
            print("no certificate written: the pair is degenerate and has no root",
                  file=sys.stderr)
        _emit(payload, args.format, out)
        return 0
    if sol.empty:
        out.append("no real root: this pair admits no union weighting")
        _emit(payload, args.format, out)
        return 2
    r = sol.root
    beta = f"beta = {_fmt_pair(r.beta)}" if r.beta else f"alpha = {r.alpha:.12g} (no snap)"
    what = f", w_hat = {_fmt_pair(r.w_hat)}" if r.w_hat else ""
    out.append(f"root 0: {beta}{what}, residual {r.residual:.3e} (preferred)")
    if sol.verified is not None:
        cert = emit_certificate(sol, X, Y, path=args.emit)
        payload["verified_strength"] = sol.verified.strength
        payload["union_lines"] = len(cert["lines"])
        payload["certificate"] = cert
        out.append(f"verified strength: {sol.t}-{sol.verified.strength}"
                   if sol.verified.strength > sol.t
                   else f"verified strength: {sol.verified.strength}")
        if args.emit:
            out.append(f"certificate written: {args.emit}")
    elif args.emit:
        print("no certificate written: root 0 did not snap to a rational", file=sys.stderr)
    _emit(payload, args.format, out)
    return 0


def cmd_scan(args) -> int:
    from .pairscan import SAMPLES, scan
    g = _closable_group(args.spec)
    rep = scan(g, args.tmax, args.seed)
    payload = {
        "group": g.spec.label,
        "seed": args.seed,
        "samples": SAMPLES,
        "t_max": args.tmax,
        "verdicts": list(rep.verdicts),
        "unanimous": list(rep.unanimous),
        "max_residuals": list(rep.max_residuals),
        "t_generic": rep.t_generic,
        "t_pairs": list(rep.t_pairs) if rep.t_pairs else None,
        "harmonic_invariants": list(rep.harmonic_invariants),
    }
    pairs = f"{rep.t_pairs[0]}-{rep.t_pairs[1]}" if rep.t_pairs else "{}"
    out = [
        f"group: {g.spec.label} (order {g.order}, dim {g.dim}, {g.field})",
        f"seed: {args.seed}, samples: {SAMPLES}",
        "t  verdict        max residual  unanimous",
    ]
    for t in range(1, args.tmax + 1):
        res = rep.max_residuals[t - 1]
        res_s = f"{res:.3e}" if res is not None else "-"
        out.append(f"{t:<2d} {rep.verdicts[t - 1]:<14s} {res_s:<13s} "
                   f"{'yes' if rep.unanimous[t - 1] else 'no'}")
    out += [f"t_generic: {rep.t_generic}", f"t_pairs: {pairs}"]
    _emit(payload, args.format, out)
    return 0


def cmd_verify(args) -> int:
    result = verify_certificate(args.path, args.tmax)
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
    _emit(payload, args.format, out)
    return 0 if result.passed else 1


def _load_expectations() -> list[dict]:
    text = resources.files("orbitdesigns").joinpath("expectations.csv").read_text()
    return list(csv.DictReader(text.splitlines()))


def _run_expectation(row: dict, walked: dict) -> tuple[bool, str]:
    """Check one expectation row through its own t; `walked` holds the orbit
    of each (group label, seed text) that a row has walked, for the rows after it."""
    from .groups import build_group
    label = row["group"]
    t = int(row["t"])
    g = build_group(label)
    for text in (row["seedX"], row["seedY"]):
        if text and (label, text) not in walked:
            walked[label, text] = _orbit(g, label, text)
    X = walked[label, row["seedX"]]
    if not row["seedY"]:
        rep = strength(X, t)
        desc = f"{label} single orbit {X.n_lines} lines: strength {rep.strength}"
        return rep.strength >= t, desc
    Y = walked[label, row["seedY"]]
    sol = solve_union(X, Y, t, t)
    shape = f"{label} ({X.n_lines}+{Y.n_lines} lines, t={t})"
    if not row["betaX"]:
        return sol.empty, f"{shape}: expected no real root"
    expect_beta = (Fraction(row["betaX"]), Fraction(row["betaY"]))
    best = sol.root
    got_beta = best.beta if best is not None else None
    if got_beta != expect_beta:
        return False, (f"{shape}: beta {_fmt_pair(got_beta)} != expected "
                       f"{_fmt_pair(expect_beta)}")
    if row["whatX"]:
        expect_what = (Fraction(row["whatX"]), Fraction(row["whatY"]))
        if best.w_hat != expect_what:
            return False, (f"{shape}: w_hat {_fmt_pair(best.w_hat)} != expected "
                           f"{_fmt_pair(expect_what)}")
    if sol.verified.strength < t:
        return False, f"{shape}: verified strength {sol.verified.strength} is below t"
    return True, f"{shape}: beta = {_fmt_pair(got_beta)}"


def _fmt_pair(pair) -> str:
    if pair is None:
        return "(none)"
    return "(%s, %s)" % tuple(pair)


def cmd_reproduce(args) -> int:
    rows = _load_expectations()
    if args.table != "all":
        rows = [r for r in rows if r["table"] == args.table]
    if not rows:
        raise InputError(f"no expectation rows for table {args.table!r}")
    results, walked = [], {}
    for row in rows:
        ok, desc = _run_expectation(row, walked)
        results.append({"table": row["table"], "ok": ok, "description": desc})
        if args.format == "table":
            print(f"[{'PASS' if ok else 'FAIL'}] {row['table']}: {desc}")
    failed = sum(1 for r in results if not r["ok"])
    if args.format == "json":
        print(json.dumps({"rows": results, "failed": failed}, indent=2))
    else:
        print(f"{len(results) - failed}/{len(results)} rows reproduced")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    try:
        try:
            return _run(argv)
        finally:  # block-buffered stdout meets a closed pipe here at the latest
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: exit as a command killed by SIGPIPE would, with
        # stdout on /dev/null so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except (SizeLimitError, NumericRangeError) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 4
    except OrbitDesignsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
