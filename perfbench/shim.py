"""Traced job: run one orbitdesigns CLI command with spans around its layers.

    python shim.py <spans.json> <job id> <cli args...>

The shim imports the package, replaces each traced public function in every
orbitdesigns module that binds it (so `cli.solve_union`, `unions.potential`
and `designs.potential` are all covered), runs the CLI, and writes the spans
it kept in memory to <spans.json> when the command ends. A traced name that
no longer exists is reported as absent instead of failing the job.

Spans are kept on one stack, so calls made from worker threads are not
traced; the package calls every traced function from the main thread.
"""
import functools
import importlib
import json
import runpy
import sys
from time import perf_counter


def _potential_counts(args, result):
    a = args[0].n_lines
    b = args[1].n_lines if hasattr(args[1], "n_lines") else a
    return {"terms": a * b}


def _scan_counts(args, result):
    records = result.sample_records
    draws = sum(1 + r.redraws for r in records)
    return {"draws": draws, "redraws": draws - len(records),
            "terms": 3 * draws * args[0].order}


# span name -> ((module, public function), ...), counts(args, result)
TARGETS = {
    "cli.main": ((("cli", "main"),), None),
    "groups.build": ((("groups", "build_group"),), None),
    "groups.closure": ((("groups", "close_group"),),
                       lambda args, result: {"elements": result.order}),
    "groups.unitarize": ((("groups", "unitarize"),), None),
    "orbits.orbit": ((("orbits", "orbit_lines"),),
                     lambda args, result: {"images": args[0].order,
                                           "lines": result.n_lines}),
    "orbits.union": ((("orbits", "union_lines"),), None),
    "designs.potential": ((("designs", "potential"), ("designs", "cross_potential")),
                          _potential_counts),
    "designs.strength": ((("designs", "strength"),), None),
    "unions.quadratic": ((("unions", "pair_quadratic"),), None),
    "unions.solve": ((("unions", "solve_union"),), None),
    "unions.emit": ((("unions", "emit_certificate"),), None),
    "unions.verify": ((("unions", "verify_certificate"),), None),
    "numerics.snap": ((("numerics", "snap_to_rational"),),
                      lambda args, result: {"snapped": int(result is not None)}),
    "pairscan.scan": ((("pairscan", "scan"),), _scan_counts),
}


class Tracer:
    """Spans (name, start, end, parent, job id, counts) kept in memory."""

    def __init__(self, job_id):
        self.job_id = job_id
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "job": self.job_id, "start": perf_counter(),
                    "end": None, "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if counts is not None:
                try:
                    span["counts"] = counts(args, result)
                except (AttributeError, TypeError, IndexError):
                    pass  # the function's interface changed: keep the span, drop the counts
            return result
        return traced

    def install(self, modules):
        """Wrap every target; return the names of targets not found."""
        bound = [m for name, m in list(sys.modules.items())
                 if m is not None and (name == "orbitdesigns" or name.startswith("orbitdesigns."))]
        absent = []
        for span_name, (where, counts) in TARGETS.items():
            for mod_name, attr in where:
                fn = getattr(modules.get(mod_name), attr, None)
                if not callable(fn):
                    absent.append(f"{span_name}:{mod_name}.{attr}")
                    continue
                wrapper = self.wrap(span_name, fn, counts)
                for m in bound:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapper)
        return absent


def main():
    out_path, job_id, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = perf_counter()
    modules = {}
    for name in ("cli", "groups", "orbits", "designs", "unions", "numerics", "pairscan"):
        try:
            modules[name] = importlib.import_module(f"orbitdesigns.{name}")
        except ImportError:
            pass
    import_s = perf_counter() - t0
    tracer = Tracer(job_id)
    absent = tracer.install(modules)
    rc = 1
    try:
        main_fn = getattr(modules.get("cli"), "main", None)  # wrapped by install
        if callable(main_fn):
            rc = main_fn(cli_args)
        else:
            sys.argv = ["orbitdesigns", *cli_args]
            try:
                runpy.run_module("orbitdesigns.cli", run_name="__main__")
                rc = 0
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"job": job_id, "import_s": import_s, "absent": absent,
                       "spans": tracer.spans}, fh)
    sys.exit(rc)


if __name__ == "__main__":
    main()
