"""Self-test of the benchmark's own logic: output checks, span arithmetic, shim.

    python3 perfbench/selftest.py

Needs neither the package nor a child process.
"""
import json
import sys
import types
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from jobs import H4_PAIRS, SCAN_GROUPS, WORKLOADS, Job, check  # noqa: E402
from shim import TARGETS, Tracer  # noqa: E402
from spans import PER_LAYER_UNITS, covered, layer_metrics, self_times  # noqa: E402


def _union_out(beta_x: Fraction, strength: int = 9) -> str:
    beta = [str(beta_x), str(1 - beta_x)]
    return json.dumps({"roots": [{"beta": None}, {"beta": beta}], "preferred": 1,
                       "verified_strength": strength})


def _scan_out(t_generic, t_pairs) -> str:
    return json.dumps({"t_generic": t_generic, "t_pairs": t_pairs})


UNION = Job("union", "H4 @1 @2", ("union", "H4"), H4_PAIRS[1, 2])
SCAN = Job("scan", "binI", ("scan", "binI"), SCAN_GROUPS["binI"])
VERIFY = Job("verify", "c", ("verify", "c.json"))
REPRODUCE = Job("reproduce", "all", ("reproduce", "all"))


class CheckTest(unittest.TestCase):
    def test_accepts_right_outputs(self):
        self.assertIsNone(check(UNION, 0, _union_out(Fraction(5, 21))))
        self.assertIsNone(check(SCAN, 0, _scan_out(5, [6, 9])))
        self.assertIsNone(check(VERIFY, 0, json.dumps({"passed": True})))
        rows = [{"ok": True}] * 31
        self.assertIsNone(check(REPRODUCE, 0, json.dumps({"rows": rows, "failed": 0})))

    def test_rejects_doctored_outputs(self):
        doctored = [
            (UNION, 0, _union_out(Fraction(5, 22))),  # wrong beta
            (UNION, 0, _union_out(Fraction(5, 21), strength=5)),  # strength below t
            (VERIFY, 0, json.dumps({"passed": False})),
            (SCAN, 0, _scan_out(5, [6, 8])),  # wrong t_pairs
            (SCAN, 0, _scan_out(5, None)),
            (SCAN, 3, ""),  # the known binI defect exits 3
            (SCAN, 3, _scan_out(5, [6, 9])),  # right output, wrong exit code
            (REPRODUCE, 0, json.dumps({"rows": [{"ok": True}] * 30, "failed": 0})),
            (REPRODUCE, 0, json.dumps({"rows": [{"ok": True}] * 31, "failed": 1})),
            (UNION, 0, "not json"),
            (VERIFY, 0, json.dumps({})),
        ]
        for job, rc, stdout in doctored:
            with self.subTest(job=job.kind, rc=rc, stdout=stdout[:60]):
                self.assertIsNotNone(check(job, rc, stdout))

    def test_rounds_repeat_the_mix_and_follow_the_seed(self):
        import random
        for name, make_round in WORKLOADS.items():
            a = make_round(random.Random(7), Path("w"))
            self.assertEqual(a, make_round(random.Random(7), Path("w")), name)
        rng = random.Random(1)
        groups = [sorted(j.label for j in WORKLOADS["scan"](rng, Path("w"))) for _ in range(3)]
        self.assertEqual(groups, [sorted(SCAN_GROUPS)] * 3)


def _span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "job": "1"}


class SelfTimeTest(unittest.TestCase):
    def test_covered_merges_and_clips(self):
        self.assertEqual(covered([(1, 4), (3.5, 6), (8, 12)], 0, 10), 7)
        self.assertEqual(covered([(1, 6), (2, 3)], 0, 10), 5)
        self.assertEqual(covered([], 0, 10), 0)

    def test_nested_spans(self):
        spans = [
            _span("root", 0.0, 10.0),
            _span("a", 1.0, 4.0, parent=0),
            _span("a.child", 2.0, 3.0, parent=1),
            _span("b", 3.5, 6.0, parent=0),  # overlaps a: covered once
            _span("c", 8.0, 12.0, parent=0),  # runs past root: clipped
        ]
        self.assertEqual(self_times(spans), [3.0, 2.0, 1.0, 2.5, 4.0])

    def test_layer_metrics_means_and_absent(self):
        trace = {"import_s": 0.5, "absent": ["unions.emit:unions.emit_certificate"], "spans": [
            _span("cli.main", 0.0, 4.0),
            _span("designs.strength", 1.0, 3.0, parent=0),
            _span("designs.potential", 1.0, 2.0, parent=1) | {"counts": {"terms": 100}},
        ]}
        m, absent = layer_metrics([trace, trace], [5.0, 5.0], 0.25)
        self.assertEqual(list(m), list(PER_LAYER_UNITS))
        self.assertEqual(m["cli.main.self_s"], 2.0)
        self.assertEqual(m["designs.strength.self_s"], 1.0)
        self.assertEqual(m["designs.potential.calls"], 1.0)
        self.assertEqual(m["designs.potential.terms"], 100.0)
        self.assertEqual(m["designs.potential.terms_per_s"], 100.0)
        self.assertEqual(m["process.other_s"], 0.5)
        self.assertEqual(m["trace.overhead_s"], 0.25)
        self.assertEqual(m["pairscan.scan.self_s"], 0.0)
        self.assertIn("pairscan.scan", absent)
        self.assertIn("unions.emit:unions.emit_certificate", absent)
        self.assertNotIn("designs.potential", absent)


class ShimTest(unittest.TestCase):
    """The shim wraps every binding of a traced name and survives missing ones."""

    def setUp(self):
        lines = types.SimpleNamespace(n_lines=3)
        designs = types.ModuleType("orbitdesigns.designs")
        designs.potential = lambda X, t: float(X.n_lines * t)
        designs.strength = lambda X, t_max: [designs.potential(X, t) for t in range(1, t_max + 1)]
        unions = types.ModuleType("orbitdesigns.unions")
        unions.potential = designs.potential  # bound by `from .designs import potential`
        self.fakes = {"orbitdesigns.designs": designs, "orbitdesigns.unions": unions}
        self.saved = {k: sys.modules.get(k) for k in self.fakes}
        sys.modules.update(self.fakes)
        self.lines = lines

    def tearDown(self):
        for k, v in self.saved.items():
            if v is None:
                sys.modules.pop(k, None)
            else:
                sys.modules[k] = v

    def test_wraps_each_binding_and_reports_absent(self):
        designs, unions = self.fakes.values()
        tracer = Tracer("7")
        absent = tracer.install({"designs": designs, "unions": unions})
        self.assertIn("cli.main:cli.main", absent)
        self.assertIn("unions.solve:unions.solve_union", absent)
        self.assertNotIn("designs.potential:designs.potential", absent)
        self.assertEqual(designs.strength(self.lines, 2), [3.0, 6.0])
        self.assertEqual(unions.potential(self.lines, 1), 3.0)
        names = [(s["name"], s["parent"], s.get("counts")) for s in tracer.spans]
        self.assertEqual(names, [
            ("designs.strength", None, None),
            ("designs.potential", 0, {"terms": 9}),
            ("designs.potential", 0, {"terms": 9}),
            ("designs.potential", None, {"terms": 9}),
        ])
        self.assertTrue(all(s["job"] == "7" and s["end"] >= s["start"] for s in tracer.spans))
        self.assertLessEqual({s["name"] for s in tracer.spans}, set(TARGETS))


if __name__ == "__main__":
    unittest.main()
