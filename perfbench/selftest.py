"""Self-tests of the benchmark's own arithmetic and checkers.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
import threading
import types
import unittest
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, Tracer, self_times, tail_percentile  # noqa: E402


def span(id, parent, start, end, thread=1):
    return Span(id=id, name=f"s{id}", parent=parent, thread=thread, run=0, start=start, end=end)


class SelfTime(unittest.TestCase):
    def test_nested_children_are_subtracted_once(self):
        spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 3.0), span(2, 1, 1.5, 2.5), span(3, 0, 6.0, 7.0)]
        st = self_times(spans)
        self.assertAlmostEqual(st[0], 10.0 - 2.0 - 1.0)
        self.assertAlmostEqual(st[1], 2.0 - 1.0)
        self.assertAlmostEqual(st[2], 1.0)

    def test_overlapping_cross_thread_children_count_as_their_union(self):
        # two worker threads under one parent: [1, 4] and [2, 5] cover [1, 5]; [9, 12] is clipped at 10
        spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 4.0, thread=2),
                 span(2, 0, 2.0, 5.0, thread=3), span(3, 0, 9.0, 12.0, thread=2)]
        self.assertAlmostEqual(self_times(spans)[0], 10.0 - 4.0 - 1.0)

    def test_worker_thread_span_takes_the_submitting_span_as_parent(self):
        tracer = Tracer()
        outer = tracer.begin("outer")
        worker = threading.Thread(target=lambda: tracer.end(tracer.begin("inner")))
        worker.start()
        worker.join(timeout=10)
        self.assertFalse(worker.is_alive())
        tracer.end(outer)
        inner = next(s for s in tracer.spans if s.name == "inner")
        self.assertEqual(inner.parent, outer.id)
        self.assertNotEqual(inner.thread, outer.thread)
        self.assertGreaterEqual(self_times(tracer.spans)[outer.id], 0.0)


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(tail_percentile(range(999), 99))
        self.assertIsNotNone(tail_percentile(range(1000), 99))
        self.assertIsNone(tail_percentile(range(19), 50))
        self.assertEqual(tail_percentile(range(21), 50), 10)

    def test_value(self):
        self.assertAlmostEqual(tail_percentile(range(1, 1001), 99), 990.01)


class Install(unittest.TestCase):
    def test_wraps_every_binding_restores_and_reports_absent(self):
        def f(x):
            return x + 1

        home = types.ModuleType("cpcodes.selftest_home")
        user = types.ModuleType("cpcodes.selftest_user")
        home.f = user.f = f
        sys.modules.update({home.__name__: home, user.__name__: user})
        try:
            tracer = Tracer()
            targets = [(home.__name__, "f", "home.f", None), (home.__name__, "gone", "home.gone", None)]
            restore, absent = tracing.install(tracer, targets)
            self.assertEqual(user.f(1), 2)
            self.assertEqual([s.name for s in tracer.spans], ["home.f"])
            self.assertEqual(absent, [f"{home.__name__}.gone"])
            restore()
            self.assertIs(home.f, f)
            self.assertIs(user.f, f)
        finally:
            for name in (home.__name__, user.__name__):
                del sys.modules[name]


class NearestCodewordChecker(unittest.TestCase):
    def setUp(self):
        self.cbs = [reference.load_codebook(Path(__file__).resolve().parent / "codebooks" / f"{b}.json")
                    for b in ("codec_v1_common", "codec_v2_general")]

    def nearest(self, x, cb):
        placed = reference.placed_codewords(x, cb)
        best = reference.sphere_distances(x, cb).argmin(axis=1)
        return np.stack([placed[j][i] for i, j in enumerate(best)])

    def test_accepts_nearest_and_rejects_perturbed(self):
        for cb in self.cbs:
            x = reference.make_corpus(3, 400, cb.n, self.cbs)
            rows = self.nearest(x, cb)
            self.assertEqual(reference.nearest_codeword_failures(x, rows, cb), [])

            swapped = rows.copy()
            i = 7
            a, b = np.argmax(swapped[i]), np.argmin(swapped[i])
            swapped[i, [a, b]] = swapped[i, [b, a]]
            self.assertTrue(reference.nearest_codeword_failures(x, swapped, cb))

            off = rows.copy()
            off[11] *= 1.0 + 1e-6
            self.assertTrue(reference.nearest_codeword_failures(x, off, cb))

            self.assertTrue(reference.nearest_codeword_failures(x, rows[:-1], cb))

    def test_corpus_has_ties_and_near_ties(self):
        x = reference.make_corpus(5, 2000, 16, self.cbs)
        self.assertTrue(any(len(set(row)) < len(row) for row in x))
        for cb in self.cbs:
            d = np.sort(reference.sphere_distances(x, cb), axis=1)
            self.assertGreater(int(np.sum(d[:, 1] - d[:, 0] <= 1e-12 * d[:, 0])), 0)


if __name__ == "__main__":
    unittest.main()
