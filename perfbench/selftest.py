"""Self-tests of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload prints every metric named in BENCHMARK.json with
its unit, that the output checks fire on corrupted results, and that a
traced pass produces exactly the outputs of an untraced one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

sys.path.insert(0, str(run.library_path(ROOT)))
run.pin_threads()

import numpy as np  # noqa: E402

import bench  # noqa: E402
import spans  # noqa: E402
from codebrain import pretrain, ssm, tokenizer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def scratch_dir(add_cleanup) -> str:
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(dir=base)
    add_cleanup(shutil.rmtree, path, True)
    return path


def tiny(wl: bench.Workload) -> bench.Workload:
    """The workload's phases and settings at a size that runs in seconds."""
    k = 32
    return dataclasses.replace(
        wl,
        channels=2,
        seconds_per_record=8,
        records_per_class=5,
        tokenizer={**wl.tokenizer, "hidden": 16, "enc_layers": 1, "dec_layers": 1, "heads": 2,
                   "mlp_dim": 32, "codebook_size": k, "code_dim": 8},
        model={**wl.model, "features": 16, "blocks": 1, "codebook_size": k},
        # the history check needs a falling loss within three steps: stage 1
        # trains full-batch on two records, stage 2 at the desk learning rate
        stage1={**wl.stage1, "steps": 3, "batch_size": 2, "peak_lr": 3e-4, "min_lr": 3e-6},
        stage1_records=2,
        stage2={**wl.stage2, "steps": 3, "batch_size": 2, "peak_lr": 1e-3, "min_lr": 1e-5},
        probe={**wl.probe, "hidden": 8, "compress": 8, "steps": 10, "eval_every": 5},
    )


class TestEveryMetricIsPrinted(unittest.TestCase):
    def _check(self, trace: bool):
        names = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
        for entry in SPEC["workloads"]:
            with self.subTest(workload=entry["name"], trace=trace):
                wl = tiny(bench.WORKLOADS[entry["name"]])
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = bench.main(wl, 1, 0.1, trace, ROOT)
                lines = out.getvalue().strip().splitlines()
                result = json.loads(lines[-1])
                self.assertEqual(code, 0, lines[-2])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertIn("ops_attempted", lines[-2])
                self.assertIn("ops_failed", lines[-2])
                self.assertIn("env", json.loads(lines[0]))
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                self.assertEqual(got, names)

    def test_end_to_end_metrics(self):
        self._check(trace=False)

    def test_per_layer_metrics(self):
        self._check(trace=True)


class TestChecksFire(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = tiny(bench.WORKLOADS["desk-pipeline"])
        cls.corpus, _ = bench.setup(cls.wl, 1)
        cls.work = scratch_dir(cls.addClassCleanup)
        cls.ref = bench.run_pass(cls.wl, 1, cls.corpus, cls.work)

    def fresh(self) -> bench.PassResult:
        return bench.PassResult(seed=1, planned=bench.planned_ops(self.wl))

    def test_reference_pass_is_clean(self):
        self.assertEqual(self.ref.failed_ops, 0, self.ref.reasons)

    def test_non_finite_history(self):
        rows = [dict(r) for r in self.ref.s2_history]
        rows[1]["loss"] = "nan"
        res = self.fresh()
        bench.check_history(res, "stage2", rows, "loss")
        self.assertEqual(res.failed["stage2"], res.planned["stage2"])

    def test_loss_that_does_not_fall(self):
        rows = [dict(r) for r in self.ref.s1_history]
        rows[-1]["total"] = str(float(rows[0]["total"]) * 2)
        res = self.fresh()
        bench.check_history(res, "stage1", rows, "total")
        self.assertEqual(res.failed["stage1"], res.planned["stage1"])

    def test_tokens_out_of_range(self):
        k = self.wl.tokenizer["codebook_size"]
        bad = [tokenizer.TokenGrid(t.z_t.copy(), t.z_f.copy()) for t in self.ref.tokens]
        bad[0].z_t[0, 0] = k
        bad[1].z_f[0, 0] = -1
        res = self.fresh()
        bench.check_tokens(res, self.corpus.grids, bad, k)
        self.assertEqual(res.failed["tokenize"], 2)

    def test_non_finite_features(self):
        feats = self.ref.features.copy()
        feats[0, 0, 0] = np.inf
        feats[2, 1, 3] = np.nan
        res = self.fresh()
        bench.check_features(res, feats, feats.shape)
        self.assertEqual(res.failed["extract"], 2)

    def test_checkpoint_that_differs_from_the_model(self):
        tok, _ = bench.build_models(self.wl, 1)
        path = str(Path(self.work) / "ckpt")
        state = tok.state_dict()
        pretrain.save_checkpoint(path, state, {}, 0)
        res = self.fresh()
        bench.check_checkpoint(res, "stage1", path, tok)
        self.assertEqual(res.failed["stage1"], 0)
        state["down/w"] = state["down/w"] + np.float32(1e-3)
        pretrain.save_checkpoint(path, state, {}, 0)
        bench.check_checkpoint(res, "stage1", path, tok)
        self.assertEqual(res.failed["stage1"], res.planned["stage1"])

    def test_pass_that_differs_from_the_reference(self):
        tokens = [tokenizer.TokenGrid(t.z_t.copy(), t.z_f.copy()) for t in self.ref.tokens]
        tokens[0].z_t[0, 0] += 1
        features = self.ref.features.copy()
        features[1, 0, 0] += 1.0
        other = dataclasses.replace(
            self.ref, s2_history=[dict(r) for r in self.ref.s2_history], tokens=tokens, features=features,
            failed=dict.fromkeys(bench.PHASES, 0), reasons=[],
        )
        other.s2_history[-1]["acc_t"] = "0.0000"
        bench.compare_passes(self.ref, other)
        self.assertEqual(other.failed["stage2"], other.planned["stage2"])
        self.assertEqual(other.failed["tokenize"], 1)
        self.assertEqual(other.failed["extract"], 1)
        self.assertEqual(other.failed["stage1"], 0)

    def test_seeded_corruption_is_a_failed_op(self):
        original = tokenizer.tokenize
        k = self.wl.tokenizer["codebook_size"]

        def corrupt(model, grid):
            tg = original(model, grid)
            tg.z_t[0, 0] = k
            return tg

        tokenizer.tokenize = corrupt
        try:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = bench.main(self.wl, 1, 0.1, False, ROOT)
        finally:
            tokenizer.tokenize = original
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)


class TestTracingIsTransparent(unittest.TestCase):
    def test_traced_pass_equals_untraced(self):
        for name in bench.WORKLOADS:
            with self.subTest(workload=name):
                wl = tiny(bench.WORKLOADS[name])
                corpus, _ = bench.setup(wl, 2)
                work = scratch_dir(self.addCleanup)
                plain = bench.run_pass(wl, 2, corpus, work)
                tracer = spans.Tracer()
                with tracer.installed():
                    traced = bench.run_pass(wl, 2, corpus, work, tracer=tracer)
                self.assertGreater(len(tracer.names), 0)
                self.assertEqual(plain.s1_history, traced.s1_history)
                self.assertEqual(plain.s2_history, traced.s2_history)
                for a, b in zip(plain.tokens, traced.tokens):
                    self.assertEqual(a.z_t.tobytes(), b.z_t.tobytes())
                    self.assertEqual(a.z_f.tobytes(), b.z_f.tobytes())
                self.assertEqual(plain.features.tobytes(), traced.features.tobytes())
                self.assertEqual(plain.probe_reports, traced.probe_reports)

    def test_wrappers_are_removed(self):
        before = (ssm.sgconv_forward, tokenizer.Codebook.__dict__["nearest"], pretrain.backward)
        with spans.Tracer().installed():
            self.assertIsNot(ssm.sgconv_forward, before[0])
        after = (ssm.sgconv_forward, tokenizer.Codebook.__dict__["nearest"], pretrain.backward)
        self.assertEqual(before, after)


if __name__ == "__main__":
    unittest.main()
