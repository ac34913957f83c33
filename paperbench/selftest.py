"""Self-tests of the benchmark itself (not of the program it measures).

Run from the repository root (about a minute)::

    python3 paperbench/selftest.py

* a perturbed reference digest makes the run report failed points and exit
  non-zero;
* ``make_reference.py`` reproduces the committed reference digests;
* the host-speed probe refuses to time its kernel beside a second thread or
  a profile hook;
* one seed regenerates identical inputs, and another seed changes the
  heating models;
* a traced run's span self times add up to its traced wall time;
* without the program's sources the benchmark exits non-zero and prints no
  result.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import threading
import unittest

import make_reference
import run
from tracing import ROOT, span_totals

SCRATCH = run.WORK / "selftest"


def bench(*args, cwd=run.REPO, script=run.HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.import_program()
        SCRATCH.mkdir(parents=True, exist_ok=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_perturbed_reference_fails_the_run(self):
        committed = run.REFERENCE
        reference = json.loads(committed.read_text())
        reference["fleet_small"] = "0" * 16
        run.REFERENCE = SCRATCH / "reference.json"
        run.REFERENCE.write_text(json.dumps(reference))
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", "fleet_small", "--seed", "0",
                                 "--seconds", "1", "--trace", "0"])
        finally:
            run.REFERENCE = committed
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertNotEqual(code, 0, out.getvalue())
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLessEqual(result["failed"], result["attempted"])

    def test_make_reference_reproduces_the_committed_digests(self):
        committed = json.loads(run.REFERENCE.read_text())
        with contextlib.redirect_stdout(io.StringIO()):
            fresh = make_reference.reference_digests(model_jobs=1)
        self.assertEqual(fresh["paper_sweep"], committed["paper_sweep"])
        self.assertEqual(fresh["model_resweep"], committed["model_resweep"][:1])
        self.assertEqual(fresh["fleet_small"], committed["fleet_small"])

    def test_host_probe_refuses_a_changed_process(self):
        probe = run.HostProbe()
        probe.start()
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            with self.assertRaises(run.ProcessStateChanged):
                probe.normalize(1.0)
        finally:
            release.set()
            thread.join()
        sys.setprofile(lambda *args: None)
        try:
            with self.assertRaises(run.ProcessStateChanged):
                probe.start()
        finally:
            sys.setprofile(None)
        probe.start()
        self.assertGreater(probe.normalize(1.0), 0.0)

    def test_per_job_reference_is_checked_per_job(self):
        jobs = [run.Job(1.0, 10, digest="a"), run.Job(1.0, 10, digest="b")]
        reference = ["a", "c"]
        self.assertEqual(run.expected_digest("model_resweep", 0, 1, reference, jobs), "c")
        self.assertIsNone(run.expected_digest("model_resweep", 0, 2, reference, jobs))
        self.assertIsNone(run.expected_digest("model_resweep", 4, 1, reference, jobs))
        self.assertEqual(run.expected_digest("paper_sweep", 4, 1, None, jobs), "a")

    def test_seeds_make_inputs(self):
        for workload in run.WORKLOADS:
            self.assertEqual(run.describe_inputs(workload, 3, 4),
                             run.describe_inputs(workload, 3, 4))
            self.assertNotEqual(run.describe_inputs(workload, 1, 4),
                                run.describe_inputs(workload, 2, 4))
        self.assertEqual(run.seed_heating("paper_sweep", 0), (1.0, 1.0, 1.0))
        for seed in range(1, 20):
            for value in run.seed_heating("fleet_small", seed):
                self.assertTrue(0.1 <= value <= 10.0)
        self.assertNotEqual(run.model_multipliers(5, 0), run.model_multipliers(5, 1))

    def test_traced_self_times_add_up(self):
        seed = 7
        proc, result = bench("--workload", "model_resweep", "--seed", str(seed),
                             "--seconds", "1", "--trace", "1")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        metrics = result["metrics"]
        path = run.WORK / f"spans-model_resweep-seed{seed}.jsonl"
        with open(path) as handle:
            header = json.loads(handle.readline())
            spans = [json.loads(line) for line in handle]
        totals = span_totals(spans)
        roots_s = sum(end - start for _, start, end, parent in spans if parent < 0)
        self_sum = sum(row["self_s"] for row in totals.values())
        self.assertAlmostEqual(self_sum, roots_s, delta=1e-9 * max(1.0, roots_s))
        root_s = totals[ROOT]["total_s"]
        # The root spans time exactly the jobs the run reports.
        self.assertEqual(header["jobs"], totals[ROOT]["calls"])
        self.assertAlmostEqual(root_s / header["jobs"],
                               metrics["trace.wall_s"]["value"],
                               delta=0.05 * metrics["trace.wall_s"]["value"])
        shares = sum(metrics[f"share.{layer}"]["value"] for layer in run.LAYERS)
        self.assertAlmostEqual(shares, 1.0, places=6)

    def test_without_the_program_it_exits_nonzero(self):
        bare = SCRATCH / "bare"
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.REPO / "BENCHMARK.json", bare)
        proc, result = bench("--workload", "paper_sweep", "--seed", "0",
                             "--seconds", "1", "--trace", "0", cwd=bare,
                             script=bare / run.HERE.name / "run.py")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
