#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

Builds the driver the way run.py does, then checks that the message-type
to layer table covers every enumerator the protocol headers declare, that
the driver's self-test passes (fidelity to app::RunExperiment, slicing,
determinism), that BENCHMARK.json keeps to its schema, and that short
runs of one workload emit exactly the metrics BENCHMARK.json declares.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Header -> enum whose every enumerator must map to a layer.
MESSAGE_ENUMS = {
    "src/pbft/messages.h": "PbftMessageType",
    "src/core/messages.h": "CoreMessageType",
    "src/core/lazy_sync.h": "LazySyncMessageType",
}


def enumerators(path, enum):
    with open(os.path.join(run.ROOT, path)) as f:
        text = f.read()
    body = re.search(r"enum\s+" + enum + r"\b[^{]*\{(.*?)\};", text, re.S)
    assert body, f"enum {enum} not found in {path}"
    code = re.sub(r"//[^\n]*", "", body.group(1))
    return {name: int(value) for name, value in
            re.findall(r"(k\w+)\s*=\s*(\d+)", code)}


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def driver(self, *args):
        return subprocess.run([self.binary, *args], capture_output=True,
                              text=True, timeout=run.RUN_TIMEOUT_S)

    def test_layer_table_covers_every_message_type(self):
        out = self.driver("--layer-table")
        self.assertEqual(out.returncode, 0, out.stderr)
        mapped = {int(line.split()[0]): line.split()[1]
                  for line in out.stdout.splitlines()}
        for path, enum in MESSAGE_ENUMS.items():
            values = enumerators(path, enum)
            self.assertTrue(values, f"no enumerators parsed from {enum}")
            for name, value in values.items():
                self.assertIn(value, mapped, f"{enum}::{name} has no layer")
                self.assertNotEqual(mapped[value], "other")

    def test_selftest(self):
        out = self.driver("--selftest")
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)

    def test_benchmark_json_schema(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(sorted(spec), ["command", "end_to_end", "paths",
                                        "per_layer", "run_seconds",
                                        "workloads"])
        usage = self.driver("--workload", "?").stderr
        driver_workloads = usage.split("workloads:")[1].split()
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         driver_workloads)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in spec["end_to_end"]:
            self.assertEqual(sorted(m), ["better", "bound", "name", "unit"])
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s",
                                  "better": "lower", "bound": max(
                                      m["bound"] for m in spec["end_to_end"])}])

    def test_short_runs_emit_declared_metrics(self):
        for trace in ("0", "1"):
            out = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", "global-heavy", "--seed", "2", "--seconds",
                 "1", "--trace", trace],
                capture_output=True, text=True, timeout=2 * run.RUN_TIMEOUT_S)
            self.assertEqual(out.returncode, 0, out.stderr)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            self.assertTrue(result["correct"], out.stderr)
            self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
