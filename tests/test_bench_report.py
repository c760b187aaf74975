#!/usr/bin/env python3
"""Unit tests for scripts/bench_report.py (the bench trajectory writer).

Run directly (`python3 tests/test_bench_report.py`) or through the
bench-regression CI job. Pure stdlib: a stand-in bench binary that prints
one `@metric` line replaces the real fig13 bench, so no build is needed.
"""

import json
import os
import stat
import subprocess
import sys
import tempfile
import unittest

_SCRIPT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts", "bench_report.py")


class OutDir(unittest.TestCase):
    def test_creates_missing_out_dir(self):
        with tempfile.TemporaryDirectory() as root:
            build = os.path.join(root, "build")
            os.makedirs(build)
            bench = os.path.join(build, "bench_fig13_mapping")
            with open(bench, "w") as f:
                f.write("#!/bin/sh\necho '@metric modeled_map_ms 1.5'\n")
            os.chmod(bench, os.stat(bench).st_mode | stat.S_IEXEC)
            out = os.path.join(root, "fresh", "nested")
            proc = subprocess.run(
                [sys.executable, _SCRIPT, "--build-dir", build,
                 "--out-dir", out],
                capture_output=True, text=True, timeout=60)
            # The other benches are not built, so the run fails, but only
            # after writing fig13's trajectory into the new directory.
            self.assertEqual(proc.returncode, 1, proc.stderr)
            self.assertNotIn("Traceback", proc.stderr)
            with open(os.path.join(out, "BENCH_fig13.json")) as f:
                report = json.load(f)
            self.assertEqual(report["metrics"], {"modeled_map_ms": 1.5})


if __name__ == "__main__":
    unittest.main()
