"""The benchmark's own self test, run as part of the suite.

``bench/smoke.py`` drives every benchmark workload at tiny sizes through the
package's public calls (the dense ``GroupedNetwork`` constructor,
``blocks_W``, ``build_block_diagonal``, ``row_normalize``,
``ModelParams.checked``, ``reduced_form`` and ``cli.main``), so a change that
breaks one of them fails here instead of only in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_exits_zero():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "smoke.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
