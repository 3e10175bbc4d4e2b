import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout.  A change to what a demo prints must update
# its digest here, on purpose.
DEMO_DIGESTS = {
    "pair_decomposition.py": (
        "cc59ffb880b180ec65d2e886ead84201558691d49777d6465c195e590e3d54d3"
    ),
    "strictness.py": (
        "ec881c7628ca59b0839d4d43513694f683499195b527a537651b72db7699b9bc"
    ),
    "subgroup_and_iterated.py": (
        "59b18895e362aef7436314ae3a969ea2d4279f2cbb2a9ceb9ba84443f502af4d"
    ),
    "thresholds_and_exceptions.py": (
        "f11f59660672aa8a40f8804641ea37cb5dff72d57df551f537122b546fe5d7ce"
    ),
}


def test_every_demo_has_a_digest():
    assert sorted(DEMO_DIGESTS) == [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    # -W error: pytest's filterwarnings does not reach the subprocess
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[demo.name]
