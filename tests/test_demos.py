"""Every demo runs to completion and prints what it printed when recorded.

The recorded digests pin each demo's stdout byte for byte, with timing
figures (``23 ms``, ``1.3s``) masked; rerecord one only when a change is
meant to move that demo's output.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: sha256 of each demo's masked stdout
STDOUT_SHA256 = {
    "01_stencil_tables.py": "f8ba5e561c8960881b827f4cb7e14f8d6b4b6eff9ef6fbf3806524c3ce610669",
    "02_hessian_unbiasedness.py": "56ae792f78fbc40388fd235ec3592ad271d41dd0521aa2b8c8304485c1c2f401",
    "03_bias_order_sweep.py": "cd8b5759fe8573358b6c40b3d6334084d17cda6d01abf354e3f62bc4c42cc5af",
    "04_newton_benchmark.py": "58446695d9648c1d7c2a29a48d1a3346bedc3b92adb783e08ab3e0603434f191",
    "05_saddle_escape.py": "c6f18fdc4818bbc946fa0fe4db7db29c53b2dd3a5e2d821ee0d39daf9f32f038",
    "06_ripple_gain.py": "eb1d8260a282f6e87540a0e259c94caba6d2bee75b0d5c7deb629da07d5aa99e",
}

_TIMING = re.compile(rb"\d+(?:\.\d+)? ?m?s\b")


def test_every_demo_has_a_recorded_digest():
    assert sorted(STDOUT_SHA256) == [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_prints_its_recorded_output(demo):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, cwd=ROOT, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr.decode()
    masked = _TIMING.sub(b"<time>", proc.stdout)
    assert hashlib.sha256(masked).hexdigest() == STDOUT_SHA256[demo.name], proc.stdout.decode()
