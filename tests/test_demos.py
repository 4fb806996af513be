"""Every demo script runs to completion against src/ and prints what it
printed when its digest was captured.  A change that alters a demo's output
on purpose updates that digest and says why."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# SHA-256 of each demo's standard output
STDOUT_DIGESTS = {
    "choose_code": "ac4574b643bc0b3add99e4df71b3a0864b9a8d8f2b2e42a7d9e704fd5ade862d",
    "fit_traffic": "2fe7239b04e87d40d7ae1535904ab303cd0cb6bb2a22f1a9975e7a6d082970d4",
    "link_simulation": "520ffc089b947410edc466daf4b888ba3a2b7567001296f6a10174689edbacd2",
    "parity_sweep": "d9f80349df381832b3ea25bd2b6f53ca18684a3f3b4217338d3d30be95f5abf7",
    "receiver_pipeline": "5bded81cb42129396e4d88830e726273c8ce795c26d48e6201b2887229f5a09f",
}


def test_demos_found():
    # an empty parameter list would skip the smoke test instead of failing it,
    # and a demo without a digest would go unchecked
    assert DEMOS and sorted(p.stem for p in DEMOS) == sorted(STDOUT_DIGESTS)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run(
        # pytest turns a RuntimeWarning into a failure only in its own process
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        cwd=ROOT, env=env, capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_DIGESTS[demo.stem]
