"""The demos' stdout is pinned: a change to any of them is an output change."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# sha256 of each demo's stdout, recorded before the power-graph exports were
# written one element block at a time.
PINNED_DEMOS = {
    "exact_tables.py": "fccfef1379b22c1a83ad28288909aaf7bf617f2ea57160fb29e835f8c600d4f5",
    "power_graphs.py": "8dce0ec25e5f993db96b45adb0902a3e8c1ed0050026ccef8b1d2b41f1c972e7",
    "sylow_criterion.py": "277ced3fb3417913331d455baa5ecdb85d11365b08f52c6235207d0f88c3cd2c",
    "totient_sums.py": "2ebed887af6c7eab3965c6163584847fd58139da8fa7686485bd2f771eaf7b49",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(PINNED_DEMOS)


@pytest.mark.parametrize("demo", sorted(PINNED_DEMOS))
def test_demo_output_pinned(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == PINNED_DEMOS[demo]
