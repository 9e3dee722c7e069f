"""The packaging metadata ``setup.py`` declares."""

import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]


def test_egg_info_declares_name_version_and_requirements(tmp_path):
    subprocess.run(
        [sys.executable, "setup.py", "-q", "egg_info",
         "--egg-base", str(tmp_path)],
        cwd=ROOT, check=True, capture_output=True, timeout=120,
    )
    info = tmp_path / "repro.egg-info"
    headers = dict(
        line.split(": ", 1)
        for line in (info / "PKG-INFO").read_text().splitlines()
        if ": " in line
    )
    assert headers["Name"] == "repro"
    assert headers["Version"] == repro.__version__
    assert headers["Requires-Python"] == ">=3.8"
    assert (info / "requires.txt").read_text().split() == ["numpy"]
