"""The suite tests the padia that PYTHONPATH names, when it names one.

``conftest.py`` puts this checkout's ``src`` first on ``sys.path`` unless the
padia that would be imported lies under a PYTHONPATH entry.  Each case copies
``conftest.py`` and ``src`` into a scratch checkout, next to a probe test that
prints the file of the padia it imported, and runs pytest there in a
subprocess.  A second copy of ``src`` stands for another padia: named on
PYTHONPATH, installed in a user site-packages through a ``.pth`` file, or
absent.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PROBE = """\
import padia


def test_probe():
    print("padia from", padia.__file__)
"""


def _copy_src(target: Path) -> Path:
    shutil.copytree(
        ROOT / "src" / "padia", target / "padia", ignore=shutil.ignore_patterns("__pycache__")
    )
    return target


def _install_in_user_site(src: Path, user_base: Path, env: dict) -> None:
    """Make ``src`` importable through a ``.pth`` file in a user site-packages."""
    env["PYTHONUSERBASE"] = str(user_base)
    env.pop("PYTHONNOUSERSITE", None)
    site_dir = subprocess.run(
        [sys.executable, "-c", "import site; print(site.ENABLE_USER_SITE, site.getusersitepackages())"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    if site_dir[0] != "True":
        pytest.skip("this interpreter does not read a user site-packages")
    Path(site_dir[1]).mkdir(parents=True)
    (Path(site_dir[1]) / "other-padia.pth").write_text(f"{src}\n")
    # Outside the checkout, the installed copy is the padia that imports.
    found = subprocess.run(
        [sys.executable, "-c", "import padia; print(padia.__file__)"],
        cwd=user_base, env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert found == f"{src / 'padia' / '__init__.py'}\n"


@pytest.mark.parametrize("other_padia", ["on_pythonpath", "in_user_site", "absent"])
def test_pythonpath_selects_the_tested_padia(tmp_path, other_padia):
    checkout = tmp_path / "checkout"
    checkout.mkdir()
    shutil.copy(ROOT / "conftest.py", checkout / "conftest.py")
    (checkout / "test_probe.py").write_text(PROBE)
    own = _copy_src(checkout / "src")
    other = _copy_src(tmp_path / "other" / "src")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    if other_padia == "on_pythonpath":
        env["PYTHONPATH"] = str(other)
    elif other_padia == "in_user_site":
        _install_in_user_site(other, tmp_path / "user_base", env)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider", "test_probe.py"],
        cwd=checkout, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    expected = (other if other_padia == "on_pythonpath" else own) / "padia" / "__init__.py"
    assert f"padia from {expected}\n" in done.stdout
