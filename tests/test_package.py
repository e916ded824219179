import os
import subprocess
import sys
from pathlib import Path

import reprank


def test_every_public_name_resolves():
    missing = [name for name in reprank.__all__ if not hasattr(reprank, name)]
    assert not missing
    namespace = {}
    exec("from reprank import *", namespace)
    assert set(reprank.__all__) <= set(namespace)


def test_cli_import_leaves_scipy_stats_out():
    """scipy.stats costs close to a second and tens of MiB per process to
    import, and nothing in the package needs it."""
    src = str(Path(reprank.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import reprank.cli, sys; "
            "sys.exit(int('scipy.stats' in sys.modules))")
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)
