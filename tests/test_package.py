import os
import subprocess
import sys
from pathlib import Path

import sddpkit


def test_every_public_name_resolves():
    missing = [name for name in sddpkit.__all__ if not hasattr(sddpkit, name)]
    assert missing == []
    assert len(set(sddpkit.__all__)) == len(sddpkit.__all__)


def test_cli_import_loads_neither_scipy_optimize_nor_sparse():
    # ``oracle`` imports them inside ``solve_extensive_form``: imported at
    # module level, they took a CLI process from 57.7 to 77.1 MB.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = "import sys, sddpkit.cli; print(' '.join(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    )
    loaded = out.stdout.split()
    assert "sddpkit.cli" in loaded
    assert [m for m in loaded if m.startswith(("scipy.optimize", "scipy.sparse"))] == []
