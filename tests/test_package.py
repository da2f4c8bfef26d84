"""The import surface: what ``import nosell`` loads and exports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import nosell

REMOVED = (
    "MAX_ACTIVE_SET_N",
    "MAX_GRID_N",
    "ObjectiveValue",
    "OracleReport",
    "active_set_l2_oracle",
    "grid_l1_oracle",
    "iter_active_set_candidates",
    "l1_objective",
    "l1_optimal_value",
    "l2_objective",
)

PROBE = """
import json, sys
import nosell
print(json.dumps({
    "modules": sorted(m for m in sys.modules if m == "nosell" or m.startswith("nosell.")),
    "missing": [name for name in nosell.__all__ if not hasattr(nosell, name)],
    "exported": [name for name in %r if name in nosell.__all__ or hasattr(nosell, name)],
}))
"""


def test_import_surface():
    # a fresh interpreter, so no module the tests imported is counted; it
    # imports the same nosell as the tests
    env = dict(os.environ)
    src = str(Path(nosell.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    command = [sys.executable, "-c", PROBE % (REMOVED,)]
    out = subprocess.run(command, capture_output=True, text=True, check=True, env=env).stdout
    surface = json.loads(out)
    assert surface["modules"] == ["nosell", "nosell.cli", "nosell.portfolio", "nosell.solvers"]
    assert surface["missing"] == []
    assert surface["exported"] == []


LAZY_PROBE = """
import json, sys
import numpy
before = set(sys.modules)
import %s
print(json.dumps({"numpy": "fractions" in before, "nosell": "fractions" in sys.modules}))
"""


def test_import_leaves_fractions_unloaded():
    # fractions (and decimal and numbers with it) serves one fallback of
    # Portfolio's total, which imports it; nosell's start-up does not pay
    # for it where numpy's does not
    env = dict(os.environ)
    src = str(Path(nosell.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for module in ("nosell", "nosell.cli"):
        out = subprocess.run([sys.executable, "-c", LAZY_PROBE % module], capture_output=True, text=True, check=True,
                             env=env).stdout
        loaded = json.loads(out)
        assert loaded["nosell"] == loaded["numpy"], (module, loaded)
