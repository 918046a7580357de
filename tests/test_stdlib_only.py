"""scw has no runtime dependency beyond the standard library
(`dependencies = []` in pyproject.toml)."""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# imports every module named on the command line, then prints the top-level
# names of all loaded modules that are neither standard library nor built in
PROBE = """
import importlib, json, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
tops = {name.partition(".")[0] for name in sys.modules} - {"__main__"}
print(json.dumps(sorted(top for top in tops if top not in sys.stdlib_module_names
                        and top not in sys.builtin_module_names)))
"""


def test_every_module_imports_from_the_standard_library_alone():
    modules = sorted(f"scw.{path.stem}" for path in (SRC / "scw").glob("*.py"))
    assert "scw.cli" in modules and "scw.__init__" in modules
    modules.remove("scw.__init__")
    # -S: no site-packages, so a third-party import cannot even be found
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", PROBE, *modules], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == ["scw"]
