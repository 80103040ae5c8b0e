"""What ``eclc build`` imports.

A fresh ``eclc`` process pays for every module it imports, and a cold
build is what a designer waits for on each edit.  ``build --emit
c,native`` needs the frontend, phase 2 and those two emitters; these
tests run it in a fresh interpreter and check that nothing else of the
package (services, farm, verifier, RTOS, cost model, the other
emitters) nor numpy was loaded.
"""

import json
import os
import subprocess
import sys

from repro.designs import DOOR_CTRL_ECL

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")

#: The seven built-in ``--emit`` backends and their modules.
BACKENDS = {name: "repro.codegen.%s_backend" % name for name in
            ("c", "py", "native", "vhdl", "verilog", "esterel", "dot")}

#: Modules a ``build --emit c,native`` has no use for.
NOT_FOR_BUILD = (
    "numpy",
    "repro.analysis",
    "repro.core.compiler",
    "repro.core.partition",
    "repro.cost",
    "repro.efsm.product",
    "repro.esterel.interp",
    "repro.farm",
    "repro.rtos",
    "repro.runtime.vcd",
    "repro.serve",
    "repro.verify",
) + tuple(module for name, module in sorted(BACKENDS.items())
          if name not in ("c", "native"))

_RUN = """
import contextlib, io, json, sys
from repro import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    try:
        code = cli.main(json.loads(sys.argv[1]))
    except SystemExit as stop:
        code = stop.code
print(json.dumps({"code": code, "stdout": out.getvalue(),
                  "modules": sorted(sys.modules)}))
"""


def _run(argv, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", _RUN, json.dumps(argv)],
                          env=env, cwd=cwd, capture_output=True, text=True,
                          check=True)
    return json.loads(done.stdout)


def test_build_loads_only_what_it_runs(tmp_path):
    with open(tmp_path / "door.ecl", "w") as handle:
        handle.write(DOOR_CTRL_ECL)
    result = _run(["build", "door.ecl", "--emit", "c,native", "-o", "out",
                   "--cache-dir", "cache"], str(tmp_path))
    assert result["code"] == 0
    assert os.listdir(tmp_path / "out")
    loaded = set(result["modules"])
    assert {BACKENDS["c"], BACKENDS["native"]} <= loaded
    unwanted = [name for name in loaded
                if name.split(".")[0] == "numpy" or any(
                    name == module or name.startswith(module + ".")
                    for module in NOT_FOR_BUILD)]
    assert unwanted == []


def test_build_help_lists_every_backend_without_importing_them(tmp_path):
    result = _run(["build", "--help"], str(tmp_path))
    assert result["code"] == 0
    text = " ".join(result["stdout"].split())
    listed = text.split("available: ", 1)[1].split(")", 1)[0]
    assert sorted(listed.split(", ")) == sorted(BACKENDS)
    assert [name for name in result["modules"]
            if name.startswith("repro.codegen.")] == []
