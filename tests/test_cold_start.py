"""Importing ``fourfold.cli`` and serving a text report of generators
loads only what the request needs: not ``dataclasses`` (which pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``), ``typing`` or ``json``.
All eight layer modules are still imported by ``fourfold.cli`` itself,
so start-up cannot get shorter by importing a layer later.

The probe runs under ``python -S``, so no ``site`` hook loads modules
first.  Run as a script, ``python tests/test_cold_start.py DIR`` checks
the package that DIR holds, for example the ``site-packages`` directory
of an installed copy.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
LAYERS = ("cli", "expressions", "manifolds", "lattice", "spinc", "bordism", "obstructions",
          "report")
NOT_LOADED = ("dataclasses", "inspect", "typing", "json")

# The report goes to stdout first; the last line is the probe's own.
_PROBE = """\
import sys, fourfold.cli
code = fourfold.cli.main(["analyze", "K3 # K3"])
print(repr((code, fourfold.__file__, sorted(sys.modules))))
"""


def check(path) -> None:
    """Serve one text request from the package under ``path`` in a fresh
    ``python -S`` and check what it imported."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _PROBE],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(path)),
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    code, package, modules = ast.literal_eval(proc.stdout.splitlines()[-1])
    assert code == 0
    assert Path(package).resolve().is_relative_to(Path(path).resolve()), package
    assert [name for name in NOT_LOADED if name in modules] == []
    assert [name for name in LAYERS if f"fourfold.{name}" not in modules] == []


def test_text_request_loads_no_dataclasses_typing_or_json():
    check(SRC)


if __name__ == "__main__":
    check(sys.argv[1])
    print(f"cold-start import guard: PASS ({sys.argv[1]})")
