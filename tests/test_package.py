"""The package namespace binds no function, class or constant, and importing
the command-line module loads every module of the package and none of
`dataclasses`, `inspect` and `csv`: the CLI writes CSV rows itself, as no
field of a record needs quoting.  Nor does the import build the argument
parser, which the first call of `main` builds, so a process that imports the
CLI only for its constants pays for no parser."""

import json
import os
import subprocess
import sys
from pathlib import Path

import cantorq

MODULES = ("asymptotics", "cli", "closedform", "constraint", "measure", "oracle")

PROBE = """
import json, sys, types
import cantorq.cli
print(json.dumps({
    "loaded": sorted(m for m in sys.modules if m.startswith("cantorq.")),
    "bound": sorted(k for k, v in vars(sys.modules["cantorq"]).items()
                    if not k.startswith("__") and not isinstance(v, types.ModuleType)),
    "heavy": sorted(m for m in ("dataclasses", "inspect", "csv", "_csv") if m in sys.modules),
    "parsers": cantorq.cli.build_parser.cache_info().currsize,
}))
"""


def test_importing_the_cli_loads_every_module_and_binds_none_of_their_names():
    src = str(Path(cantorq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    probe = json.loads(out)
    assert set(probe["loaded"]) >= {f"cantorq.{m}" for m in MODULES}
    assert probe["bound"] == []
    assert probe["heavy"] == []
    assert probe["parsers"] == 0
