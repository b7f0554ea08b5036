"""The import surface: the package root loads nothing, and every module
imports on its own, whatever was imported before it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import flowgate

PACKAGE = Path(flowgate.__file__).parent


def _fresh_python(code: str) -> object:
    """What ``code`` prints as JSON, run in a new interpreter that finds this
    checkout's flowgate first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=False
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_importing_the_package_loads_no_submodule_and_not_numpy():
    loaded = _fresh_python(
        "import json, sys\n"
        "import flowgate\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "    if m.startswith('flowgate.') or m.split('.')[0] == 'numpy')))\n"
    )
    assert loaded == []


def test_every_module_imports_alone():
    # each import starts from no flowgate module loaded, so an import cycle
    # that one fixed import order would hide still fails here
    names = sorted(
        ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts).removesuffix(".__init__")
        for path in PACKAGE.rglob("*.py")
    )
    assert "flowgate.models.tree" in names
    failed = _fresh_python(
        "import importlib, json, sys\n"
        "failed = {}\n"
        f"for name in {names!r}:\n"
        "    for loaded in [m for m in sys.modules if m.split('.')[0] == 'flowgate']:\n"
        "        del sys.modules[loaded]\n"
        "    try:\n"
        "        importlib.import_module(name)\n"
        "    except Exception as exc:\n"
        "        failed[name] = repr(exc)\n"
        "print(json.dumps(failed))\n"
    )
    assert failed == {}
