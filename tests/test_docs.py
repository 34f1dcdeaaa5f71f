import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

from pytest import approx

import trustgrid
from trustgrid.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    rec = namespace["rec"]
    assert (rec.predicted, rec.confidence) == (approx(3.5), approx(0.6))


def test_package_all_names_resolve():
    assert all(hasattr(trustgrid, name) for name in trustgrid.__all__)
    namespace = {}
    exec("from trustgrid import *", namespace)
    assert set(trustgrid.__all__) <= set(namespace)


def test_package_imports_with_the_standard_library_alone():
    # -I -S leave site-packages and the environment off sys.path, so any
    # third-party import in the package fails here
    modules = [f"trustgrid.{m.name}" for m in pkgutil.iter_modules(trustgrid.__path__)]
    assert "trustgrid.propagation" in modules
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            f"import importlib; [importlib.import_module(m) for m in {modules!r}]")
    subprocess.run([sys.executable, "-I", "-S", "-c", code], check=True)


def test_readme_cli_example_runs(tmp_path, monkeypatch):
    """Every `trustgrid` command of README's CLI block, in order, exits 0 on a
    shrunk synthetic graph that still holds users 4 and 17 and item 101. It
    is this small because `trust --leave-one-out` propagates once per sampled
    edge, and this graph's 10 % sample already holds 30 edges."""
    blocks = [b for b in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
              if "trustgrid synth" in b]
    assert len(blocks) == 1
    script = blocks[0].replace("\\\n", " ")
    assert "--users 2000 --items 6000" in script
    script = script.replace("--users 2000 --items 6000", "--users 30 --items 120")
    commands = [shlex.split(line) for line in script.splitlines()
                if line.startswith("trustgrid ")]
    assert len(commands) >= 8
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, shlex.join(argv)
