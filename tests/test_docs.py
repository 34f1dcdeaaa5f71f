import re
from pathlib import Path

from pytest import approx

import trustgrid

README = Path(__file__).resolve().parent.parent / "README.md"


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
