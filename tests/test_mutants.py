"""The mutation catalogue (``mutants/catalogue.py``) has no stale entry.

Running the catalogue takes minutes (``python3 mutants/run.py``); this
checks only that each entry still applies: its old text occurs exactly once
in its file, and its test is still defined.
"""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _catalogue() -> list:
    spec = importlib.util.spec_from_file_location("catalogue", ROOT / "mutants" / "catalogue.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CATALOGUE


def test_every_mutant_applies_once_and_names_a_defined_test():
    catalogue = _catalogue()
    assert len({m.name for m in catalogue}) == len(catalogue)
    for m in catalogue:
        assert m.old != m.new, m.name
        assert (ROOT / m.file).read_text().count(m.old) == 1, m.name
        file, _, name = m.test.partition("::")
        assert re.search(rf"^def {re.escape(name)}\(", (ROOT / file).read_text(), re.M), m.name
