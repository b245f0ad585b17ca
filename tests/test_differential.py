"""The differential harness (``tests/differential.py``) runs each row of
its path table under exactly one test: the one a ``case`` call with the
row's name binds, one test per shard of the row."""

import re
from collections import Counter
from pathlib import Path

from differential import PATHS


def test_every_row_is_bound_once():
    tests = Path(__file__).parent.glob("test_*.py")
    source = "".join(path.read_text() for path in tests)
    bound = Counter(re.findall(r'\bcase\(\s*"([^"]+)"\s*\)', source))
    assert bound == dict.fromkeys(PATHS, 1)
