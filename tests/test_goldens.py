"""Golden digests of the bundled quick configs' CSV outputs.

``quick_goldens.json`` maps each CSV file name to the sha256 of its lines
joined by newlines, without the ``# created:`` timestamp line. A refactor
must leave every digest unchanged; a change meant to alter an output
updates the digest in the same change and says why. The digests were
recorded with numpy 2.4.6 and scipy 1.17.1 on x86_64.
"""

import hashlib
import json
from pathlib import Path

GOLDENS = Path(__file__).with_name("quick_goldens.json")


def test_quick_config_csv_bodies_match_goldens(quick_bodies_w1):
    expected = json.loads(GOLDENS.read_text())
    digests = {csv: hashlib.sha256("\n".join(lines).encode()).hexdigest()
               for bodies in quick_bodies_w1.values()
               for csv, lines in bodies.items()}
    assert sorted(digests) == sorted(expected)
    changed = sorted(csv for csv in expected if digests[csv] != expected[csv])
    assert not changed, f"CSV bodies differ from their goldens: {changed}"
