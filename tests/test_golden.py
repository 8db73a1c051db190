"""Byte identity against stored digests: the same seed must give the same
artifacts and manifest rows as when tests/golden_tiny.json was written. A
change that moves an artifact on purpose rewrites that file with
``python tests/golden.py --write`` and says which digests moved and why."""
import json

from golden import GOLDEN, SEEDS, differences, digests, environment


def test_tiny_pipeline_matches_its_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    here = environment()
    stored = {key: golden[key] for key in here}
    assert here == stored, (f"{GOLDEN.name} was written under {stored}, this run has {here}; "
                            f"float results may differ, so compare on the stored setup or "
                            f"rewrite it with tests/golden.py --write")
    found = []
    for seed in SEEDS:
        found += differences(seed, golden["seeds"][str(seed)],
                             digests(tmp_path / f"seed{seed}", seed))
    assert not found, "\n".join([f"{len(found)} digests differ:", *found])
