"""The checked-in full-size ``BENCH_*.json`` artifacts pass the full-size
assertions of the benches that write them: none is a smoke run, and none
misses a floor or ceiling (``FULL_SIZE_CHECKS`` in ``tools/bench_smoke.py``)."""

import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
if str(REPO) not in sys.path:  # tools/ is a repo-root package, not in src/
    sys.path.insert(0, str(REPO))

from tools.bench_smoke import FULL_SIZE_CHECKS, OUTPUT_DIR, full_size_errors  # noqa: E402

ARTIFACTS = sorted(
    set(FULL_SIZE_CHECKS)
    | {p.name for p in Path(OUTPUT_DIR).glob("BENCH_*.json")
       if not p.stem.endswith("_smoke")}
)


@pytest.mark.parametrize("artifact", ARTIFACTS)
def test_checked_in_artifact_is_full_size(artifact):
    with open(Path(OUTPUT_DIR) / artifact, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert full_size_errors(artifact, payload) == []
