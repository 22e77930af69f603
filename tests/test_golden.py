"""This checkout's outputs against the golden files in ``tests/golden/``.

Every CSV column but ``wall_ms`` and every other golden file must match
byte for byte; ``tests/golden/regenerate.py`` says how the files were made.
"""
import pytest

from golden.regenerate import GOLDEN_DIR, produce, without_wall_ms


@pytest.fixture(scope="module")
def produced():
    return produce()


@pytest.mark.parametrize("name", ["campaign_city_desk.csv", "sweep_city_desk.csv",
                                  "gae_test_staged_k5.txt", "gae_test_staged_k5.csv",
                                  "gae_scores.json"])
def test_output_matches_golden_file(produced, name):
    golden = (GOLDEN_DIR / name).read_text()
    if name.endswith(".csv"):
        assert without_wall_ms(produced[name]) == without_wall_ms(golden)
    else:
        assert produced[name] == golden
    assert set(produced) == {path.name for path in GOLDEN_DIR.iterdir()
                             if path.suffix in (".csv", ".txt", ".json")}
