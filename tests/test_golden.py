"""This checkout's outputs against the golden files in ``tests/golden/``.

Every CSV column but ``wall_ms`` and every other golden file must match
byte for byte; ``tests/golden/regenerate.py`` says how the files were made.
"""
import pytest

from golden.regenerate import GOLDEN_DIR, diff, main, produce, without_wall_ms


@pytest.fixture(scope="module")
def produced():
    return produce()


@pytest.mark.parametrize("name", ["campaign_city_desk.csv", "sweep_city_desk.csv",
                                  "gae_test_staged_k5.txt", "gae_test_staged_k5.csv",
                                  "gae_scores.json", "solve.txt"])
def test_output_matches_golden_file(produced, name):
    golden = (GOLDEN_DIR / name).read_text()
    if name.endswith(".csv"):
        assert without_wall_ms(produced[name]) == without_wall_ms(golden)
    else:
        assert produced[name] == golden
    assert set(produced) == {path.name for path in GOLDEN_DIR.iterdir()
                             if path.suffix in (".csv", ".txt", ".json")}


def test_diff_names_each_changed_cell_and_writes_nothing(produced, capsys, monkeypatch):
    assert diff(produced) == []
    changed = {**produced,
               "solve.txt": produced["solve.txt"].replace("qom=0.04204738442836757",
                                                          "qom=0.04204738442836758", 1),
               "campaign_city_desk.csv": produced["campaign_city_desk.csv"].replace(
                   "mcpa,0,200.0,0.9,", "mcpa,0,200.0,0.8,", 1)}
    assert diff(changed) == [
        "campaign_city_desk.csv\trow 1 (mcpa,0,200.0)\teqa_accuracy\t0.9\t0.8\t1.11e-01",
        "solve.txt\tline 6 (city_desk mcpa 0)\tqom\t0.04204738442836757"
        "\t0.04204738442836758\t1.65e-16",
    ]
    before = {path: path.read_bytes() for path in GOLDEN_DIR.iterdir() if path.is_file()}
    monkeypatch.setattr("golden.regenerate.produce", lambda: changed)
    assert main(["--diff"]) == 0
    assert capsys.readouterr().out.count("\n") == 2
    assert {path: path.read_bytes() for path in GOLDEN_DIR.iterdir() if path.is_file()} == before
