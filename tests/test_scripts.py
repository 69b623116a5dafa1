import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_run_comparison_script_writes_its_three_files(tmp_path, monkeypatch, capsys):
    main = runpy.run_path(str(SCRIPTS / "run_comparison.py"))["main"]
    out = tmp_path / "cmp"
    monkeypatch.setattr(sys, "argv", ["run_comparison.py", "--seeds", "1", "--out", str(out)])
    assert main() == 0
    # every file written atomically: the three outputs and no leftover .tmp
    assert sorted(p.name for p in out.iterdir()) == [
        "comparison.csv", "manifest.json", "summary.json",
    ]
    assert out.joinpath("comparison.csv").read_text().startswith(
        "model_seed,mask,mask_id,final_error,retention\n0,pathfinder,0,"
    )
    assert "pathfinder wins" in capsys.readouterr().out
