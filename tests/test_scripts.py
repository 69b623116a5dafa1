import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_planted_recovery_script_recovers_every_planted_expert(monkeypatch, capsys):
    main = runpy.run_path(str(SCRIPTS / "planted_recovery.py"))["main"]
    monkeypatch.setattr(sys, "argv", ["planted_recovery.py", "--trials", "2"])
    assert main() == 0
    assert "pathfinder 2/2" in capsys.readouterr().out
