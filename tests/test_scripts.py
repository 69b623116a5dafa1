import importlib
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def test_planted_recovery_script_recovers_every_planted_expert(monkeypatch, capsys):
    main = runpy.run_path(str(SCRIPTS / "planted_recovery.py"))["main"]
    monkeypatch.setattr(sys, "argv", ["planted_recovery.py", "--trials", "2"])
    assert main() == 0
    assert "pathfinder 2/2" in capsys.readouterr().out


def test_every_name_the_benchmark_traces_resolves(monkeypatch):
    # bench/run.py --trace 1 wraps each TRACED (module, attribute) by name; a
    # rename in src/ would break the traced run, so resolve them all here
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing
    import workloads  # noqa: F401  (fails if a name the workloads import is gone)

    for home, attr, name, _ in tracing.TRACED:
        owner = importlib.import_module(f"moe_pathfinder.{home}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name
