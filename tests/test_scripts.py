import importlib
import inspect
import re
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


# the arguments each traced function's after-call hook reads by name
HOOK_PARAMETERS = {
    "save_graph": ("graph", "dirpath", "stem"),
    "model_forward": ("x", "mask"),
    "top_m_paths_dp": ("graph", "m"),
    "target_sparsity_search": ("graphs",),
    "eval_mask": ("model", "eval_samples"),
    "save_tensor": ("path",),
    "load_tensor": ("path",),
    "Rng.uniform_array": ("shape",),
}


def test_every_name_the_benchmark_traces_resolves(monkeypatch):
    # bench/run.py --trace 1 wraps each TRACED (module, attribute) by name and
    # hands its hook the call's arguments by name; a rename in src/ would
    # break the traced run, so resolve every function and parameter here
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing
    import workloads  # noqa: F401  (fails if a name the workloads import is gone)

    for home, attr, name, after in tracing.TRACED:
        owner = importlib.import_module(f"moe_pathfinder.{home}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name
        wanted = HOOK_PARAMETERS.get(attr, ())
        assert set(wanted) <= set(inspect.signature(owner).parameters), (attr, wanted)
        # the table lists every argument the hook reads, so it cannot go stale
        read = re.findall(r"""\ba\[["'](\w+)["']\]""", inspect.getsource(after)) if after else []
        assert set(read) <= set(wanted), (attr, read)
