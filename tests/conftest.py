import importlib.util
from pathlib import Path

from hypothesis import settings

# every property test draws the same examples on every run and writes no
# example database; each test keeps its own max_examples
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def load_workloads():
    """The benchmark's ``perfbench/workloads.py``, loaded by path: perfbench is no package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()
