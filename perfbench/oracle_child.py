"""The oracle-verify step, run by run.py as a fresh child process.

Usage: python oracle_child.py INPUTS_JSON OUT_JSON  (with the package's
src directory on PYTHONPATH)

Writes the oracle densities and ``oracle_s``: the time spent inside the
``distribution_numeric_oracle`` calls, interpreter start and imports
excluded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from inproc import Chain
from tracing import Tracer


def main(argv: list[str]) -> int:
    inputs = json.loads(Path(argv[1]).read_text())
    out_path = Path(argv[2])
    tracer = Tracer()
    densities = Chain(inputs, out_path.parent, tracer).oracle()["densities"]
    oracle_s = sum(s.end - s.start for s in tracer.spans if s.name.startswith("probe.oracle_"))
    out_path.write_text(json.dumps({"densities": densities, "oracle_s": oracle_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
