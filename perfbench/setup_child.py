"""The set-up step whose wall time is ``setup_s``.

    python3 perfbench/setup_child.py WORKLOAD SEED DIR

Imports the package from the checkout's ``src`` and writes the workload's
generated scenario files into DIR.  Prints the import time as JSON.
"""

import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import posterior_dynamics  # noqa: E402

import_s = time.perf_counter() - start
if not Path(posterior_dynamics.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"posterior_dynamics imported from {posterior_dynamics.__file__}, not {SRC}")

import workloads  # noqa: E402

workload, seed, directory = sys.argv[1], int(sys.argv[2]), sys.argv[3]
workloads.write_scenarios(workloads.build(workload, seed), directory)
print(json.dumps({"import_s": import_s}))
