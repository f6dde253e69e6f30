"""The repo's performance benchmark (see bench/README.md).

``python3 -m bench.run`` measures five fixed-work workloads of the CorrOpt
loop from outside the program: end-to-end metrics with tracing off, and
per-layer metrics from a separate traced run.  Nothing under ``src/``
imports this package.
"""

from pathlib import Path

#: Everything the benchmark writes (Chrome traces, checkpoint scratch space,
#: the gate's floor) goes here: inside the checkout, git-ignored.
OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_out"
