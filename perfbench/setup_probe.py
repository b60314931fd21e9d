"""Set-up probe: import fidlab, warm one workload up, then print ``ready``.

``run.py`` starts this script several times and times each start until the
``ready`` line arrives; that span is the ``setup_s`` metric.

    python3 perfbench/setup_probe.py <workload> <scratch dir>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fidlab  # noqa: E402,F401  (the import is what is being timed)
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](seed=0, workdir=Path(sys.argv[2])).warm_up()
print("ready", flush=True)
