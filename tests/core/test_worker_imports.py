"""What an engine worker loads: the synthesis path imports no fitting libraries.

Spawned engine workers import :mod:`repro.core.engine` and the Bayesian
network model they synthesize from.  networkx (structure learning) and scipy
(the sparse Gram backend) serve only model fitting, so they are imported
inside the functions that use them and stay out of every worker.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

_SCRIPT = """
import sys
import repro.core.engine
import repro.generative.bayesian_network
loaded = sorted(
    name for name in sys.modules
    if name.split(".")[0] in ("networkx", "scipy")
)
print(",".join(loaded))
"""


def test_engine_and_model_imports_leave_out_networkx_and_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, *filter(None, [env.get("PYTHONPATH")])]
    )
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == ""

