"""The simulation path is stdlib-only: ``import repro`` and a run load no numpy.

numpy stays an optional dependency of functional payload mode
(:meth:`repro.memory.buffer.Buffer.ensure_data`).  Each case runs in a
fresh interpreter, so modules the test process already imported do not
mask an eager import.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

RUN = """
import repro
from repro.figures import run_and_report

_, text = run_and_report("fig06")
assert text
with repro.Session() as session:
    comm = session.rccl_communicator([0, 1, 2, 3])
    session.run(comm.allreduce(1 << 20))
    assert session.now > 0
    buffer = session.hip.malloc(64, device=0)
"""


def _python(code, tmp_path):
    env = {**os.environ, "PYTHONPATH": SRC, "REPRO_CACHE_DIR": str(tmp_path)}
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_import_and_simulation_never_load_numpy(tmp_path):
    proc = _python(RUN + "import sys\nassert 'numpy' not in sys.modules\n", tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_blocked_numpy_only_breaks_payload_mode(tmp_path):
    code = (
        "import sys\nsys.modules['numpy'] = None\n"
        + RUN
        + """
try:
    buffer.ensure_data()
except ImportError:
    print("payload mode needs numpy")
"""
    )
    proc = _python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("payload mode needs numpy")
