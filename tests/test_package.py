import os
import subprocess
import sys
import types
from pathlib import Path

import qdirac

ROOT = Path(__file__).resolve().parent.parent

# the top-level names: the __all__ of the library modules and ten of harness
TOP_LEVEL = {
    "ALPHA", "BASIS", "BETA", "BispinorPair", "DiracState",
    "FieldData", "Grid4", "GridTooSmall", "I1", "I2", "I3", "IdealViolation",
    "LightlikeMode", "NotASolution", "ONE", "PlaneWaveMode", "Quat",
    "ROTATION_PATTERNS", "RadiationMode", "Reflector", "Rotator", "SIGMA",
    "SingularQuaternion", "SuiteConfig", "TransformSpec", "UnknownSuite",
    "VerificationReport", "apply_discrete", "block_current", "block_power",
    "current_divergence", "dirac_hamiltonian", "dot",
    "emit_report", "fd_apply_D", "four_vector_transform",
    "from_matrix", "ideal_factor", "identity_rotator", "lift_G", "lift_L",
    "list_suites", "map_F", "map_N", "momentum_symbol", "pair_current",
    "pair_residual", "pair_system_matrix", "pair_to_spinor", "pattern_rotate",
    "plane_wave_modes", "quat_to_vec", "radiation_residual", "rotor_blocks",
    "rotor_boost", "rotor_spatial", "run_suite", "sample_quat_mode",
    "solve_potential", "spinor_current", "spinor_to_pair", "state_from_mode",
    "to_matrix", "transform_state", "vec_to_quat",
}


def test_top_level_names():
    names = {
        name
        for name, value in vars(qdirac).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == TOP_LEVEL


# a fresh import of every module starts no thread and leaves no worker,
# pool or executor behind: the grid kernels start their threads per call
_IMPORT_PROBE = """
import threading
before = threading.enumerate()
import qdirac, qdirac.cli
import concurrent.futures, multiprocessing.pool, sys
assert threading.enumerate() == before, threading.enumerate()
workers = (threading.Thread, concurrent.futures.Executor, multiprocessing.pool.Pool)
for key, module in sorted(sys.modules.items()):
    if key.split(".")[0] == "qdirac":
        for name, value in vars(module).items():
            assert not isinstance(value, workers), (key, name)
"""


def test_import_starts_no_worker():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
