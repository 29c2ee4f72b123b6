import types

import qdirac

# the top-level names: the __all__ of the library modules and ten of harness
TOP_LEVEL = {
    "ALPHA", "BASIS", "BETA", "BispinorPair", "CovarianceReport", "DiracState",
    "FieldData", "Grid4", "GridTooSmall", "I1", "I2", "I3", "IdealViolation",
    "LightlikeMode", "NotASolution", "ONE", "PlaneWaveMode", "Quat",
    "ROTATION_PATTERNS", "RadiationMode", "Reflector", "Rotator", "SIGMA",
    "SingularQuaternion", "SuiteConfig", "TransformSpec", "UnknownSuite",
    "VerificationReport", "apply_discrete", "block_current", "block_power",
    "current_covariance", "current_divergence", "dirac_hamiltonian", "dot",
    "emit_report", "euclidean_current", "fd_apply_D", "four_vector_transform",
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
