"""Complexified-quaternion form of the Dirac and radiation equations.

The library is organised bottom-up:

* ``quaternion``   the algebra, conjugations and 2x2 matrix view,
* ``spinor_maps``  column/quaternion maps, lifts and the ideal projector,
* ``blocks``       reflector and rotator block matrices,
* ``transforms``   rotors, their laws and the multiplication patterns,
* ``dirac``        plane-wave modes and the quaternion equation pipeline,
* ``current``      the conserved current, its covariance and radiation,
* ``harness``      seeded verification suites and the grid oracle.

The ``qdirac`` console script runs the suites; see ``qdirac list-suites``.
"""

from .quaternion import (
    BASIS,
    I1,
    I2,
    I3,
    ONE,
    ZERO,
    Quat,
    SingularQuaternion,
    dot,
    from_matrix,
    to_matrix,
)
from .spinor_maps import (
    SIGMA,
    ideal_factor,
    ideal_project,
    lift_G,
    lift_L,
    map_F,
    map_N,
    quat_to_vec,
    vec_to_quat,
)
from .blocks import (
    Reflector,
    Rotator,
    block_power,
    identity_rotator,
    similarity,
)
from .transforms import (
    ROTATION_PATTERNS,
    TransformSpec,
    four_vector_transform,
    pattern_rotate,
    rotor_blocks,
    rotor_boost,
    rotor_spatial,
)
from .dirac import (
    ALPHA,
    BETA,
    BispinorPair,
    DiracState,
    FieldData,
    IdealViolation,
    PlaneWaveMode,
    apply_discrete,
    dirac_hamiltonian,
    momentum_symbol,
    pair_residual,
    pair_system_matrix,
    pair_to_spinor,
    plane_wave_modes,
    spinor_to_pair,
    state_from_mode,
    transform_state,
)
from .current import (
    CovarianceReport,
    LightlikeMode,
    NotASolution,
    RadiationMode,
    block_current,
    current_covariance,
    current_divergence,
    euclidean_current,
    pair_current,
    radiation_residual,
    solve_potential,
    spinor_current,
)
from .harness import (
    Grid4,
    GridTooSmall,
    SuiteConfig,
    UnknownSuite,
    VerificationReport,
    emit_report,
    fd_apply_D,
    list_suites,
    run_suite,
    sample_quat_mode,
)

__version__ = "0.1.0"
