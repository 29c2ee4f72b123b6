"""Complexified-quaternion form of the Dirac and radiation equations.

The library is organised bottom-up:

* ``quaternion``   the algebra, conjugations, 2x2 matrix view and the
                   multiplication tables of its product,
* ``spinor_maps``  column/quaternion maps, lifts and the ideal factor,
* ``blocks``       reflector and rotator block matrices,
* ``transforms``   rotors, their laws and the multiplication patterns,
* ``dirac``        plane-wave modes and the quaternion equation pipeline,
* ``current``      the conserved current, its conservation and radiation,
* ``harness``      seeded verification suites and the grid oracle.

The ``qdirac`` console script runs the suites; see ``qdirac list-suites``.
"""

# the public names of the library modules are their __all__
from .quaternion import *  # noqa: F401,F403
from .spinor_maps import *  # noqa: F401,F403
from .blocks import *  # noqa: F401,F403
from .transforms import *  # noqa: F401,F403
from .dirac import *  # noqa: F401,F403
from .current import *  # noqa: F401,F403

# the harness's __all__ also lists names, its dense oracles among them, that
# stay in harness
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
