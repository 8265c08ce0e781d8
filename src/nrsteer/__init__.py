"""Numerical ranges of complex matrices and diagonal-phase steering of
unitary spectra."""

import os as _os

# NUMRANGE_THREADS caps internal (BLAS) parallelism; it must land in the
# environment before numpy loads its BLAS, hence before any submodule import.
_cap = _os.environ.get("NUMRANGE_THREADS")
if _cap:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _cap)
del _os, _cap

from .linalg import (  # noqa: E402
    BranchCutWarning,
    EigendecompositionError,
    EigenSystem,
    check_hermitian,
    check_unitary,
    geodesic_point,
    principal_log_unitary,
    schatten_inf,
    unitary_eig,
    unitary_exp_herm,
)
from .numrange import (  # noqa: E402
    OriginVerdict,
    SupportProfile,
    contains_zero_general,
    contains_zero_unitary,
    origin_verdict,
    support_profile,
)
from .perturb import (  # noqa: E402
    PerturbationGenerator,
    TrackingCollisionError,
    TrajectoryRecord,
    compress_generator,
    perturbed_unitary,
    track_trajectory,
)
from .steering import (  # noqa: E402
    NothingToSteerError,
    SteeringPlan,
    perturbation_cost,
    plan,
    select_generator,
    speed_profile,
)
from .testkit import (  # noqa: E402
    Fixture,
    brute_membership,
    conditioned_unitary,
    degenerate_fixture,
    fd_velocity,
    haar_unitary,
)

__version__ = "0.1.0"
