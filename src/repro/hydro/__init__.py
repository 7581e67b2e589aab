"""Castro-like compressible hydrodynamics on AMR patches.

2-D gamma-law Euler equations with one kernel: piecewise-linear minmod
slopes at the old time level, the HLLC Riemann solver and a
dimensionally unsplit forward-Euler update, all writing into a reusable
:class:`Workspace`, with :func:`active_box` bounding the cells it can
change; Castro's CFL/init_shrink/change_max timestep control,
outflow/symmetry boundaries, and the Sedov blast problem with its
Sedov–Taylor self-similar analytic solution.
"""

from .boundary import BC, apply_boundary
from .eos import GammaLawEOS
from .flux import NGHOST_REQUIRED, active_box, advance_patch
from .reconstruction import interface_states, limited_slopes, minmod
from .riemann import RIEMANN_SOLVERS, euler_flux, hllc_flux, wave_speed_estimates
from .sedov import (
    SEDOV_XI0_2D,
    SedovProblem,
    sedov_taylor_radius,
    sedov_taylor_shock_speed,
)
from .state import (
    NCOMP,
    QP,
    QRHO,
    QU,
    QV,
    UEDEN,
    UMX,
    UMY,
    URHO,
    cons_to_prim,
    mach_number,
    prim_to_cons,
)
from .timestep import TimestepController, cfl_timestep
from .workspace import Workspace

__all__ = [
    "BC",
    "apply_boundary",
    "GammaLawEOS",
    "NGHOST_REQUIRED",
    "active_box",
    "advance_patch",
    "interface_states",
    "limited_slopes",
    "minmod",
    "RIEMANN_SOLVERS",
    "euler_flux",
    "hllc_flux",
    "wave_speed_estimates",
    "SEDOV_XI0_2D",
    "SedovProblem",
    "sedov_taylor_radius",
    "sedov_taylor_shock_speed",
    "NCOMP",
    "QP",
    "QRHO",
    "QU",
    "QV",
    "UEDEN",
    "UMX",
    "UMY",
    "URHO",
    "cons_to_prim",
    "mach_number",
    "prim_to_cons",
    "TimestepController",
    "cfl_timestep",
    "Workspace",
]
