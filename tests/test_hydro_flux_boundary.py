"""Tests for the patch Godunov update and boundary conditions.

The workspace kernel is pinned bit for bit to a frozen oracle: the
allocating hydro chain as it stood before every stage was rewritten to
write into a :class:`Workspace`, copied here verbatim.  Comparisons are
of raw bytes, so ``-0.0`` vs ``+0.0`` and NaN payloads count.
"""

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.geometry import Geometry
from repro.hydro.boundary import BC, apply_boundary
from repro.hydro.eos import GammaLawEOS
from repro.hydro.flux import NGHOST_REQUIRED, advance_patch
from repro.hydro.reconstruction import interface_states, limited_slopes, minmod
from repro.hydro.riemann import (
    RIEMANN_SOLVERS,
    euler_flux,
    hllc_flux,
    wave_speed_estimates,
)
from repro.hydro.sedov import SedovProblem
from repro.hydro.state import (
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
    prim_to_cons,
)
from repro.hydro.timestep import cfl_timestep
from repro.hydro.workspace import Workspace

EOS = GammaLawEOS()
G = NGHOST_REQUIRED


def uniform_patch(nx, ny, rho=1.0, u=0.0, v=0.0, p=1.0, g=G):
    W = np.empty((NCOMP, nx + 2 * g, ny + 2 * g))
    W[0], W[1], W[2], W[3] = rho, u, v, p
    return prim_to_cons(W, EOS)


def bits(a):
    """Shape, dtype and raw bytes: equal only if every bit is."""
    a = np.asarray(a)
    return a.shape, a.dtype.str, np.ascontiguousarray(a).tobytes()


# ----------------------------------------------------------------------
# The allocating hydro chain, verbatim (EOS methods included, with
# ``self`` an EOS wrapper): the oracle the workspace kernel is pinned to.
# ----------------------------------------------------------------------
class RefEOS:
    """``GammaLawEOS``'s allocating methods over the same parameters."""

    def __init__(self, eos):
        self.gamma = eos.gamma
        self.small_pressure = eos.small_pressure
        self.small_density = eos.small_density

    def pressure(self, rho, e_int):
        p = (self.gamma - 1.0) * rho * e_int
        return np.maximum(p, self.small_pressure)

    def sound_speed(self, rho, p):
        return np.sqrt(self.gamma * np.maximum(p, self.small_pressure)
                       / np.maximum(rho, self.small_density))

    def total_energy_density(self, rho, u, v, p):
        return p / (self.gamma - 1.0) + 0.5 * rho * (u * u + v * v)


REF_EOS = RefEOS(EOS)


def ref_cons_to_prim(U, eos):
    rho = np.maximum(U[URHO], eos.small_density)
    u = U[UMX] / rho
    v = U[UMY] / rho
    e_int = U[UEDEN] / rho - 0.5 * (u * u + v * v)
    p = eos.pressure(rho, np.maximum(e_int, 0.0))
    W = np.empty_like(U)
    W[QRHO] = rho
    W[QU] = u
    W[QV] = v
    W[QP] = p
    return W


def ref_minmod(a, b):
    out = np.where(np.abs(a) < np.abs(b), a, b)
    return np.where(a * b > 0.0, out, 0.0)


def _along(ndim, axis, sl):
    idx = [slice(None)] * ndim
    idx[axis] = sl
    return tuple(idx)


# limited_slopes/interface_states without their argument checks
def ref_limited_slopes(W, axis):
    ax = axis + W.ndim if axis < 0 else axis
    mid = _along(W.ndim, ax, slice(1, -1))
    lo = _along(W.ndim, ax, slice(None, -2))
    hi = _along(W.ndim, ax, slice(2, None))
    dW = np.zeros_like(W)
    dW[mid] = ref_minmod(W[mid] - W[lo], W[hi] - W[mid])
    return dW


def ref_interface_states(W, axis):
    dW = ref_limited_slopes(W, axis)
    ax = axis + W.ndim if axis < 0 else axis
    lo = _along(W.ndim, ax, slice(None, -1))
    hi = _along(W.ndim, ax, slice(1, None))
    WL = W[lo] + 0.5 * dW[lo]
    WR = W[hi] - 0.5 * dW[hi]
    return WL, WR


def ref_euler_flux(W, eos, iu=QU, iv=QV):
    rho, u, v, p = W[QRHO], W[iu], W[iv], W[QP]
    E = eos.total_energy_density(rho, u, v, p)
    F = np.empty_like(W)
    F[URHO] = rho * u
    F[iu] = rho * u * u + p
    F[iv] = rho * u * v
    F[UEDEN] = u * (E + p)
    return F


def ref_wave_speed_estimates(WL, WR, eos, iu=QU):
    cL = eos.sound_speed(WL[QRHO], WL[QP])
    cR = eos.sound_speed(WR[QRHO], WR[QP])
    SL = np.minimum(WL[iu] - cL, WR[iu] - cR)
    SR = np.maximum(WL[iu] + cL, WR[iu] + cR)
    return SL, SR


def ref_prim_to_cons_local(W, eos, iu=QU, iv=QV):
    rho, u, v, p = W[QRHO], W[iu], W[iv], W[QP]
    U = np.empty_like(W)
    U[URHO] = rho
    U[iu] = rho * u
    U[iv] = rho * v
    U[UEDEN] = eos.total_energy_density(rho, u, v, p)
    return U


def ref_hllc_flux(WL, WR, eos, iu=QU, iv=QV):
    rhoL, uL, pL = WL[QRHO], WL[iu], WL[QP]
    rhoR, uR, pR = WR[QRHO], WR[iu], WR[QP]
    FL = ref_euler_flux(WL, eos, iu, iv)
    FR = ref_euler_flux(WR, eos, iu, iv)
    UL = ref_prim_to_cons_local(WL, eos, iu, iv)
    UR = ref_prim_to_cons_local(WR, eos, iu, iv)
    SL, SR = ref_wave_speed_estimates(WL, WR, eos, iu)
    # Contact speed S* (Toro eq. 10.37).
    num = pR - pL + rhoL * uL * (SL - uL) - rhoR * uR * (SR - uR)
    den = rhoL * (SL - uL) - rhoR * (SR - uR)
    den = np.where(np.abs(den) < 1e-300, 1e-300, den)
    Sstar = num / den

    def star_state(W, U, S, eos_=eos):
        rho, u, v, p = W[QRHO], W[iu], W[iv], W[QP]
        coef = rho * (S - u) / np.where(np.abs(S - Sstar) < 1e-300, 1e-300, S - Sstar)
        Ustar = np.empty_like(U)
        Ustar[URHO] = coef
        Ustar[iu] = coef * Sstar
        Ustar[iv] = coef * v
        E = U[UEDEN]
        Ustar[UEDEN] = coef * (
            E / rho + (Sstar - u) * (Sstar + p / (rho * (S - u) + 1e-300))
        )
        return Ustar

    ULs = star_state(WL, UL, SL)
    URs = star_state(WR, UR, SR)
    FLs = FL + SL * (ULs - UL)
    FRs = FR + SR * (URs - UR)
    F = np.where(
        SL >= 0.0,
        FL,
        np.where(
            Sstar >= 0.0,
            FLs,
            np.where(SR >= 0.0, FRs, FR),
        ),
    )
    return F


# ----------------------------------------------------------------------
# The rotated y-flux kernel, verbatim (rotation copies and all): the
# workspace advance_patch's direct (iu, iv) = (QV, QU) y-flux is pinned to.
# ----------------------------------------------------------------------
def _swap_uv(W):
    Wr = W.copy()
    Wr[QU] = W[QV]
    Wr[QV] = W[QU]
    return Wr


def _swap_uv_flux(F):
    Fr = F.copy()
    Fr[UMX] = F[UMY]
    Fr[UMY] = F[UMX]
    return Fr


def reference_advance_patch(U, dt, dx, dy, eos, nghost=2):
    solver = ref_hllc_flux
    g = nghost
    W = ref_cons_to_prim(U, eos)
    Wx = W[:, g - 2 : U.shape[1] - (g - 2), g : U.shape[2] - g]
    WLx, WRx = ref_interface_states(Wx, axis=1)
    Fx = solver(WLx, WRx, eos)
    nx = U.shape[1] - 2 * g
    ny = U.shape[2] - 2 * g
    Fx_valid = Fx[:, 1 : nx + 2, :]
    Wy = W[:, g : U.shape[1] - g, g - 2 : U.shape[2] - (g - 2)]
    WLy, WRy = ref_interface_states(Wy, axis=2)
    Gy = solver(_swap_uv(WLy), _swap_uv(WRy), eos)
    Gy = _swap_uv_flux(Gy)
    Gy_valid = Gy[:, :, 1 : ny + 2]
    Uv = U[:, g : g + nx, g : g + ny]
    return Uv - dt / dx * (Fx_valid[:, 1:, :] - Fx_valid[:, :-1, :]) \
              - dt / dy * (Gy_valid[:, :, 1:] - Gy_valid[:, :, :-1])


def sedov_patch(n=24, seed=0, ny=None):
    """A ghosted Sedov patch, off-center and perturbed so that no
    component is constant and the flow has no x/y symmetry."""
    ny = n if ny is None else ny
    geom = Geometry(Box.cell_centered(n, ny))
    X, Y = geom.cell_centers(geom.domain)
    problem = SedovProblem(r_init=0.1, center=(0.45, 0.55))
    U = np.zeros((NCOMP, n + 2 * G, ny + 2 * G))
    U[:, G:-G, G:-G] = problem.initialize(X, Y, EOS, geom.cell_volume())
    rng = np.random.default_rng(seed)
    U[:, G:-G, G:-G] *= 1.0 + 0.01 * rng.random((NCOMP, n, ny))
    return geom, U


class TestAdvancePatch:
    def test_uniform_state_unchanged(self):
        U = uniform_patch(8, 8)
        Unew = advance_patch(U, 1e-3, 0.1, 0.1, EOS)
        assert np.allclose(Unew, U[:, G:-G, G:-G], rtol=1e-13)

    def test_uniform_advection_unchanged(self):
        U = uniform_patch(8, 8, u=2.0, v=-1.0)
        Unew = advance_patch(U, 1e-3, 0.1, 0.1, EOS)
        assert np.allclose(Unew, U[:, G:-G, G:-G], rtol=1e-12)

    def test_needs_two_ghosts(self):
        U = uniform_patch(8, 8, g=1)
        with pytest.raises(ValueError, match="ghosts"):
            advance_patch(U, 1e-3, 0.1, 0.1, EOS, nghost=1)

    def test_rejects_non_patch_ndim(self):
        U = uniform_patch(8, 8)
        with pytest.raises(ValueError, match="patch"):
            advance_patch(U[:, None], 1e-3, 0.1, 0.1, EOS)

    def test_primitives_must_match_patch(self):
        U = uniform_patch(8, 8)
        with pytest.raises(ValueError, match="W has shape"):
            advance_patch(U, 1e-3, 0.1, 0.1, EOS, W=cons_to_prim(U[:, 1:], EOS))

    def test_conservation_with_periodic_ghosts(self):
        """With ghost cells consistent (wrap-around), interior sums of
        conserved quantities change only by boundary fluxes; for a
        symmetric blob centered in the patch with outflow-free interior,
        mass change should be tiny over one small step."""
        rng = np.random.default_rng(1)
        nx = ny = 16
        U = uniform_patch(nx, ny)
        # small central density/pressure bump
        W = np.empty((NCOMP, nx + 2 * G, ny + 2 * G))
        W[0] = 1.0
        W[1] = 0.0
        W[2] = 0.0
        W[3] = 1.0
        xi = np.arange(nx + 2 * G) - (nx + 2 * G - 1) / 2
        X, Y = np.meshgrid(xi, xi, indexing="ij")
        bump = np.exp(-(X**2 + Y**2) / 4.0)
        W[0] += 0.3 * bump
        W[3] += 0.3 * bump
        U = prim_to_cons(W, EOS)
        dt = 1e-3
        Unew = advance_patch(U, dt, 0.1, 0.1, EOS)
        mass0 = U[URHO, G:-G, G:-G].sum()
        mass1 = Unew[URHO].sum()
        # the bump decays to ~0 at the frame edge, so flux through the
        # valid-region boundary is negligible
        assert abs(mass1 - mass0) / mass0 < 1e-8

    def test_pressure_pulse_spreads_symmetrically(self):
        nx = ny = 17  # odd => exact center cell
        W = np.empty((NCOMP, nx + 2 * G, ny + 2 * G))
        W[0], W[1], W[2], W[3] = 1.0, 0.0, 0.0, 1e-3
        c = (nx + 2 * G) // 2
        W[3, c, c] = 10.0
        U = prim_to_cons(W, EOS)
        Unew = advance_patch(U, 1e-4, 0.05, 0.05, EOS)
        # x/y symmetry of the update
        assert np.allclose(Unew[URHO], Unew[URHO][::-1, :], rtol=1e-10)
        assert np.allclose(Unew[URHO], Unew[URHO][:, ::-1], rtol=1e-10)
        assert np.allclose(Unew[URHO], Unew[URHO].T, rtol=1e-10)


# The ids of the tests that pin the whole kernel, or its slopes, name
# what they pin: minmod slopes and HLLC fluxes.
KERNEL = pytest.mark.parametrize("limiter,riemann", [("minmod", "hllc")])
MINMOD = pytest.mark.parametrize("limiter", ["minmod"])


class TestRotatedYFlux:
    @KERNEL
    def test_advance_patch_bit_identical(self, limiter, riemann):
        geom, U = sedov_patch()
        U_ref = U.copy()
        dx, dy = geom.cell_size
        for _ in range(3):
            apply_boundary(U, G)
            apply_boundary(U_ref, G)
            dt = cfl_timestep(cons_to_prim(U[:, G:-G, G:-G], EOS), dx, dy, 0.5, EOS)
            U[:, G:-G, G:-G] = advance_patch(U, dt, dx, dy, EOS)
            U_ref[:, G:-G, G:-G] = reference_advance_patch(U_ref, dt, dx, dy, EOS)
            assert bits(U) == bits(U_ref), f"{riemann}/{limiter}"
        # the blast has set the gas moving, and not symmetrically in x/y,
        # so the y-pass really read distinct normal/transverse velocities
        assert np.abs(U[UMY]).max() > 0.0
        assert not np.array_equal(U[UMX], U[UMY].T)


def run_against_oracle(shape, ws, steps=3):
    """``steps`` CastroSim-style steps of the workspace kernel on one
    persistent ``ws`` next to the oracle; every step bit-identical."""
    geom, U = sedov_patch(shape[0], ny=shape[1])
    U_ref = U.copy()
    dx, dy = geom.cell_size
    for step in range(steps):
        apply_boundary(U, G)
        apply_boundary(U_ref, G)
        dt = cfl_timestep(ref_cons_to_prim(U_ref, REF_EOS)[:, G:-G, G:-G], dx, dy, 0.5, EOS)
        # alternate the caller-computed primitives (CastroSim's path)
        # with advance_patch converting them itself
        W = cons_to_prim(U, EOS, ws=ws) if step % 2 == 0 else None
        U[:, G:-G, G:-G] = advance_patch(U, dt, dx, dy, EOS, W=W, ws=ws)
        U_ref[:, G:-G, G:-G] = reference_advance_patch(U_ref, dt, dx, dy, REF_EOS)
        assert bits(U) == bits(U_ref), f"{shape} step {step}"
    return U


class TestWorkspaceKernel:
    @pytest.mark.parametrize("shape", [(24, 24), (24, 40)])
    @KERNEL
    def test_persistent_workspace_matches_oracle(self, shape, limiter, riemann):
        # the non-square patch has x faces (27, 40) and y faces (24, 43):
        # the two sweeps reuse each named buffer at different shapes
        U = run_against_oracle(shape, Workspace())
        assert np.isfinite(U).all()

    def test_poisoned_workspace_matches_oracle(self, monkeypatch):
        """With every buffer NaN-filled as it is handed out, a stage that
        read scratch before writing it would break bit-identity."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        ws = Workspace()
        assert np.isnan(ws.take("probe", (3, 2))).all()
        assert ws.take("probe_mask", (5,), np.bool_).all()
        run_against_oracle((24, 40), ws)

    @pytest.mark.parametrize("with_ws", [False, True])
    def test_advance_patch_leaves_U_unchanged(self, with_ws):
        _, U = sedov_patch(12, ny=20)
        apply_boundary(U, G)
        before = bits(U)
        ws = Workspace() if with_ws else None
        advance_patch(U, 1e-4, 0.05, 0.05, EOS, ws=ws)
        assert bits(U) == before

    def test_result_lives_in_the_workspace(self):
        _, U = sedov_patch(8, ny=12)
        apply_boundary(U, G)
        ws = Workspace()
        first = advance_patch(U, 1e-4, 0.05, 0.05, EOS, ws=ws)
        kept = first.copy()
        again = advance_patch(U, 1e-4, 0.05, 0.05, EOS, ws=ws)
        assert np.shares_memory(first, again)
        assert bits(again) == bits(kept)
        # a step allocates nothing once the workspace has seen the shape
        held = {name: buf.__array_interface__["data"][0]
                for name, buf in ws._buffers.items()}
        advance_patch(U, 1e-4, 0.05, 0.05, EOS, ws=ws)
        assert {name: buf.__array_interface__["data"][0]
                for name, buf in ws._buffers.items()} == held


# ----------------------------------------------------------------------
# Stage by stage: each rewritten function, with and without a workspace,
# against its verbatim copy above.
# ----------------------------------------------------------------------
NAN, INF = float("nan"), float("inf")


def _vacuum_sound_speed():
    # (rho, p) = (0, 1): the density floor sets c; u = +-c exactly makes
    # SL (or SR) and S* both 0 in the lanes below
    return float(REF_EOS.sound_speed(np.asarray(0.0), np.asarray(1.0)))


def riemann_lanes():
    """Left/right primitive states (4, n), one face per lane, reaching
    every HLLC branch and guard, the EOS floors, and NaN/inf inputs."""
    c = _vacuum_sound_speed()
    pairs = [
        ((1.0, 10.0, 0.5, 1.0), (0.5, 10.0, -0.5, 0.5)),      # SL >= 0
        ((1.0, 0.5, 0.3, 1.0), (0.5, 0.4, -0.2, 0.8)),        # SL < 0 <= S*
        ((1.0, -0.5, 0.3, 1.0), (0.5, -0.4, -0.2, 0.8)),      # S* < 0 <= SR
        ((1.0, -10.0, 0.2, 1.0), (0.5, -10.0, 0.1, 0.5)),     # SR < 0
        ((1.0, 0.0, 0.0, 1.0), (0.125, 0.0, 0.0, 0.1)),       # Sod
        ((1.0, 0.0, 0.0, 1e5), (1.0, 0.0, 0.0, 1e-5)),        # blast
        ((1.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 1.0)),         # S* = -0.0
        ((0.0, 1.0, 0.0, 1.0), (0.0, -1.0, 0.0, 1.0)),        # den == 0
        ((1e-312, 1.0, 2.0, 1.0), (1e-312, -1.0, 0.0, 2.0)),  # 0 < |den| < 1e-300
        ((1.5e-307, 1.0, 2.0, 1.0), (1.5e-307, -1.0, 0.0, 2.0)),  # |den| ~ 5e-301
        ((6e-307, 1.0, 2.0, 1.0), (6e-307, -1.0, 0.0, 2.0)),  # |den| ~ 2e-300
        # SL - uL == 0 and S* >= 0: FLs reads p / (rho (S-u) + 1e-300)
        ((1.0, -1e20, 0.0, 1e-290), (1.0, 0.0, 0.0, 1e-291)),
        ((0.0, c, 0.0, 1.0), (0.0, 2 * c, 0.0, 1.0)),         # SL == S* == 0
        ((0.0, -2 * c, 0.0, 1.0), (0.0, -c, 0.0, 1.0)),       # SR == S* == 0
        ((0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)),         # both floors
        ((-1.0, 0.3, 0.1, -2.0), (2.0, 0.1, 0.0, 1.0)),       # negative rho, p
        ((NAN, 1.0, 0.0, 1.0), (1.0, 0.0, 0.0, 1.0)),
        ((1.0, NAN, 0.0, 1.0), (1.0, 0.0, 0.0, 1.0)),
        ((1.0, 0.0, NAN, 1.0), (1.0, 0.0, 0.0, 1.0)),
        ((1.0, 0.0, 0.0, NAN), (1.0, 0.0, 0.0, 1.0)),
        ((1.0, 0.0, 0.0, 1.0), (NAN, 0.0, 0.0, 1.0)),
        ((1.0, 0.0, 0.0, 1.0), (1.0, 0.0, NAN, NAN)),
        ((1.0, INF, 0.0, 1.0), (1.0, 0.0, 0.0, 1.0)),
        ((1.0, 0.0, 0.0, 1.0), (1.0, 0.0, -INF, INF)),
    ]
    WL = np.array([left for left, _ in pairs]).T.copy()
    WR = np.array([right for _, right in pairs]).T.copy()
    return WL, WR


def conserved_lanes():
    """Conserved states (4, n): ordinary, the density and pressure
    floors (zero/negative density, kinetic over total energy), NaN/inf."""
    lanes = [
        (1.0, 0.3, -0.2, 2.5),
        (0.125, 0.0, 0.0, 0.25),
        (0.0, 0.0, 0.0, 0.0),
        (-1.0, 0.5, 0.5, 1.0),
        (1.0, 10.0, 0.0, 1.0),
        (1e-13, 1e-13, 0.0, 1e-30),
        (NAN, 1.0, 0.0, 1.0),
        (1.0, NAN, 0.0, 1.0),
        (1.0, 0.0, NAN, 1.0),
        (1.0, 0.0, 0.0, NAN),
        (1.0, INF, 0.0, 1.0),
        (INF, 1.0, 1.0, INF),
    ]
    return np.array(lanes).T.copy()


def limiter_pairs():
    """All pairs of slope candidates from values that hit each minmod
    branch: signs, signed zeros, under/overflowing products, NaN, inf."""
    vals = np.array([0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 0.5, 1e-200, -1e-200,
                     1e200, NAN, INF, -INF])
    a, b = np.meshgrid(vals, vals, indexing="ij")
    return a.copy(), b.copy()


def slope_field(shape=(4, 9, 11), seed=3):
    """Primitives with equal neighbours, tiny and huge jumps, NaN, inf."""
    rng = np.random.default_rng(seed)
    W = np.round(rng.normal(size=shape), 1)
    W[0, 3, :] = W[0, 4, :]
    W[1, :, 5] = 1e-200 * np.arange(shape[1])
    W[2, 2, 2] = NAN
    W[3, 6, 7] = INF
    W[1, 7, 1] = -0.0
    return W


def dirty_workspace():
    """A workspace whose buffers hold a bigger patch's values, so a stage
    that read scratch before writing it would pick up stale data."""
    ws = Workspace()
    _, U = sedov_patch(24, ny=40)
    apply_boundary(U, G)
    advance_patch(U, 1e-4, 0.05, 0.05, EOS, ws=ws)
    return ws


@pytest.fixture(params=["no_ws", "ws"])
def workspace(request):
    return None if request.param == "no_ws" else dirty_workspace()


DIRECTIONS = pytest.mark.parametrize("iu,iv", [(QU, QV), (QV, QU)], ids=["x", "y"])


class TestStagesMatchOracle:
    def test_lanes_reach_every_branch_and_guard(self):
        WL, WR = riemann_lanes()
        rhoL, uL, pL = WL[QRHO], WL[QU], WL[QP]
        rhoR, uR, pR = WR[QRHO], WR[QU], WR[QP]
        with np.errstate(all="ignore"):
            SL, SR = ref_wave_speed_estimates(WL, WR, REF_EOS)
            num = pR - pL + rhoL * uL * (SL - uL) - rhoR * uR * (SR - uR)
            den = rhoL * (SL - uL) - rhoR * (SR - uR)
            Sstar = num / np.where(np.abs(den) < 1e-300, 1e-300, den)
        assert (SL >= 0).any()
        assert ((SL < 0) & (Sstar >= 0)).any()
        assert ((Sstar < 0) & (SR >= 0)).any()
        assert (SR < 0).any()
        assert (den == 0).any()
        assert ((den != 0) & (np.abs(den) < 1e-301)).any()
        assert ((np.abs(den) >= 1e-301) & (np.abs(den) < 1e-300)).any()
        assert ((np.abs(den) >= 1e-300) & (np.abs(den) < 1e-299)).any()
        assert ((SL - uL == 0) & (SL < 0) & (Sstar >= 0)).any()
        assert (np.abs(SL - Sstar) < 1e-300).any()
        assert (np.abs(SR - Sstar) < 1e-300).any()
        assert np.isnan(Sstar).any()

    def test_eos_methods(self):
        U = conserved_lanes()
        rho, u, v, p = U[0], U[1], U[2], U[3]
        ws = dirty_workspace()
        with np.errstate(all="ignore"):
            cases = [
                (EOS.pressure, REF_EOS.pressure, (rho, u)),
                (EOS.sound_speed, REF_EOS.sound_speed, (rho, p)),
                (EOS.total_energy_density, REF_EOS.total_energy_density, (rho, u, v, p)),
            ]
            for new, ref, args in cases:
                want = bits(ref(*args))
                assert bits(new(*args)) == want, new.__name__
                out = np.empty_like(rho)
                kwargs = {} if new == EOS.pressure else {"ws": ws}
                assert new(*args, out=out, **kwargs) is out
                assert bits(out) == want, new.__name__

    @pytest.mark.parametrize("p", [0.0, 1e-13, 1.0, 2.5e5])
    def test_eos_on_0d_inputs(self, p):
        # workload/timebase.py passes np.asarray scalars
        rho = np.asarray(1.0)
        for new, ref in [(EOS.sound_speed(rho, np.asarray(p)),
                          REF_EOS.sound_speed(rho, np.asarray(p))),
                         (EOS.pressure(rho, np.asarray(p)),
                          REF_EOS.pressure(rho, np.asarray(p))),
                         (EOS.total_energy_density(rho, rho, rho, np.asarray(p)),
                          REF_EOS.total_energy_density(rho, rho, rho, np.asarray(p)))]:
            assert type(new) is type(ref)
            assert bits(new) == bits(ref)

    def test_cons_to_prim(self, workspace):
        U = conserved_lanes()
        with np.errstate(all="ignore"):
            want = bits(ref_cons_to_prim(U, REF_EOS))
            assert bits(cons_to_prim(U, EOS, ws=workspace)) == want
            U3 = U.reshape(4, 3, 4)
            assert bits(cons_to_prim(U3, EOS, ws=workspace)) == bits(
                ref_cons_to_prim(U3, REF_EOS))

    @pytest.mark.parametrize("new,ref", [(minmod, ref_minmod)], ids=["minmod"])
    def test_limiters(self, new, ref, workspace):
        a, b = limiter_pairs()
        with np.errstate(all="ignore"):
            want = bits(ref(a, b))
            assert bits(new(a, b, ws=workspace)) == want
            out = np.full_like(a, 7.0)
            assert new(a, b, ws=workspace, out=out) is out
            assert bits(out) == want

    @pytest.mark.parametrize("axis", [1, 2, -1, -2])
    @MINMOD
    def test_slopes_and_interface_states(self, axis, limiter, workspace):
        W = slope_field()
        with np.errstate(all="ignore"):
            assert bits(limited_slopes(W, axis, ws=workspace)) == bits(
                ref_limited_slopes(W, axis))
            WL, WR = interface_states(W, axis, ws=workspace)
            rWL, rWR = ref_interface_states(W, axis)
        assert bits(WL) == bits(rWL)
        assert bits(WR) == bits(rWR)

    @DIRECTIONS
    def test_euler_flux(self, iu, iv, workspace):
        WL, _ = riemann_lanes()
        with np.errstate(all="ignore"):
            want = bits(ref_euler_flux(WL, REF_EOS, iu, iv))
            assert bits(euler_flux(WL, EOS, iu, iv, ws=workspace)) == want
            out = np.empty_like(WL)
            assert euler_flux(WL, EOS, iu, iv, ws=workspace, out=out) is out
        assert bits(out) == want

    @DIRECTIONS
    def test_wave_speed_estimates(self, iu, iv, workspace):
        WL, WR = riemann_lanes()
        with np.errstate(all="ignore"):
            SL, SR = wave_speed_estimates(WL, WR, EOS, iu, ws=workspace)
            rSL, rSR = ref_wave_speed_estimates(WL, WR, REF_EOS, iu)
        assert bits(SL) == bits(rSL)
        assert bits(SR) == bits(rSR)

    @DIRECTIONS
    @pytest.mark.parametrize("name", ["hllc"])
    def test_riemann_solvers(self, name, iu, iv, workspace):
        # the kernel's solver through its table
        new, ref = RIEMANN_SOLVERS[name], ref_hllc_flux
        WL, WR = riemann_lanes()
        with np.errstate(all="ignore"):
            got = new(WL, WR, EOS, iu, iv, ws=workspace)
            want = ref(WL, WR, REF_EOS, iu, iv)
        assert bits(got) == bits(want)
        # the same faces laid out 2-D, as the kernel passes them
        WL2, WR2 = WL[:, :20].reshape(4, 4, 5), WR[:, :20].reshape(4, 4, 5)
        with np.errstate(all="ignore"):
            assert bits(new(WL2, WR2, EOS, iu, iv, ws=workspace)) == bits(
                ref(WL2, WR2, REF_EOS, iu, iv))


class TestWorkspace:
    def test_views_share_one_buffer_per_name(self):
        ws = Workspace()
        a = ws.take("x", (4, 27, 40))
        b = ws.take("x", (4, 24, 43))
        assert a.shape == (4, 27, 40) and b.shape == (4, 24, 43)
        assert np.shares_memory(a, b)
        assert ws.nbytes == a.nbytes

    def test_grows_to_the_largest_request(self):
        ws = Workspace()
        small = ws.take("x", (3,))
        big = ws.take("x", (2, 5))
        assert not np.shares_memory(small, big)
        assert ws.nbytes == big.nbytes
        assert np.shares_memory(ws.take("x", (4,)), big)

    def test_dtype_change_reallocates(self):
        ws = Workspace()
        f = ws.take("m", (8,))
        m = ws.take("m", (8,), np.bool_)
        assert m.dtype == np.bool_ and not np.shares_memory(f, m)

    def test_distinct_names_do_not_alias(self):
        ws = Workspace()
        assert not np.shares_memory(ws.take("a", (5,)), ws.take("b", (5,)))


class TestBoundary:
    def test_outflow_copies_edge(self):
        U = uniform_patch(4, 4)
        U[URHO, G, :] = 9.0  # first valid row
        apply_boundary(U, G, (BC.OUTFLOW, BC.OUTFLOW), (BC.OUTFLOW, BC.OUTFLOW))
        assert (U[URHO, :G, G:-G] == 9.0).all()

    def test_symmetry_negates_normal_momentum(self):
        U = uniform_patch(4, 4, u=3.0)
        apply_boundary(U, G, (BC.SYMMETRY, BC.OUTFLOW), (BC.OUTFLOW, BC.OUTFLOW))
        # lo-x ghosts mirror with UMX negated
        assert np.allclose(U[UMX, G - 1, G:-G], -U[UMX, G, G:-G])
        assert np.allclose(U[URHO, G - 1, G:-G], U[URHO, G, G:-G])

    def test_y_outflow(self):
        U = uniform_patch(4, 4)
        U[URHO, :, -G - 1] = 4.0
        apply_boundary(U, G, (BC.OUTFLOW, BC.OUTFLOW), (BC.OUTFLOW, BC.OUTFLOW))
        assert (U[URHO, :, -G:] == 4.0).all()

    def test_interior_is_noop(self):
        U = uniform_patch(4, 4)
        ghost_before = U[:, :G, :].copy()
        apply_boundary(U, G, (BC.INTERIOR, BC.INTERIOR), (BC.INTERIOR, BC.INTERIOR))
        assert np.allclose(U[:, :G, :], ghost_before)

    def test_inflow_unsupported(self):
        U = uniform_patch(4, 4)
        with pytest.raises(NotImplementedError):
            apply_boundary(U, G, (BC.INFLOW, BC.OUTFLOW), (BC.OUTFLOW, BC.OUTFLOW))

    def test_zero_ghost_noop(self):
        U = uniform_patch(4, 4, g=0)
        apply_boundary(U, 0)  # must not raise
