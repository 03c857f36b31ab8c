"""Grid-based states: classical transport and split-basis evolution.

Two representations share one FFT-periodic grid, and numpy does all the
work. In "qp", psi(q, p) is carried along classical characteristics (|psi|^2
obeys the classical continuity equation) by sampling its periodic cubic
spline. In "qqbar", psi(Q, Qbar) evolves under the generator

    i d/dt psi = (1/hbar) [ hQ - hQbar ] psi,
    hX = -(hbar^2/2) d^2/dX^2 + V(X),

a difference of two one-variable Schrodinger operators, integrated by
Strang-split spectral steps. The two operators commute, so the Strang
product factorises: one 1-d propagator per axis, applied to the whole
state by two matrix products. The one-step matrix of an axis is symmetric
as well as unitary, so one real eigendecomposition gives its eigenphases,
and the propagator over all steps costs the same for any step count.
Product states stay products under that evolution; the similarity
unitary of the harmonic case mixes the two factors hyperbolically. It is
an area-preserving coordinate remap, applied as three shears, each an
exact Fourier shift of every row of the state.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import MonomialPotential
from .dynamics import flow_map_batch
from .errors import NonNormalizable, SupportExit, UndefinedError

REP_QP = "qp"
REP_QQBAR = "qqbar"
GRID_EXPONENTS = (1, 2, 4)


class AliasingWarning(UserWarning):
    """Spectral tail carries non-negligible weight; grid too coarse."""


class DomainExitWarning(UserWarning):
    """Characteristics left the grid; amplitude zero-filled there."""


def _power_of_two(n: int) -> bool:
    return isinstance(n, int) and n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridAxis:
    """Uniform axis of `count` points centred on `center`.

    extent is the half-width; points run over [center - extent,
    center + extent) with the right endpoint excluded so the axis is
    FFT-periodic. count must be a power of two."""

    center: float
    extent: float
    count: int

    def __post_init__(self):
        if not _power_of_two(self.count):
            raise ValueError(f"count={self.count} is not a power of two >= 2")
        if not (math.isfinite(self.extent) and self.extent > 0):
            raise ValueError("extent must be finite and positive")

    @property
    def dx(self) -> float:
        return 2.0 * self.extent / self.count

    def points(self) -> np.ndarray:
        return self.center - self.extent + self.dx * np.arange(self.count)

    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.count, d=self.dx)


@dataclass
class GridState2D:
    """Complex amplitudes on the tensor grid axis1 x axis2."""

    axis1: GridAxis
    axis2: GridAxis
    amps: np.ndarray
    rep: str
    hbar: float

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=complex)
        if self.amps.shape != (self.axis1.count, self.axis2.count):
            raise ValueError(
                f"amps shape {self.amps.shape} does not match axes "
                f"({self.axis1.count}, {self.axis2.count})"
            )
        if self.rep not in (REP_QP, REP_QQBAR):
            raise ValueError(f"unknown representation {self.rep!r}")
        if not (math.isfinite(self.hbar) and self.hbar > 0.0):
            raise UndefinedError("hbar must be finite and positive")
        if not np.all(np.isfinite(self.amps.view(float))):
            raise NonNormalizable("amplitudes contain non-finite entries")

    @property
    def cell(self) -> float:
        return self.axis1.dx * self.axis2.dx

    def norm(self) -> float:
        return math.sqrt(float(np.sum(np.abs(self.amps) ** 2)) * self.cell)

    def normalized(self) -> "GridState2D":
        n = self.norm()
        if not (math.isfinite(n) and n > 0):
            raise NonNormalizable(f"norm {n!r} is not positive and finite")
        return GridState2D(self.axis1, self.axis2, self.amps / n, self.rep, self.hbar)


def gaussian_profile(center: float = 0.0, width: float = 1.0):
    """Amplitude Gaussian whose |.|^2 density has standard deviation width."""

    def f(x):
        return np.exp(-((x - center) ** 2) / (4.0 * width**2))

    return f


def make_separable(f1, f2, axis1, axis2, rep=REP_QQBAR, hbar=1.0) -> GridState2D:
    """Normalized product state f1(x1) * f2(x2) on the tensor grid."""
    a1 = np.asarray(f1(axis1.points()), dtype=complex)
    a2 = np.asarray(f2(axis2.points()), dtype=complex)
    return GridState2D(axis1, axis2, np.outer(a1, a2), rep, hbar).normalized()


def _require_grid_potential(pot: MonomialPotential):
    if pot.n not in GRID_EXPONENTS:
        raise ValueError(
            f"grid evolution supports n in {GRID_EXPONENTS}, got n={pot.n}"
        )


def _interpolate(state: GridState2D, pts1, pts2):
    """Sample the periodic cubic spline through the amplitudes at off-grid
    points.

    Its B-spline coefficients are the amplitudes with each Fourier mode
    divided by the spline's symbol (2 + cos k dx)/3 (Unser, IEEE Signal
    Process. Mag. 16(6) (1999) 22), and a sample reads the 4 x 4 of them
    around it. Points outside [x[0], x[-1]] on either axis are zero-filled
    with a warning; the returned array has the shape of pts1."""
    axes = (state.axis1, state.axis2)
    symbols = [(2.0 + np.cos(axis.wavenumbers() * axis.dx)) / 3.0 for axis in axes]
    coef = np.fft.ifft2(np.fft.fft2(state.amps) / np.multiply.outer(*symbols))
    flat = [np.asarray(pts, dtype=float).ravel() for pts in (pts1, pts2)]
    inside = np.logical_and.reduce(
        [(x >= axis.points()[0]) & (x <= axis.points()[-1]) for axis, x in zip(axes, flat)])
    stencils = []
    for axis, x in zip(axes, flat):
        u = (x[inside] - axis.points()[0]) / axis.dx
        cell = np.floor(u)
        f = (u - cell)[:, None]
        # weights of the nodes at distances 1 + f, f, 1 - f and 2 - f
        w = np.hstack([(1 - f)**3, 4 - 6 * f**2 + 3 * f**3, 1 + 3 * (f + f**2 - f**3), f**3])
        stencils.append(((cell.astype(int)[:, None] + np.arange(-1, 3)) % axis.count, w / 6))
    (i1, w1), (i2, w2) = stencils
    vals = np.zeros(flat[0].size, dtype=complex)
    vals[inside] = np.einsum("pab,pa,pb->p", coef[i1[:, :, None], i2[:, None, :]], w1, w2)
    if n_out := int(np.count_nonzero(~inside)):
        warnings.warn(f"classical transport: {n_out} sample points left the grid; zero-filled",
                      DomainExitWarning)
    return vals.reshape(np.shape(pts1))


def evolve_liouville(state: GridState2D, pot: MonomialPotential, t: float) -> GridState2D:
    """Transport a (q, p) amplitude along classical characteristics.

    Semi-Lagrangian step: each node is pulled back through the classical
    flow by t and the periodic cubic spline through the initial amplitudes
    is sampled there. The flow is area preserving, so the L2 norm is
    conserved up to interpolation error."""
    if state.rep != REP_QP:
        raise ValueError("evolve_liouville needs the qp representation")
    _require_grid_potential(pot)
    if t == 0:
        return GridState2D(state.axis1, state.axis2, state.amps.copy(), state.rep, state.hbar)
    qn, pn = np.meshgrid(state.axis1.points(), state.axis2.points(), indexing="ij")
    q0, p0 = flow_map_batch(qn, pn, pot, -t)
    vals = _interpolate(state, q0.reshape(qn.shape), p0.reshape(pn.shape))
    return GridState2D(state.axis1, state.axis2, vals, state.rep, state.hbar)


def _strang_propagator(axis: GridAxis, pot: MonomialPotential, hbar: float,
                       dt: float, steps: int) -> np.ndarray:
    """The 1-d Strang propagator of one axis over `steps` steps of dt.

    The one-step matrix U = H K H (H the half potential phases, K the
    circulant kinetic factor, symmetric because kin is even in k) is
    symmetric and unitary, so U = O diag(e^{i theta}) O^T with O real
    orthogonal (the Takagi form; Horn & Johnson, Matrix Analysis, 4.4).
    O diagonalises Re U + c Im U, whose eigenvalues cos(theta) + c sin(theta)
    can nearly merge two eigenphases, so every cluster with gaps below 1e-4
    is re-diagonalised in its own subspace by Im U - c Re U."""
    half = np.exp(-0.5j * dt * pot.value(axis.points()) / hbar)
    kin = np.exp(-0.5j * dt * hbar * axis.wavenumbers() ** 2)
    # row j is the image of e_j; U is symmetric, so that is U itself
    u = np.fft.ifft(np.fft.fft(np.diag(half)) * kin) * half
    c = math.pi / 7.0
    w, o = np.linalg.eigh(u.real + c * u.imag)
    other = u.imag - c * u.real
    for cluster in np.split(np.arange(w.size), np.flatnonzero(np.diff(w) >= 1e-4) + 1):
        if cluster.size > 1:
            basis = o[:, cluster]
            _, rot = np.linalg.eigh(basis.T @ other @ basis)
            o[:, cluster] = basis @ rot
    theta = np.angle(np.einsum("ij,ij->j", o, u @ o))
    return (o * np.exp(1j * steps * theta)) @ o.T


def evolve_G(
    state: GridState2D, pot: MonomialPotential, t: float, steps: int
) -> GridState2D:
    """Strang-split spectral evolution in the (Q, Qbar) representation.

    Each step applies half a potential phase exp(-i dt (V(Q)-V(Qbar))/2hbar),
    a full kinetic phase exp(-i dt hbar (kQ^2 - kQbar^2)/2) in Fourier
    space, and the second potential half. Every factor is a tensor product
    of a Q factor and a Qbar factor, so the whole product is S1 (x) S2*,
    with S_a the 1-d Strang propagator of axis a over all steps; the Qbar
    factor is its complex conjugate because hQbar enters with the opposite
    sign, and equal axes share one propagator. S_a comes from one
    eigendecomposition of the axis's one-step matrix, so its cost does not
    depend on `steps`. The result S1^T @ psi @ S2* is exact for every
    state, product or entangled, and the caller's amplitudes are never
    touched. Every factor is unitary, so the norm is exact up to roundoff."""
    if state.rep != REP_QQBAR:
        raise ValueError("evolve_G needs the qqbar representation")
    _require_grid_potential(pot)
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValueError(f"steps must be an integer >= 1, got {steps!r}")
    dt = t / steps
    props = {
        axis: _strang_propagator(axis, pot, state.hbar, dt, steps)
        for axis in {state.axis1, state.axis2}
    }
    psi = props[state.axis1].T @ state.amps @ props[state.axis2].conj()
    _warn_if_aliased(psi)
    return GridState2D(state.axis1, state.axis2, psi, state.rep, state.hbar)


def _warn_if_aliased(psi):
    """Warn when the highest wavenumbers, FFT indices n/2 +- n/8 of either
    axis, hold more than 1e-6 of the spectral weight."""
    spec = np.abs(np.fft.fft2(psi)) ** 2
    total = float(spec.sum())
    if total == 0:
        return
    n1, n2 = spec.shape
    b1, b2 = n1 // 8, n2 // 8
    lo1, hi1 = n1 // 2 - b1, n1 // 2 + b1
    lo2, hi2 = n2 // 2 - b2, n2 // 2 + b2
    tail = float(spec[lo1:hi1, :].sum() + spec[:, lo2:hi2].sum())
    if tail / total > 1e-6:
        warnings.warn(
            f"spectral tail fraction {tail / total:.3e} above 1.0e-06",
            AliasingWarning,
        )


def apply_lms_unitary_harmonic(state: GridState2D, alpha: float) -> GridState2D:
    """Similarity unitary of the harmonic case as a hyperbolic remap.

    The generator acts as the vector field Qbar d/dQ + Q d/dQbar, whose
    time-alpha flow is (Q, Qbar) -> (Q cosh a + Qbar sinh a,
    Q sinh a + Qbar cosh a). That matrix factors into three shears,
    [[1, t], [0, 1]] [[1, 0], [s, 1]] [[1, t], [0, 1]] with t = tanh(a/2)
    and s = sinh(a), and each shear shifts every row of the state along one
    axis by a multiple of the row's coordinate on the other. A shift is a
    phase exp(i k d) on the row's Fourier transform, exact for a resolved
    state (Unser, Thevenaz & Yaroslavsky, IEEE Trans. Image Process. 4
    (1995) 1371), so the remap is unitary to roundoff. The shears run on
    the grid zero-padded by an eighth of each axis on either side, and the
    result is cut back to the grid. A shift is periodic in the padded box,
    so mass carried across the box would wrap round to the far side: if
    any shear would carry more than 1e-3 of the squared norm across it, or
    more than that is left in the padding at the end, the mapped support
    has left the grid (SupportExit)."""
    if state.rep != REP_QQBAR:
        raise ValueError("the similarity remap needs the qqbar representation")
    axes = (state.axis1, state.axis2)
    pads = [axis.count // 8 for axis in axes]
    psi = np.pad(state.amps, [(p, p) for p in pads])
    mass = float(np.sum(np.abs(psi) ** 2))
    outer = _row_shifts(axes, pads, 0, math.tanh(0.5 * alpha))
    middle = _row_shifts(axes, pads, 1, math.sinh(alpha))
    for i, (axis, (shifts, phase)) in enumerate(((0, outer), (1, middle), (0, outer))):
        carried = _carried(psi, axis, axes[axis].dx, shifts)
        if carried > 1e-3 * mass:
            raise SupportExit(
                f"shear {i + 1} of 3 carries {carried / mass:.3e} of the squared norm "
                "across the padded grid"
            )
        psi = np.fft.fft(psi, axis=axis)
        psi *= phase
        psi = np.fft.ifft(psi, axis=axis)
    inner = psi[pads[0]:pads[0] + state.axis1.count, pads[1]:pads[1] + state.axis2.count]
    left = float(np.sum(np.abs(psi) ** 2) - np.sum(np.abs(inner) ** 2))
    if left > 1e-3 * mass:
        raise SupportExit(f"{left / mass:.3e} of the squared norm ends outside the grid")
    return GridState2D(state.axis1, state.axis2, inner, state.rep, state.hbar)


def _row_shifts(axes, pads, axis: int, factor: float):
    """Shifts of a shear along `axis`, and the phases exp(i k shift) that
    apply them, indexed like the state.

    Row r, a line along `axis`, moves by `factor` times its padded
    coordinate y0 + r dy on the other axis. For r = a B + b the phase is
    exp(i k f (y0 + b dy)) exp(i k f a B dy), a product of entries of two
    tables of B ~ sqrt(rows) rows, which takes about 2/sqrt(rows) of the
    exponentials of a direct table."""
    other, pad = axes[1 - axis], pads[1 - axis]
    rows = other.count + 2 * pad
    start = factor * (other.center - other.extent - pad * other.dx)
    step = factor * other.dx
    k = 2.0 * np.pi * np.fft.fftfreq(axes[axis].count + 2 * pads[axis], d=axes[axis].dx)
    block = math.isqrt(rows - 1) + 1
    fine = np.exp(1j * np.multiply.outer(start + step * np.arange(block), k))
    coarse = np.exp(1j * np.multiply.outer(step * block * np.arange(-(-rows // block)), k))
    phase = (coarse[:, None, :] * fine[None, :, :]).reshape(-1, k.size)[:rows]
    return start + step * np.arange(rows), np.moveaxis(phase, 1, axis)


def _carried(psi: np.ndarray, axis: int, dx: float, shifts: np.ndarray) -> float:
    """Squared norm that shifting psi along `axis` carries across the box.

    A shift is periodic in the padded box: a row moved by `shift` wraps
    the mass that lies within `shift` of the edge it moves towards."""
    rows = np.moveaxis(psi, axis, 1)
    count = rows.shape[1]
    reach = np.minimum(np.ceil(np.abs(shifts) / dx), count).astype(int)
    band = int(reach.max())
    # each row's entries from the edge it moves towards, edge first
    edge = np.where((shifts > 0)[:, None], rows[:, :band], rows[:, count - band:][:, ::-1])
    return float(np.sum(np.abs(edge[np.arange(band) < reach[:, None]]) ** 2))


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Singular values of the amplitude kernel, largest first."""

    values: np.ndarray

    @property
    def ratio(self) -> float:
        """Second-to-first singular value ratio; 0 for a rank-one kernel."""
        if len(self.values) < 2 or self.values[0] == 0:
            return 0.0
        return float(self.values[1] / self.values[0])


def schmidt(state: GridState2D) -> SchmidtSpectrum:
    """Schmidt spectrum of psi(x1, x2) under the flat grid measure.

    The kernel is weighted by sqrt(dx1 dx2) so the squared singular
    values sum to the squared L2 norm."""
    m = state.amps * math.sqrt(state.cell)
    return SchmidtSpectrum(values=np.linalg.svd(m, compute_uv=False))
