"""Local discontinuous Galerkin semidiscretization on a uniform grid.

After reversing time (tau = maturity - t) the pricing equation is marched in
conservative form

    du/dtau + d/dS [ c S u ] = d/dS [ a(S) du/dS ] + H(tau, S, u),

with convection speed ``c = sigma^2 - drift``, diffusion ``a(S) =
sigma^2 S^2 / 2`` and the zeroth-order/source remainder ``H`` supplied by
the driver module.  The domain [0, s_max] is split into ``cells`` uniform
cells; on each cell the solution lives in the Lagrange basis on the
Gauss-Legendre points of degree+1 nodes.  That choice makes the mass matrix
exactly diagonal, (h/2) w_i, and because the diffusion coefficient is a
quadratic polynomial every bilinear-form integrand below has degree at most
2*degree+1, so the basis's own quadrature integrates it exactly; the one
deliberately inexact rule is the nodal collocation of H.

The second-order term is split LDG-style with an auxiliary gradient field q:

    gradient_form   q-residual      <q, v> = -<u, v'> + utilde v | edges
    diffusion_form  u-residual from d/dS(a q), interface values qtilde
    convection_form Lax-Friedrichs fluxes for c S u
    source_form     collocated H weighted by the diagonal mass

``FluxVariant`` fixes the alternating interface pairing.  ``UPWIND_LEFT``
takes utilde from the left cell and qtilde from the right, with u pinned to
zero at S=0 (the natural choice for calls, whose value vanishes there);
``UPWIND_RIGHT`` mirrors everything and pins u to zero at s_max (puts).
Domain-boundary convection fluxes are variant-independent: f vanishes at
S=0 identically and is taken one-sided from the interior at s_max (outflow
for c > 0).

The composed linear diffusion operator u -> diffusion(gradient(u)) is also
assembled as a sparse block-tridiagonal matrix L, so M - coef * L is banded
with kl = ku = 2*degree+1: ``assemble_implicit`` factors it once with LAPACK
``dgbtrf`` and every implicit stage back-substitutes with ``dgbtrs``.  The
linear convection form becomes a matrix by probing (``assemble_form_matrix``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .config import OptionSpec, payoff

_NODE_SNAP = 1e-13


class FluxVariant(enum.Enum):
    """Alternating-flux orientation; see module docstring."""

    UPWIND_LEFT = "upwind_left"
    UPWIND_RIGHT = "upwind_right"


def variant_for_option(option: OptionSpec) -> FluxVariant:
    """Calls pin the solution at S=0, puts at s_max."""
    return FluxVariant.UPWIND_LEFT if option.kind == "call" else FluxVariant.UPWIND_RIGHT


# ---------------------------------------------------------------------------
# mesh and basis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mesh:
    s_max: float
    cells: int

    def __post_init__(self) -> None:
        if not self.s_max > 0.0:
            raise ValueError("s_max must be positive")
        if self.cells < 2:
            raise ValueError("need at least 2 cells")

    @property
    def width(self) -> float:
        return self.s_max / self.cells

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(0.0, self.s_max, self.cells + 1)

    def quad_points(self, basis: "Basis") -> np.ndarray:
        """Physical coordinates of the basis nodes, shape (cells, degree+1)."""
        left = self.edges[:-1]
        return left[:, None] + 0.5 * self.width * (basis.nodes[None, :] + 1.0)


@dataclass(frozen=True, eq=False)
class Basis:
    """Nodal Lagrange basis on Gauss-Legendre points of the reference cell."""

    degree: int
    nodes: np.ndarray        # (degree+1,) in (-1, 1)
    weights: np.ndarray      # Gauss weights, sum 2
    diff: np.ndarray         # diff[m, i] = phi_i'(nodes[m])
    trace_left: np.ndarray   # phi_i(-1)
    trace_right: np.ndarray  # phi_i(+1)
    bary: np.ndarray         # barycentric weights of the nodes

    @property
    def n_nodes(self) -> int:
        return self.degree + 1


def make_basis(degree: int) -> Basis:
    if degree < 1:
        raise ValueError("degree must be at least 1")
    nodes, weights = np.polynomial.legendre.leggauss(degree + 1)
    n = degree + 1
    bary = np.ones(n)
    for i in range(n):
        bary[i] = 1.0 / np.prod(nodes[i] - np.delete(nodes, i))
    diff = np.zeros((n, n))
    for m in range(n):
        for i in range(n):
            if m != i:
                diff[m, i] = (bary[i] / bary[m]) / (nodes[m] - nodes[i])
    for m in range(n):
        diff[m, m] = -np.sum(diff[m, :])
    tl = _lagrange_eval_raw(np.array([-1.0]), nodes, bary)[0]
    tr = _lagrange_eval_raw(np.array([1.0]), nodes, bary)[0]
    return Basis(degree=degree, nodes=nodes, weights=weights, diff=diff,
                 trace_left=tl, trace_right=tr, bary=bary)


def _lagrange_eval_raw(xi: np.ndarray, nodes: np.ndarray, bary: np.ndarray) -> np.ndarray:
    """Rows of Lagrange basis values phi_i(xi), barycentric form, node hits snapped."""
    xi = np.asarray(xi, dtype=float)
    diff = xi[:, None] - nodes[None, :]
    hit = np.abs(diff) < _NODE_SNAP
    any_hit = hit.any(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = bary[None, :] / diff
        vals = terms / terms.sum(axis=1, keepdims=True)
    if np.any(any_hit):
        vals[any_hit] = hit[any_hit].astype(float)
    return vals


# ---------------------------------------------------------------------------
# discrete fields
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class DGField:
    """Cellwise polynomial data: nodal values at the quadrature points."""

    mesh: Mesh
    basis: Basis
    coeffs: np.ndarray  # (cells, degree+1)

    def _locate(self, s) -> tuple[np.ndarray, np.ndarray]:
        """Cell index and basis values at each query spot; outside [0, s_max] raises."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        outside = ~((s >= 0.0) & (s <= self.mesh.s_max))
        if np.any(outside):
            raise ValueError(f"query spot {float(s[outside][0])!r} lies outside the "
                             f"solution domain [0, {self.mesh.s_max:g}]")
        h = self.mesh.width
        j = np.clip(np.floor(s / h).astype(int), 0, self.mesh.cells - 1)
        xi = 2.0 * (s - j * h) / h - 1.0
        return j, _lagrange_eval_raw(xi, self.basis.nodes, self.basis.bary)

    def evaluate(self, s: np.ndarray | float) -> np.ndarray | float:
        """Pointwise values; an interior cell edge evaluates the right cell's trace."""
        j, phi = self._locate(s)
        out = np.einsum("pi,pi->p", phi, self.coeffs[j])
        return out if np.ndim(s) else float(out[0])

    def derivative(self, s: np.ndarray | float) -> np.ndarray | float:
        """In-cell derivative d/dS of the local polynomial (not a DG gradient)."""
        j, phi = self._locate(s)
        dvals = self.coeffs[j] @ self.basis.diff.T  # derivative at the nodes
        out = np.einsum("pi,pi->p", phi, dvals) * (2.0 / self.mesh.width)
        return out if np.ndim(s) else float(out[0])

    def left_traces(self) -> np.ndarray:
        return self.coeffs @ self.basis.trace_left

    def right_traces(self) -> np.ndarray:
        return self.coeffs @ self.basis.trace_right


def mass_diag(mesh: Mesh, basis: Basis) -> np.ndarray:
    """Diagonal of the mass matrix, shape (cells, degree+1)."""
    return np.broadcast_to(0.5 * mesh.width * basis.weights,
                           (mesh.cells, basis.n_nodes)).copy()


def project_payoff(option: OptionSpec, mesh: Mesh, basis: Basis) -> DGField:
    """L2 projection of the terminal payoff.

    On cells where the payoff is polynomial (everywhere except a cell cut by
    the strike) nodal interpolation at the Gauss points *is* the projection,
    exactly.  If the strike falls strictly inside a cell the projection
    integral there is evaluated piecewise, splitting at the kink, so the
    result is the exact L2 projection on every mesh.
    """
    pts = mesh.quad_points(basis)
    coeffs = payoff(option, pts)
    h = mesh.width
    pos = option.strike / h
    jk = int(np.floor(pos))
    frac = pos - jk
    if 1e-12 < frac < 1.0 - 1e-12 and jk < mesh.cells:
        xi_k = 2.0 * frac - 1.0
        gl_x, gl_w = np.polynomial.legendre.leggauss(basis.degree + 2)
        integral = np.zeros(basis.n_nodes)
        for lo, hi in ((-1.0, xi_k), (xi_k, 1.0)):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            xq = mid + half * gl_x
            sq = mesh.edges[jk] + 0.5 * h * (xq + 1.0)
            phi = _lagrange_eval_raw(xq, basis.nodes, basis.bary)
            integral += half * np.einsum("q,q,qi->i", gl_w, payoff(option, sq), phi)
        coeffs[jk] = integral / basis.weights
    return DGField(mesh, basis, coeffs)


# ---------------------------------------------------------------------------
# semidiscrete forms
# ---------------------------------------------------------------------------


def _vol_mat(basis: Basis) -> np.ndarray:
    """volmat[i, m] = w_m * phi_i'(node_m); contraction core of all volume terms."""
    return (basis.diff * basis.weights[:, None]).T


def gradient_form(u: DGField, variant: FluxVariant) -> DGField:
    """Auxiliary gradient q = M^-1 K(u); approximates du/dS."""
    basis, mesh = u.basis, u.mesh
    n = mesh.cells
    vol = u.coeffs @ _vol_mat(basis).T
    utilde = np.zeros(n + 1)
    if variant is FluxVariant.UPWIND_LEFT:
        utilde[1:] = u.right_traces()      # utilde[0] = 0: pinned at S=0
    else:
        utilde[:-1] = u.left_traces()      # utilde[n] = 0: pinned at s_max
    res = (-vol
           + utilde[1:, None] * basis.trace_right[None, :]
           - utilde[:-1, None] * basis.trace_left[None, :])
    q = res * (2.0 / (mesh.width * basis.weights))[None, :]
    return DGField(mesh, basis, q)


def diffusion_form(q: DGField, variant: FluxVariant,
                   diffusion: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Residual of d/dS(a(S) q) against the basis, shape (cells, degree+1)."""
    basis, mesh = q.basis, q.mesh
    n = mesh.cells
    a_quad = diffusion(mesh.quad_points(basis))
    vol = (a_quad * q.coeffs) @ _vol_mat(basis).T
    a_edge = diffusion(mesh.edges)
    qtilde = np.empty(n + 1)
    if variant is FluxVariant.UPWIND_LEFT:
        qtilde[:-1] = q.left_traces()
        qtilde[n] = q.right_traces()[-1]   # one-sided interior trace at s_max
    else:
        qtilde[1:] = q.right_traces()
        qtilde[0] = q.left_traces()[0]     # one-sided interior trace at S=0
    flux = a_edge * qtilde
    return (-vol
            + flux[1:, None] * basis.trace_right[None, :]
            - flux[:-1, None] * basis.trace_left[None, :])


def convection_form(u: DGField, speed: float) -> np.ndarray:
    """Residual of -d/dS(speed * S * u) with Lax-Friedrichs interface fluxes.

    The dissipation coefficient at each interior interface is the exact
    local bound |speed| * (right cell's right edge) of the flux derivative,
    so the flux is monotone (nondecreasing in the left trace, nonincreasing
    in the right).  At S=0 the flux vanishes identically; at s_max it is
    one-sided.
    """
    basis, mesh = u.basis, u.mesh
    n = mesh.cells
    edges = mesh.edges
    fvals = speed * mesh.quad_points(basis) * u.coeffs
    vol = fvals @ _vol_mat(basis).T
    left = u.left_traces()
    right = u.right_traces()
    flux = np.empty(n + 1)
    flux[0] = 0.0
    fl = speed * edges[1:-1] * right[:-1]   # f at interface from the left cell
    fr = speed * edges[1:-1] * left[1:]     # ... and from the right cell
    alpha = np.abs(speed) * edges[2:]
    flux[1:-1] = 0.5 * (fl + fr - alpha * (left[1:] - right[:-1]))
    flux[n] = speed * edges[n] * right[-1]
    return (vol
            - flux[1:, None] * basis.trace_right[None, :]
            + flux[:-1, None] * basis.trace_left[None, :])


def source_form(values: np.ndarray, mesh: Mesh, basis: Basis) -> np.ndarray:
    """Collocated source residual: nodal values weighted by the diagonal mass.

    ``values`` is (cells, degree+1), or (cells, degree+1, B) for B scenarios.
    """
    weights = 0.5 * mesh.width * basis.weights
    return weights.reshape(weights.shape + (1,) * (np.ndim(values) - 2)) * values


# ---------------------------------------------------------------------------
# composed implicit operator
# ---------------------------------------------------------------------------


def _block_tridiagonal(blocks: np.ndarray) -> sp.csr_matrix:
    """Sparse matrix from (3, cells, k, k) sub/diagonal/super blocks; off-mesh ones drop."""
    _, n, k, _ = blocks.shape
    offset, row, a, b = np.ogrid[-1:2, :n, :k, :k]
    rows = np.broadcast_to(row * k + a, blocks.shape)
    cols = np.broadcast_to((row + offset) * k + b, blocks.shape)
    keep = (cols >= 0) & (cols < n * k)
    return sp.csr_matrix((blocks[keep], (rows[keep], cols[keep])),
                         shape=(n * k, n * k))


def assemble_diffusion_matrix(mesh: Mesh, basis: Basis, variant: FluxVariant,
                              diffusion: Callable[[np.ndarray], np.ndarray]) -> sp.csr_matrix:
    """Sparse matrix of u -> diffusion_form(gradient_form(u)), composed as D M^-1 K.

    The (sub, diagonal, super) blocks of the gradient K and of the diffusion D
    are block bidiagonal in opposite directions, so the product is block
    tridiagonal; its terms add in the order of a cellwise composition.
    """
    n, k = mesh.cells, basis.n_nodes
    volmat = _vol_mat(basis)
    tl, tr = basis.trace_left, basis.trace_right
    a_edge = diffusion(mesh.edges)
    grad = np.zeros((3, k, k))
    div = np.zeros((3, n, k, k))
    div[1] = -volmat * diffusion(mesh.quad_points(basis))[:, None, :]
    if variant is FluxVariant.UPWIND_LEFT:
        grad[0] = -np.outer(tl, tr)
        grad[1] = -volmat + np.outer(tr, tr)
        div[1] -= a_edge[:-1, None, None] * np.outer(tl, tl)
        div[1, -1] += a_edge[n] * np.outer(tr, tr)
        div[2, :-1] = a_edge[1:-1, None, None] * np.outer(tr, tl)
    else:
        grad[1] = -volmat - np.outer(tl, tl)
        grad[2] = np.outer(tr, tl)
        div[1] += a_edge[1:, None, None] * np.outer(tr, tr)
        div[1, 0] -= a_edge[0] * np.outer(tl, tl)
        div[0, 1:] = -a_edge[1:-1, None, None] * np.outer(tl, tr)
    sub, diag, sup = div * (2.0 / (mesh.width * basis.weights))
    k_sub, k_diag, k_sup = grad
    return _block_tridiagonal(np.stack([
        diag @ k_sub + sub @ k_diag,
        diag @ k_diag + sup @ k_sub + sub @ k_sup,
        diag @ k_sup + sup @ k_diag]))


def assemble_form_matrix(mesh: Mesh, basis: Basis,
                         form: Callable[[DGField], np.ndarray]) -> sp.csr_matrix:
    """Sparse matrix of a linear form that couples each cell to its neighbours only.

    Probe (colour, i) sets node i of every cell j with j % 3 == colour; one of
    cells c-1, c, c+1 has that colour, so the residual in c is one block column.
    """
    n, k = mesh.cells, basis.n_nodes
    cell = np.arange(n)
    blocks = np.zeros((3, n, k, k))
    for colour in range(3):
        offset = (colour - cell + 1) % 3   # 0, 1, 2: the coloured cell is c-1, c, c+1
        for i in range(k):
            probe = np.zeros((n, k))
            probe[cell % 3 == colour, i] = 1.0
            blocks[offset, cell, :, i] = form(DGField(mesh, basis, probe))
    return _block_tridiagonal(blocks)


@dataclass(eq=False)
class ImplicitOperator:
    """Prefactorized solve of (M - coef * L) x = rhs on (N,) vectors or on
    (N, B) arrays of B right-hand sides.

    ``lu`` and ``pivots`` are the ``dgbtrf`` factors in LAPACK band
    storage, with kl = ku = ``bandwidth`` = 2*degree+1.
    """

    mass: np.ndarray              # flat diagonal of M
    diffusion_matrix: sp.csr_matrix
    bandwidth: int
    lu: np.ndarray
    pivots: np.ndarray

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x, info = dgbtrs(self.lu, self.bandwidth, self.bandwidth, rhs, self.pivots)
        if info != 0:
            raise np.linalg.LinAlgError(f"dgbtrs failed with info={info}")
        return x

    def apply_diffusion(self, u: np.ndarray) -> np.ndarray:
        return self.diffusion_matrix @ u


def assemble_implicit(mesh: Mesh, basis: Basis, variant: FluxVariant, coef: float,
                      diffusion: Callable[[np.ndarray], np.ndarray]) -> ImplicitOperator:
    ldg_matrix = assemble_diffusion_matrix(mesh, basis, variant, diffusion)
    mass = mass_diag(mesh, basis).ravel()
    system = (sp.diags(mass) - coef * ldg_matrix).tocoo()
    bw = 2 * basis.degree + 1
    band = np.zeros((3 * bw + 1, mass.size))   # dgbtrf needs bw spare rows on top
    band[2 * bw + system.row - system.col, system.col] = system.data
    lu, pivots, info = dgbtrf(band, bw, bw, overwrite_ab=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgbtrf: M - coef*L is singular (info={info})")
    return ImplicitOperator(mass=mass, diffusion_matrix=ldg_matrix, bandwidth=bw,
                            lu=lu, pivots=pivots)


# ---------------------------------------------------------------------------
# error measurement between resolutions
# ---------------------------------------------------------------------------


def field_error_norms(coarse: DGField, reference: DGField) -> tuple[float, float]:
    """Quadrature L2 and max norms of (coarse - reference) at the coarse nodes."""
    pts = coarse.mesh.quad_points(coarse.basis)
    diff = coarse.coeffs - reference.evaluate(pts.ravel()).reshape(pts.shape)
    w = mass_diag(coarse.mesh, coarse.basis)
    l2 = float(np.sqrt(np.sum(w * diff * diff)))
    linf = float(np.max(np.abs(diff)))
    return l2, linf
