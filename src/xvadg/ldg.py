"""Local discontinuous Galerkin semidiscretization on a uniform grid.

After reversing time (tau = maturity - t) the pricing equation is marched in
conservative form

    du/dtau + d/dS [ c S u ] = d/dS [ a(S) du/dS ] + c u - F(tau, S, u),

with convection speed ``c = sigma^2 - drift``, diffusion ``a(S) =
sigma^2 S^2 / 2``, the zeroth-order term ``c u`` of the conservative form
and the driver F of :mod:`xvadg.drivers`.  The domain [0, s_max] is split
into ``cells`` uniform cells; on each cell the solution lives in the
Lagrange basis on the Gauss-Legendre points of degree+1 nodes.  That choice
makes the mass matrix exactly diagonal, (h/2) w_i, and because the
diffusion coefficient is a quadratic polynomial every bilinear-form
integrand below (and c u's) has degree at most 2*degree+1, so the basis's
own quadrature integrates it exactly; the one deliberately inexact rule is
the nodal collocation of F.

The second-order term is split LDG-style with an auxiliary gradient field q:

    gradient_form   q-residual      <q, v> = -<u, v'> + utilde v | edges
    diffusion_form  u-residual from d/dS(a q), interface values qtilde
    convection_form Lax-Friedrichs fluxes for c S u
    mass_diag       weights the zeroth-order terms c u and F

``FluxVariant`` fixes the alternating interface pairing.  ``UPWIND_LEFT``
takes utilde from the left cell and qtilde from the right, with u pinned to
zero at S=0 (the natural choice for calls, whose value vanishes there);
``UPWIND_RIGHT`` mirrors everything and pins u to zero at s_max (puts).
Domain-boundary convection fluxes are variant-independent: f vanishes at
S=0 identically and is taken one-sided from the interior at s_max (outflow
for c > 0).

The forms are the one definition of the operators; a linear form coupling
each cell to its neighbours becomes a sparse block-tridiagonal matrix by
probing (``assemble_form_matrix``).  ``assemble_implicit`` probes the whole
linear form L (the solver sums diffusion, convection and the weighted c u)
and factors the banded M - coef * L, kl = ku = 2*degree+1, once with LAPACK
``dgbtrf``.  The row interchanges of the factorization are folded once into
one permutation and a unit-lower band, so an implicit stage is a gather and
two triangular sweeps over those factors: BLAS ``dtbsv`` on one right-hand
side, LAPACK ``dtbtrs`` on a batch.  Both add ``dgbtrs``'s products in its
order, so every row gets ``dgbtrs``'s bits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgbtrf, dtbtrs

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


def check_domain(s, s_max: float) -> np.ndarray:
    """The query spots as a 1-d array; raises naming the first outside [0, s_max]."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    outside = ~((s >= 0.0) & (s <= s_max))
    if np.any(outside):
        raise ValueError(f"query spot {float(s[outside][0])!r} lies outside the "
                         f"solution domain [0, {s_max:g}]")
    return s


@dataclass(eq=False)
class DGField:
    """Cellwise polynomial data: nodal values at the quadrature points."""

    mesh: Mesh
    basis: Basis
    coeffs: np.ndarray  # (cells, degree+1)

    def _locate(self, s) -> tuple[np.ndarray, np.ndarray]:
        """Cell index and basis values at each query spot; outside [0, s_max] raises."""
        s = check_domain(s, self.mesh.s_max)
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


# ---------------------------------------------------------------------------
# composed implicit operator
# ---------------------------------------------------------------------------


def assemble_diffusion_matrix(mesh: Mesh, basis: Basis, variant: FluxVariant,
                              diffusion: Callable[[np.ndarray], np.ndarray]) -> sp.csr_matrix:
    """Sparse matrix L of u -> diffusion_form(gradient_form(u)), probed from the forms.

    q in cell c reads u in c and one neighbour, and the residual in c reads q
    in c and the other neighbour, so the composition couples c to c-1, c, c+1.
    """
    return assemble_form_matrix(
        mesh, basis, lambda u: diffusion_form(gradient_form(u, variant), variant, diffusion))


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
    side, row, a, b = np.ogrid[-1:2, :n, :k, :k]
    rows = np.broadcast_to(row * k + a, blocks.shape)
    cols = np.broadcast_to((row + side) * k + b, blocks.shape)
    keep = (cols >= 0) & (cols < n * k)   # the off-mesh neighbours of the end cells drop
    return sp.csr_matrix((blocks[keep], (rows[keep], cols[keep])), shape=(n * k, n * k))


@dataclass(eq=False)
class ImplicitOperator:
    """Prefactorized solve of (M - coef * L) x = rhs, and the product L u,
    on (N,) vectors or on C-contiguous (B, N) arrays whose row b is the
    b-th vector.

    The factors are the ``dgbtrf`` factorization of the band M - coef * L
    with its row interchanges folded out (``_fold_interchanges``): ``perm``
    and the unit-lower band ``lower``, and U as ``dgbtrs`` reads it, the
    top 2*bw+1 rows of the ``dgbtrf`` band (bw = 2*degree+1).  A solve
    gathers ``rhs`` by ``perm`` and sweeps it with ``lower`` and then
    ``upper``: one row, (N,) or (1, N), by two ``dtbsv`` calls in the shape
    given; B > 1 rows by two ``dtbtrs`` calls on the F-contiguous (N, B)
    transpose of the gathered C-contiguous (B, N) array, so ``solve``
    returns a C-contiguous (B, N) array.  ``dtbtrs`` sweeps each column
    with ``dtbsv``, so each row is bit for bit that row solved alone, and
    both are ``dgbtrs``'s products in its order.  The sparse product also
    takes the (N, B) transpose; scipy's result is C-ordered, so
    ``apply_diffusion`` returns an F-ordered (B, N) view, which numpy
    combines with C-ordered operands into C-ordered results.
    """

    mass: np.ndarray              # flat diagonal of M
    matrix: sp.csr_matrix         # L
    perm: np.ndarray              # x[i] of P x = rhs is rhs[perm[i]]
    lower: np.ndarray             # folded unit-lower factor, band storage
    upper: np.ndarray             # U, band storage, kd = 2*bw

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if rhs.ndim == 2 and rhs.shape[0] > 1:
            x = np.take(rhs, self.perm, axis=1).T
            for band, uplo, diag in ((self.lower, "L", "U"), (self.upper, "U", "N")):
                x, info = dtbtrs(band, x, uplo=uplo, diag=diag, overwrite_b=1)
                if info != 0:
                    raise np.linalg.LinAlgError(f"dtbtrs failed with info={info}")
            return x.T
        x = rhs.reshape(-1)[self.perm]
        x = dtbsv(self.lower.shape[0] - 1, self.lower, x, lower=1, diag=1, overwrite_x=1)
        x = dtbsv(self.upper.shape[0] - 1, self.upper, x, overwrite_x=1)
        return x.reshape(rhs.shape)

    def apply_diffusion(self, u: np.ndarray) -> np.ndarray:
        """L u for the whole linear operator L, not its diffusion part alone."""
        return (self.matrix @ u.T).T


def _fold_interchanges(lu: np.ndarray, pivots: np.ndarray,
                       bw: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``dgbtrf`` unit-lower factor as one permutation and one band.

    ``dgbtrs`` applies the factor column by column: at step j it swaps
    rows j and pivots[j], then subtracts multiplier * x[j] from rows
    j+1..j+bw.  Row j is final after step j, and the later interchanges
    only move the rows below it, so the multiplier that step j subtracts
    from row r lands in the row pi_j(r) that the interchanges of steps
    j+1, j+2, ... carry r to.  Placed there, the multipliers form a
    unit-lower band, and rhs gathered by ``perm`` (the composition of all
    the interchanges) and swept with it gets the same updates in the same
    order.  One backward pass over the pivots builds each pi_j from
    pi_{j+1}.  The band is wider than bw by the distance the interchanges
    carry a multiplier; the multipliers of rows past n are never read.
    """
    n = lu.shape[1]
    pos = np.arange(n + bw)             # pi_j; the bw rows past n are never swapped
    dest = np.empty((bw, n), dtype=np.intp)
    for j in range(n - 1, -1, -1):
        dest[:, j] = pos[j + 1:j + 1 + bw]
        q = pivots[j]
        pos[j], pos[q] = pos[q], pos[j]
    perm = np.empty(n, dtype=np.intp)
    perm[pos[:n]] = np.arange(n)
    col = np.arange(n)
    dest -= col                         # row offsets below the diagonal
    lower = np.zeros((int(dest.max()) + 1, n), order="F")
    lower[dest, col] = lu[2 * bw + 1:]
    return perm, lower


def assemble_implicit(mesh: Mesh, basis: Basis, coef: float,
                      form: Callable[[DGField], np.ndarray]) -> ImplicitOperator:
    """Probe the linear ``form`` into L and factor M - coef * L once."""
    matrix = assemble_form_matrix(mesh, basis, form)
    mass = mass_diag(mesh, basis).ravel()
    system = (sp.diags(mass) - coef * matrix).tocoo()
    bw = 2 * basis.degree + 1
    # Fortran order, so dgbtrf factors the band in place; bw spare rows on top
    band = np.zeros((3 * bw + 1, mass.size), order="F")
    band[2 * bw + system.row - system.col, system.col] = system.data
    lu, pivots, info = dgbtrf(band, bw, bw, overwrite_ab=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgbtrf: M - coef*L is singular (info={info})")
    perm, lower = _fold_interchanges(lu, pivots, bw)
    return ImplicitOperator(mass=mass, matrix=matrix, perm=perm, lower=lower,
                            upper=np.asfortranarray(lu[:2 * bw + 1]))


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
