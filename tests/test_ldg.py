"""Semidiscrete operator invariants: diagonal mass, conservation telescoping,
the discrete energy identity of the alternating-flux pairing, polynomial
exactness of the composed forms, matrix/form equivalence, payoff projection
orthogonality, and interpolation accuracy of the nodal fields."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs

from xvadg.config import OptionSpec
from xvadg.ldg import (DGField, FluxVariant, Mesh, assemble_diffusion_matrix,
                       assemble_form_matrix, assemble_implicit, convection_form,
                       diffusion_form, field_error_norms, gradient_form,
                       make_basis, mass_diag, project_payoff, variant_for_option)

SIGMA = 0.3


def _diffusion(s):
    return 0.5 * SIGMA ** 2 * np.asarray(s, dtype=float) ** 2


def _diffusion_form(variant):
    """The composed LDG diffusion u -> diffusion(gradient(u)) as one form."""
    return lambda u: diffusion_form(gradient_form(u, variant), variant, _diffusion)


def _field_from(fn, mesh, basis):
    return DGField(mesh, basis, fn(mesh.quad_points(basis)))


def test_mesh_and_basis_validation():
    with pytest.raises(ValueError, match="s_max"):
        Mesh(s_max=0.0, cells=4)
    with pytest.raises(ValueError, match="cells"):
        Mesh(s_max=1.0, cells=1)
    with pytest.raises(ValueError, match="degree"):
        make_basis(0)


def test_basis_algebraic_identities():
    for deg in (1, 2, 3):
        basis = make_basis(deg)
        assert np.sum(basis.weights) == pytest.approx(2.0, abs=1e-14)
        # derivative of the constant is zero, traces partition unity
        assert np.allclose(basis.diff @ np.ones(deg + 1), 0.0, atol=1e-13)
        assert np.sum(basis.trace_left) == pytest.approx(1.0, abs=1e-13)
        assert np.sum(basis.trace_right) == pytest.approx(1.0, abs=1e-13)


def test_mass_matrix_is_exactly_diagonal():
    # Gram matrix of the Lagrange basis on its own Gauss points, computed
    # with a much higher-order rule, is diagonal with entries (h/2) w_i
    mesh = Mesh(s_max=6.0, cells=3)
    for deg in (1, 2):
        basis = make_basis(deg)
        xq, wq = np.polynomial.legendre.leggauss(12)
        from xvadg.ldg import _lagrange_eval_raw
        phi = _lagrange_eval_raw(xq, basis.nodes, basis.bary)
        gram = 0.5 * mesh.width * np.einsum("q,qi,qj->ij", wq, phi, phi)
        expect = np.diag(0.5 * mesh.width * basis.weights)
        assert np.allclose(gram, expect, atol=1e-13)
        md = mass_diag(mesh, basis)
        assert md.shape == (3, deg + 1)
        assert np.allclose(md.sum(), mesh.s_max, rtol=1e-14)


def test_field_evaluate_and_derivative_reproduce_polynomials():
    mesh = Mesh(s_max=10.0, cells=5)
    basis = make_basis(2)
    poly = lambda s: 0.3 * s ** 2 - 1.1 * s + 0.25
    dpoly = lambda s: 0.6 * s - 1.1
    u = _field_from(poly, mesh, basis)
    s = np.concatenate([np.linspace(0.0, 10.0 - 1e-9, 57),
                        mesh.quad_points(basis).ravel(),  # node-snap path
                        mesh.edges[1:-1]])                # edge: right-cell trace
    assert np.allclose(u.evaluate(s), poly(s), atol=1e-11)
    assert np.allclose(u.derivative(s), dpoly(s), atol=1e-10)
    assert isinstance(u.evaluate(3.3), float)


def test_field_queries_outside_domain_raise():
    mesh = Mesh(s_max=10.0, cells=5)
    u = _field_from(lambda s: s, mesh, make_basis(1))
    assert u.evaluate(0.0) == pytest.approx(0.0, abs=1e-12)
    assert u.evaluate(10.0) == pytest.approx(10.0, rel=1e-12)
    for bad in (-5.0, 10.5, np.nan, np.array([1.0, 11.0])):
        with pytest.raises(ValueError, match="outside the solution domain"):
            u.evaluate(bad)
        with pytest.raises(ValueError, match="outside the solution domain"):
            u.derivative(bad)


def test_convection_form_polynomial_exactness():
    # for polynomial data with single-valued traces the Lax-Friedrichs flux
    # collapses to the physical flux, so the residual of -d/dS(c S u) is
    # collocated exactly
    c = 0.5 * SIGMA ** 2  # any constant works; this is the scheme's own speed
    mesh = Mesh(s_max=60.0, cells=8)
    for deg, fn, dflux in (
        (1, lambda s: np.ones_like(s), lambda s: c * np.ones_like(s)),
        (1, lambda s: s, lambda s: 2.0 * c * s),
        (2, lambda s: s ** 2, lambda s: 3.0 * c * s ** 2),
    ):
        basis = make_basis(deg)
        u = _field_from(fn, mesh, basis)
        res = convection_form(u, c)
        pts = mesh.quad_points(basis)
        expect = -mass_diag(mesh, basis) * dflux(pts)
        assert np.allclose(res, expect, atol=1e-10 * mesh.s_max ** 2)


def test_composed_diffusion_polynomial_exactness():
    # u = S vanishes at S=0 (the pinned end of the call variant): the
    # gradient is exactly 1 and the diffusion residual collocates
    # d/dS(a(S)) = sigma^2 S; the mirrored variant uses s_max - S
    mesh = Mesh(s_max=60.0, cells=8)
    for deg in (1, 2):
        basis = make_basis(deg)
        pts = mesh.quad_points(basis)
        md = mass_diag(mesh, basis)

        u = _field_from(lambda s: s, mesh, basis)
        q = gradient_form(u, FluxVariant.UPWIND_LEFT)
        assert np.allclose(q.coeffs, 1.0, atol=1e-11)
        res = diffusion_form(q, FluxVariant.UPWIND_LEFT, _diffusion)
        assert np.allclose(res, md * SIGMA ** 2 * pts, atol=1e-9)

        u = _field_from(lambda s: mesh.s_max - s, mesh, basis)
        q = gradient_form(u, FluxVariant.UPWIND_RIGHT)
        assert np.allclose(q.coeffs, -1.0, atol=1e-11)
        res = diffusion_form(q, FluxVariant.UPWIND_RIGHT, _diffusion)
        assert np.allclose(res, -md * SIGMA ** 2 * pts, atol=1e-9)

    basis = make_basis(2)
    pts = mesh.quad_points(basis)
    u = _field_from(lambda s: s ** 2, mesh, basis)
    q = gradient_form(u, FluxVariant.UPWIND_LEFT)
    assert np.allclose(q.coeffs, 2.0 * pts, atol=1e-9)
    res = diffusion_form(q, FluxVariant.UPWIND_LEFT, _diffusion)
    assert np.allclose(res, mass_diag(mesh, basis) * 3.0 * SIGMA ** 2 * pts ** 2,
                       atol=1e-7)


def test_conservation_telescoping():
    # summing a residual over a cell's basis leaves only the flux
    # difference, so the global sum telescopes to the domain-boundary fluxes
    rng = np.random.default_rng(21)
    mesh = Mesh(s_max=60.0, cells=12)
    c = 0.5 * SIGMA ** 2 - 0.06
    for deg in (1, 2):
        basis = make_basis(deg)
        u = DGField(mesh, basis, rng.standard_normal((mesh.cells, basis.n_nodes)))
        res = convection_form(u, c)
        # convection: flux vanishes at S=0, one-sided at s_max
        outflow = c * mesh.s_max * u.right_traces()[-1]
        assert np.sum(res) == pytest.approx(-outflow, abs=1e-11)
        for variant in FluxVariant:
            q = gradient_form(u, variant)
            dres = diffusion_form(q, variant, _diffusion)
            if variant is FluxVariant.UPWIND_LEFT:
                boundary = _diffusion(mesh.s_max) * q.right_traces()[-1]
            else:
                # a(0) = 0 kills the left flux; right edge takes qtilde
                boundary = _diffusion(mesh.s_max) * q.right_traces()[-1]
            assert np.sum(dres) == pytest.approx(boundary, rel=1e-12, abs=1e-11)


def test_discrete_energy_identity():
    # alternating fluxes give exact discrete integration by parts: testing
    # the residual against u itself returns minus the weighted gradient
    # energy plus a single one-sided boundary term
    rng = np.random.default_rng(3)
    mesh = Mesh(s_max=60.0, cells=16)
    a0 = 0.37
    const_a = lambda s: np.full_like(np.asarray(s, dtype=float), a0)
    for deg in (1, 2):
        basis = make_basis(deg)
        u = DGField(mesh, basis, rng.standard_normal((mesh.cells, basis.n_nodes)))
        md = mass_diag(mesh, basis)
        for variant in FluxVariant:
            q = gradient_form(u, variant)
            res = diffusion_form(q, variant, const_a)
            lhs = float(np.sum(u.coeffs * res))
            energy = a0 * float(np.sum(md * q.coeffs ** 2))
            if variant is FluxVariant.UPWIND_LEFT:
                boundary = a0 * u.right_traces()[-1] * q.right_traces()[-1]
            else:
                boundary = -a0 * u.left_traces()[0] * q.left_traces()[0]
            assert lhs == pytest.approx(-energy + boundary, abs=1e-10)


def test_matrix_matches_composed_forms():
    rng = np.random.default_rng(17)
    for cells in (10, 2, 3):   # 2 and 3 cells: the edge cases of the three-colour probe
        mesh = Mesh(s_max=60.0, cells=cells)
        for deg in (1, 2):
            basis = make_basis(deg)
            u = DGField(mesh, basis, rng.standard_normal((mesh.cells, basis.n_nodes)))
            for variant in FluxVariant:
                mat = assemble_diffusion_matrix(mesh, basis, variant, _diffusion)
                via_forms = diffusion_form(gradient_form(u, variant), variant,
                                           _diffusion)
                via_matrix = (mat @ u.coeffs.ravel()).reshape(u.coeffs.shape)
                assert np.allclose(via_matrix, via_forms, rtol=1e-12, atol=1e-11)


def _cellwise_diffusion_matrix(mesh, basis, variant, diffusion, absolute=False):
    """Reference assembly of diffusion_form(gradient_form(.)), one cell at a time,
    composed as D M^-1 K; ``absolute`` takes every term of D and K by magnitude,
    which gives |D| |M^-1| |K|, the scale of the rounding in any summation order."""
    mag = np.abs if absolute else (lambda term: term)
    n, k1 = mesh.cells, basis.n_nodes
    volmat = (basis.diff * basis.weights[:, None]).T
    tl, tr = basis.trace_left, basis.trace_right
    minv = 2.0 / (mesh.width * basis.weights)
    if variant is FluxVariant.UPWIND_LEFT:
        k_diag = mag(-volmat) + mag(np.outer(tr, tr))
        k_sub, k_super = mag(-np.outer(tl, tr)), None
    else:
        k_diag = mag(-volmat) + mag(-np.outer(tl, tl))
        k_sub, k_super = None, mag(np.outer(tr, tl))
    a_edge = diffusion(mesh.edges)
    a_quad = diffusion(mesh.quad_points(basis))
    dense = np.zeros((n * k1, n * k1))
    for j in range(n):
        vol_g = volmat * a_quad[j][None, :]
        if variant is FluxVariant.UPWIND_LEFT:
            d_diag = mag(-vol_g) + mag(-a_edge[j] * np.outer(tl, tl))
            d_off, jq = None, j + 1
            if j == n - 1:
                d_diag = d_diag + mag(a_edge[n] * np.outer(tr, tr))
            else:
                d_off = mag(a_edge[j + 1] * np.outer(tr, tl))
        else:
            d_diag = mag(-vol_g) + mag(a_edge[j + 1] * np.outer(tr, tr))
            d_off, jq = None, j - 1
            if j == 0:
                d_diag = d_diag + mag(-a_edge[0] * np.outer(tl, tl))
            else:
                d_off = mag(-a_edge[j] * np.outer(tl, tr))
        pieces = {}
        for q_cell, dblock in ((j, d_diag), (jq, d_off)):
            if dblock is None:
                continue
            core = dblock * minv[None, :]
            for u_cell, kblock in ((q_cell, k_diag), (q_cell - 1, k_sub),
                                   (q_cell + 1, k_super)):
                if kblock is not None and 0 <= u_cell < n:
                    pieces[u_cell] = pieces.get(u_cell, 0.0) + core @ kblock
        for u_cell, block in pieces.items():
            dense[j * k1:(j + 1) * k1, u_cell * k1:(u_cell + 1) * k1] = block
    return dense


def test_matrix_equals_cellwise_reference():
    # probing the forms adds the same products in another order: the pattern
    # is exact and each entry is within a few roundings of |D| |M^-1| |K|
    for cells in (2, 3, 17, 160):
        mesh = Mesh(s_max=60.0, cells=cells)
        for deg in (1, 2):
            basis = make_basis(deg)
            for variant in FluxVariant:
                mat = assemble_diffusion_matrix(mesh, basis, variant, _diffusion).toarray()
                ref = _cellwise_diffusion_matrix(mesh, basis, variant, _diffusion)
                scale = _cellwise_diffusion_matrix(mesh, basis, variant, _diffusion,
                                                   absolute=True)
                assert np.array_equal(mat != 0.0, ref != 0.0)
                assert np.all(np.abs(mat - ref) <= 16.0 * np.finfo(float).eps * scale)


def test_convection_matrix_matches_form():
    rng = np.random.default_rng(11)
    mesh = Mesh(s_max=60.0, cells=10)
    for deg in (1, 2):
        basis = make_basis(deg)
        u = DGField(mesh, basis, rng.standard_normal((mesh.cells, basis.n_nodes)))
        for speed in (0.03, -0.05, 0.0):
            mat = assemble_form_matrix(mesh, basis,
                                       lambda v: convection_form(v, speed))
            via_form = convection_form(u, speed)
            via_matrix = (mat @ u.coeffs.ravel()).reshape(u.coeffs.shape)
            assert np.allclose(via_matrix, via_form, rtol=1e-13, atol=1e-13)


def test_implicit_operator_solves_shifted_system():
    # the banded LU is backward stable: the residual is rounding-sized
    # against the magnitudes that cancel in it, entry by entry, even where
    # the degree-2 call system amplifies it to 1e-8 in absolute terms
    coef = 0.013
    for deg in (1, 2):
        basis = make_basis(deg)
        for cells in (10, 1280):
            mesh = Mesh(s_max=60.0, cells=cells)
            rhs = np.random.default_rng(8).standard_normal(cells * basis.n_nodes)
            for variant in FluxVariant:
                op = assemble_implicit(mesh, basis, coef, _diffusion_form(variant))
                x = op.solve(rhs)
                back = op.mass * x - coef * op.apply_diffusion(x)
                scale = (op.mass * np.abs(x)
                         + coef * (abs(op.matrix) @ np.abs(x))
                         + np.abs(rhs))
                assert np.all(np.abs(back - rhs) <= 1e-14 * scale)


def test_implicit_operator_batches_right_hand_sides():
    # B right-hand sides as the rows of a (B, N) array in two dtbtrs calls,
    # and L on B rows in one sparse product, give each row exactly its
    # single-vector result; the solve comes back C-contiguous (B, N)
    mesh = Mesh(s_max=60.0, cells=1280)
    for deg in (1, 2):
        basis = make_basis(deg)
        op = assemble_implicit(mesh, basis, 0.013, _diffusion_form(FluxVariant.UPWIND_LEFT))
        rhs = np.random.default_rng(9).standard_normal((5, op.mass.size))
        x, lx = op.solve(rhs), op.apply_diffusion(rhs)
        assert x.shape == lx.shape == rhs.shape
        assert x.flags.c_contiguous
        for b in range(5):
            assert np.array_equal(x[b], op.solve(rhs[b].copy()))
            assert np.array_equal(lx[b], op.apply_diffusion(rhs[b].copy()))
        # a zero on U's diagonal is a singular factor: dtbtrs reports it
        upper = op.upper.copy(order="F")
        upper[-1, 7] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="dtbtrs"):
            dataclasses.replace(op, upper=upper).solve(rhs)


def _dgbtrf_of(op, coef, bw):
    """An independent dgbtrf factorization of M - coef*L, from M and L alone."""
    system = (sp.diags(op.mass) - coef * op.matrix).tocoo()
    band = np.zeros((3 * bw + 1, op.mass.size))
    band[2 * bw + system.row - system.col, system.col] = system.data
    lu, pivots, info = dgbtrf(band, bw, bw)
    assert info == 0
    return lu, pivots


@pytest.mark.parametrize("deg", (1, 2))
@pytest.mark.parametrize("variant", list(FluxVariant))
def test_one_row_sweeps_are_dgbtrs_bit_for_bit(deg, variant):
    # a solve sweeps the folded factors, with dtbsv on one row and dtbtrs
    # on a batch; both add dgbtrs's products in dgbtrs's order, so every
    # row matches dgbtrs on its own factorization bit for bit, sign of zero
    # included, across magnitudes spanning many decades and in either order
    rng = np.random.default_rng(10 + deg)
    bw = 2 * deg + 1
    coef = 0.013
    basis = make_basis(deg)
    for cells in (2, 3, 17, 160, 1280):
        op = assemble_implicit(Mesh(s_max=60.0, cells=cells), basis, coef,
                               _diffusion_form(variant))
        n = op.mass.size
        lu, pivots = _dgbtrf_of(op, coef, bw)
        if cells >= 160:   # the factorization interchanges rows
            assert np.any(pivots != np.arange(n))
        for _ in range(20):   # one row, as (N,) and as (1, N)
            rhs = rng.standard_normal(n) * np.exp(3.0 * rng.standard_normal(n))
            rhs[rng.random(n) < 0.1] = 0.0
            rhs[rng.random(n) < 0.05] = -0.0
            ref, info = dgbtrs(lu, bw, bw, rhs, pivots)
            assert info == 0
            x = op.solve(rhs)
            assert x.shape == (n,)
            assert np.array_equal(x.view(np.int64), ref.view(np.int64))
            row = op.solve(rhs.reshape(1, n))
            assert row.shape == (1, n) and row.flags.c_contiguous
            assert np.array_equal(row[0].view(np.int64), ref.view(np.int64))
        for rows in (2, 3, 5):   # a batch, given C- and F-ordered
            rhs = rng.standard_normal((rows, n)) * np.exp(3.0 * rng.standard_normal((rows, n)))
            rhs[rng.random((rows, n)) < 0.1] = 0.0
            rhs[rng.random((rows, n)) < 0.05] = -0.0
            ref, info = dgbtrs(lu, bw, bw, rhs.T, pivots)
            assert info == 0
            ref = ref.T.view(np.int64)
            for given in (np.ascontiguousarray(rhs), np.asfortranarray(rhs)):
                x = op.solve(given)
                assert x.shape == (rows, n) and x.flags.c_contiguous
                assert np.array_equal(x.view(np.int64), ref)
                assert np.array_equal(given, rhs)


def test_implicit_band_storage_width():
    # M - coef*L couples each cell to its neighbours: kl = ku = 2*degree+1,
    # and the outermost diagonals are occupied, so no narrower band fits; U
    # has dgbtrs's 2*bw superdiagonals, and both bands are Fortran-ordered
    # for the sweeps
    mesh = Mesh(s_max=60.0, cells=10)
    for deg in (1, 2):
        basis = make_basis(deg)
        for variant in FluxVariant:
            op = assemble_implicit(mesh, basis, 0.013, _diffusion_form(variant))
            bw = 2 * deg + 1
            assert op.upper.shape == (2 * bw + 1, mesh.cells * basis.n_nodes)
            assert op.upper.flags.f_contiguous and op.lower.flags.f_contiguous
            ldg = op.matrix.tocoo()
            assert np.max(np.abs(ldg.row - ldg.col)) == bw


def test_payoff_projection_interpolates_when_strike_on_edge():
    # s_max 60 over 8 cells puts the strike 15 on an edge: the payoff is
    # polynomial on every cell and projection equals nodal interpolation
    option = OptionSpec(kind="call", strike=15.0, maturity=1.0)
    mesh = Mesh(s_max=60.0, cells=8)
    for deg in (1, 2):
        basis = make_basis(deg)
        field = project_payoff(option, mesh, basis)
        from xvadg.config import payoff
        assert np.array_equal(field.coeffs, payoff(option, mesh.quad_points(basis)))


def test_payoff_projection_orthogonal_in_cut_cell():
    # strike strictly inside a cell: the stored coefficients must satisfy
    # the L2 orthogonality <proj - payoff, phi_i> = 0, checked with a
    # piecewise high-order rule split at the kink
    option = OptionSpec(kind="put", strike=15.0, maturity=1.0)
    mesh = Mesh(s_max=60.0, cells=10)   # h = 6, strike in cell 2
    from xvadg.config import payoff
    from xvadg.ldg import _lagrange_eval_raw
    for deg in (1, 2):
        basis = make_basis(deg)
        field = project_payoff(option, mesh, basis)
        h = mesh.width
        jk = 2
        xi_k = 2.0 * (option.strike - mesh.edges[jk]) / h - 1.0
        gl_x, gl_w = np.polynomial.legendre.leggauss(16)
        moment = np.zeros(basis.n_nodes)
        for lo, hi in ((-1.0, xi_k), (xi_k, 1.0)):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            xq = mid + half * gl_x
            sq = mesh.edges[jk] + 0.5 * h * (xq + 1.0)
            phi = _lagrange_eval_raw(xq, basis.nodes, basis.bary)
            proj_vals = phi @ field.coeffs[jk]
            moment += half * (gl_w * (proj_vals - payoff(option, sq))) @ phi
        assert np.allclose(moment, 0.0, atol=1e-13)
        # every other cell is plain interpolation
        pts = mesh.quad_points(basis)
        other = np.delete(np.arange(mesh.cells), jk)
        assert np.array_equal(field.coeffs[other], payoff(option, pts[other]))


def test_smooth_field_interpolation_convergence():
    # nodal sampling of a smooth field converges at order degree+1 in the
    # max norm over off-node points, and its local derivative at order degree
    fn = lambda s: np.sin(0.21 * s) * np.exp(-0.05 * s)
    dfn = lambda s: (0.21 * np.cos(0.21 * s) - 0.05 * np.sin(0.21 * s)) \
        * np.exp(-0.05 * s)
    dense = np.linspace(0.0, 30.0, 4097)[1:-1]
    for deg, low, high in ((1, 1.6, 2.4), (2, 2.6, 3.4)):
        basis = make_basis(deg)
        errs, derrs = [], []
        for cells in (8, 16, 32):
            u = _field_from(fn, Mesh(s_max=30.0, cells=cells), basis)
            errs.append(np.max(np.abs(u.evaluate(dense) - fn(dense))))
            derrs.append(np.max(np.abs(u.derivative(dense) - dfn(dense))))
        eoc = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        deoc = np.log2(np.array(derrs[:-1]) / np.array(derrs[1:]))
        assert np.all((eoc > low) & (eoc < high))
        assert np.all(deoc > low - 1.0)


def test_field_error_norms_arithmetic():
    # self-comparison is exactly zero; a known nodal perturbation comes back
    # as its mass-weighted L2 and its max
    mesh = Mesh(s_max=10.0, cells=4)
    basis = make_basis(1)
    u = _field_from(lambda s: s ** 2, mesh, basis)
    assert field_error_norms(u, u) == (0.0, 0.0)
    rng = np.random.default_rng(2)
    delta = rng.uniform(-1.0, 1.0, u.coeffs.shape)
    v = DGField(mesh, basis, u.coeffs + delta)
    l2, linf = field_error_norms(v, u)
    md = mass_diag(mesh, basis)
    assert l2 == pytest.approx(np.sqrt(np.sum(md * delta ** 2)), rel=1e-12)
    assert linf == pytest.approx(np.max(np.abs(delta)), rel=1e-12)


def test_variant_for_option():
    call = OptionSpec(kind="call", strike=15.0, maturity=1.0)
    put = OptionSpec(kind="put", strike=15.0, maturity=1.0)
    assert variant_for_option(call) is FluxVariant.UPWIND_LEFT
    assert variant_for_option(put) is FluxVariant.UPWIND_RIGHT
