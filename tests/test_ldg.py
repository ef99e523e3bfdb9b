"""Semidiscrete operator invariants: diagonal mass, conservation telescoping,
the discrete energy identity of the alternating-flux pairing, polynomial
exactness of the composed forms, matrix/form equivalence, payoff projection
orthogonality, and interpolation accuracy of the nodal fields."""

import numpy as np
import pytest

from xvadg.config import OptionSpec
from xvadg.ldg import (DGField, FluxVariant, Mesh, assemble_diffusion_matrix,
                       assemble_form_matrix, assemble_implicit, convection_form,
                       diffusion_form, field_error_norms, gradient_form,
                       make_basis, mass_diag, project_payoff, source_form,
                       variant_for_option)

SIGMA = 0.3


def _diffusion(s):
    return 0.5 * SIGMA ** 2 * np.asarray(s, dtype=float) ** 2


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
    mesh = Mesh(s_max=60.0, cells=10)
    for deg in (1, 2):
        basis = make_basis(deg)
        u = DGField(mesh, basis, rng.standard_normal((mesh.cells, basis.n_nodes)))
        for variant in FluxVariant:
            mat = assemble_diffusion_matrix(mesh, basis, variant, _diffusion)
            via_forms = diffusion_form(gradient_form(u, variant), variant,
                                       _diffusion)
            via_matrix = (mat @ u.coeffs.ravel()).reshape(u.coeffs.shape)
            assert np.allclose(via_matrix, via_forms, rtol=1e-12, atol=1e-11)


def _cellwise_diffusion_matrix(mesh, basis, variant, diffusion):
    """Reference assembly of diffusion_form(gradient_form(.)), one cell at a time."""
    n, k1 = mesh.cells, basis.n_nodes
    volmat = (basis.diff * basis.weights[:, None]).T
    tl, tr = basis.trace_left, basis.trace_right
    minv = 2.0 / (mesh.width * basis.weights)
    if variant is FluxVariant.UPWIND_LEFT:
        k_diag, k_sub, k_super = -volmat + np.outer(tr, tr), -np.outer(tl, tr), None
    else:
        k_diag, k_sub, k_super = -volmat - np.outer(tl, tl), None, np.outer(tr, tl)
    a_edge = diffusion(mesh.edges)
    a_quad = diffusion(mesh.quad_points(basis))
    dense = np.zeros((n * k1, n * k1))
    for j in range(n):
        vol_g = volmat * a_quad[j][None, :]
        if variant is FluxVariant.UPWIND_LEFT:
            d_diag = -vol_g - a_edge[j] * np.outer(tl, tl)
            d_off, jq = None, j + 1
            if j == n - 1:
                d_diag = d_diag + a_edge[n] * np.outer(tr, tr)
            else:
                d_off = a_edge[j + 1] * np.outer(tr, tl)
        else:
            d_diag = -vol_g + a_edge[j + 1] * np.outer(tr, tr)
            d_off, jq = None, j - 1
            if j == 0:
                d_diag = d_diag - a_edge[0] * np.outer(tl, tl)
            else:
                d_off = -a_edge[j] * np.outer(tl, tr)
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
    # the whole-array assembly sums the same products in the same order
    for cells in (2, 3, 17):
        mesh = Mesh(s_max=60.0, cells=cells)
        for deg in (1, 2):
            basis = make_basis(deg)
            for variant in FluxVariant:
                mat = assemble_diffusion_matrix(mesh, basis, variant, _diffusion)
                ref = _cellwise_diffusion_matrix(mesh, basis, variant, _diffusion)
                assert np.array_equal(mat.toarray(), ref)


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
                op = assemble_implicit(mesh, basis, variant, coef, _diffusion)
                x = op.solve(rhs)
                back = op.mass * x - coef * op.apply_diffusion(x)
                scale = (op.mass * np.abs(x)
                         + coef * (abs(op.diffusion_matrix) @ np.abs(x))
                         + np.abs(rhs))
                assert np.all(np.abs(back - rhs) <= 1e-14 * scale)


def test_implicit_band_storage_width():
    # M - coef*L couples each cell to its neighbours: kl = ku = 2*degree+1,
    # and the outermost diagonals are occupied, so no narrower band fits
    mesh = Mesh(s_max=60.0, cells=10)
    for deg in (1, 2):
        basis = make_basis(deg)
        for variant in FluxVariant:
            op = assemble_implicit(mesh, basis, variant, 0.013, _diffusion)
            bw = 2 * deg + 1
            assert op.bandwidth == bw
            assert op.lu.shape == (3 * bw + 1, mesh.cells * basis.n_nodes)
            ldg = op.diffusion_matrix.tocoo()
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


def test_source_form_is_mass_weighting():
    mesh = Mesh(s_max=10.0, cells=4)
    basis = make_basis(2)
    vals = np.arange(4 * 3, dtype=float).reshape(4, 3)
    assert np.allclose(source_form(vals, mesh, basis),
                       mass_diag(mesh, basis) * vals, rtol=1e-15)


def test_variant_for_option():
    call = OptionSpec(kind="call", strike=15.0, maturity=1.0)
    put = OptionSpec(kind="put", strike=15.0, maturity=1.0)
    assert variant_for_option(call) is FluxVariant.UPWIND_LEFT
    assert variant_for_option(put) is FluxVariant.UPWIND_RIGHT
