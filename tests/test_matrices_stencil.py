"""Tests for the generic finite-difference stencil assembly."""

import numpy as np
import pytest

from repro.config import rng
from repro.matrices import galeri
from repro.matrices.stencil import (
    assemble_stencil_2d,
    assemble_stencil_3d,
    grid_shape_2d,
    grid_shape_3d,
)
from repro.sparse import CsrMatrix
from tests.conftest import dense


class TestGridShapes:
    def test_defaults(self):
        assert grid_shape_2d(5) == (5, 5)
        assert grid_shape_2d(5, 3) == (5, 3)
        assert grid_shape_3d(4) == (4, 4, 4)
        assert grid_shape_3d(4, 3, 2) == (4, 3, 2)

    def test_invalid(self):
        with pytest.raises(ValueError):
            grid_shape_2d(0)
        with pytest.raises(ValueError):
            grid_shape_2d(3, -1)
        with pytest.raises(ValueError):
            grid_shape_3d(3, 0)


class TestAssemble2D:
    def test_matches_hand_built_3x2_grid(self):
        nx, ny = 3, 2
        center = np.full((ny, nx), 4.0)
        east = np.full((ny, nx), -1.0)
        west = np.full((ny, nx), -2.0)
        north = np.full((ny, nx), -3.0)
        south = np.full((ny, nx), -4.0)
        A = assemble_stencil_2d(center, east, west, north, south)
        D = dense(A)
        assert D.shape == (6, 6)
        # Node 0 = (ix=0, iy=0): east to node 1, north to node 3.
        assert D[0, 0] == 4.0
        assert D[0, 1] == -1.0
        assert D[0, 3] == -3.0
        assert D[0, 2] == 0.0  # no wrap-around to the end of the row
        # Node 1: west to node 0, east to node 2, north to node 4.
        assert D[1, 0] == -2.0 and D[1, 2] == -1.0 and D[1, 4] == -3.0
        # Node 4 = (ix=1, iy=1): south to node 1.
        assert D[4, 1] == -4.0

    def test_no_periodic_wraparound(self):
        n = 4
        ones = np.ones((n, n))
        A = assemble_stencil_2d(4 * ones, -ones, -ones, -ones, -ones)
        D = dense(A)
        # Last node of row 0 must not couple east to the first node of row 1.
        assert D[n - 1, n] == 0.0

    def test_nnz_count_of_5_point_stencil(self):
        n = 6
        ones = np.ones((n, n))
        A = assemble_stencil_2d(4 * ones, -ones, -ones, -ones, -ones)
        expected_links = 2 * n * (n - 1)  # horizontal + vertical interior links
        assert A.nnz == n * n + 2 * expected_links

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            assemble_stencil_2d(np.ones((3, 3)), np.ones((3, 2)), np.ones((3, 3)),
                                np.ones((3, 3)), np.ones((3, 3)))

    def test_spatially_varying_coefficients(self):
        ny, nx = 3, 3
        east = np.arange(9, dtype=float).reshape(ny, nx)
        A = assemble_stencil_2d(np.ones((ny, nx)), east, np.zeros((ny, nx)),
                                np.zeros((ny, nx)), np.zeros((ny, nx)))
        D = dense(A)
        assert D[0, 1] == east[0, 0]
        assert D[4, 5] == east[1, 1]


class TestAssemble3D:
    def test_laplacian_row_sums(self):
        n = 4
        shape = (n, n, n)
        coeffs = {k: np.full(shape, -1.0) for k in ("east", "west", "north", "south", "up", "down")}
        coeffs["center"] = np.full(shape, 6.0)
        A = assemble_stencil_3d(coeffs)
        D = dense(A)
        # Interior node: row sums to zero; boundary nodes: positive.
        row_sums = D.sum(axis=1)
        assert np.all(row_sums >= -1e-12)
        interior = n * n * (n // 2) + n * (n // 2) + n // 2
        assert row_sums[interior] == pytest.approx(0.0, abs=1e-12)

    def test_missing_coefficient_raises(self):
        shape = (3, 3, 3)
        coeffs = {k: np.ones(shape) for k in ("center", "east", "west", "north", "south", "up")}
        with pytest.raises(ValueError):
            assemble_stencil_3d(coeffs)

    def test_wrong_shape_raises(self):
        shape = (3, 3, 3)
        coeffs = {k: np.ones(shape) for k in ("center", "east", "west", "north", "south", "up", "down")}
        coeffs["down"] = np.ones((3, 3, 2))
        with pytest.raises(ValueError):
            assemble_stencil_3d(coeffs)

    def test_symmetric_when_coefficients_symmetric(self):
        from repro.sparse import is_numerically_symmetric

        shape = (3, 4, 5)
        coeffs = {k: np.full(shape, -1.0) for k in ("east", "west", "north", "south", "up", "down")}
        coeffs["center"] = np.full(shape, 6.0)
        assert is_numerically_symmetric(assemble_stencil_3d(coeffs))


# ---------------------------------------------------------------------- #
# parity with the COO-triplet assembly                                   #
# ---------------------------------------------------------------------- #
def _coo_oracle_2d(center, east, west, north, south):
    """Reference: the 5-point operator from COO triplets via ``from_coo``."""
    center = np.asarray(center, dtype=np.float64)
    ny, nx = center.shape
    ids = np.arange(nx * ny, dtype=np.int64).reshape(ny, nx)
    links = [
        (ids, ids, center),
        (ids[:, :-1], ids[:, 1:], np.asarray(east, dtype=np.float64)[:, :-1]),
        (ids[:, 1:], ids[:, :-1], np.asarray(west, dtype=np.float64)[:, 1:]),
        (ids[:-1, :], ids[1:, :], np.asarray(north, dtype=np.float64)[:-1, :]),
        (ids[1:, :], ids[:-1, :], np.asarray(south, dtype=np.float64)[1:, :]),
    ]
    return _from_triplets(links, nx * ny)


def _coo_oracle_3d(coefficients):
    """Reference: the 7-point operator from COO triplets via ``from_coo``."""
    c = {k: np.asarray(v, dtype=np.float64) for k, v in coefficients.items()}
    nz, ny, nx = c["center"].shape
    ids = np.arange(nx * ny * nz, dtype=np.int64).reshape(nz, ny, nx)
    links = [
        (ids, ids, c["center"]),
        (ids[:, :, :-1], ids[:, :, 1:], c["east"][:, :, :-1]),
        (ids[:, :, 1:], ids[:, :, :-1], c["west"][:, :, 1:]),
        (ids[:, :-1, :], ids[:, 1:, :], c["north"][:, :-1, :]),
        (ids[:, 1:, :], ids[:, :-1, :], c["south"][:, 1:, :]),
        (ids[:-1, :, :], ids[1:, :, :], c["up"][:-1, :, :]),
        (ids[1:, :, :], ids[:-1, :, :], c["down"][1:, :, :]),
    ]
    return _from_triplets(links, nx * ny * nz)


def _from_triplets(links, n):
    rows, cols, vals = (np.concatenate([link[i].ravel() for link in links]) for i in range(3))
    return CsrMatrix.from_coo(rows, cols, vals, (n, n))


def _assert_same_arrays(got, want):
    for attr in ("data", "indices", "indptr"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype, attr
        assert a.shape == b.shape, attr
        assert a.tobytes() == b.tobytes(), attr


def _oracle_for(generator, monkeypatch, *args, **kwargs):
    """Run ``generator`` and rebuild its operator from the same coefficients
    through the COO oracle (the assembler's inputs are captured in flight)."""
    captured = {}

    def spy(assembler, oracle):
        def wrapped(*a, **kw):
            captured["oracle"] = oracle(*a)
            return assembler(*a, **kw)

        return wrapped

    monkeypatch.setattr(galeri, "assemble_stencil_2d", spy(assemble_stencil_2d, _coo_oracle_2d))
    monkeypatch.setattr(galeri, "assemble_stencil_3d", spy(assemble_stencil_3d, _coo_oracle_3d))
    matrix = getattr(galeri, generator)(*args, **kwargs)
    return matrix, captured["oracle"]


GRIDS_2D = [(8, 8), (7, 4), (1, 5), (5, 1), (2, 6), (1, 1)]
GRIDS_3D = [(5, 5, 5), (5, 3, 4), (1, 4, 3), (3, 1, 1), (2, 2, 2), (6, 2, 1)]


class TestAssemblyParity:
    """Direct CSR assembly is bit-identical to the COO-triplet path."""

    @pytest.mark.parametrize("grid", GRIDS_2D)
    @pytest.mark.parametrize(
        "generator",
        ["laplace2d", "uniflow2d", "bentpipe2d", "stretched2d", "convection_diffusion_2d"],
    )
    def test_2d_generators(self, generator, grid, monkeypatch):
        _assert_same_arrays(*_oracle_for(generator, monkeypatch, *grid))

    @pytest.mark.parametrize("grid", GRIDS_3D)
    def test_laplace3d(self, grid, monkeypatch):
        _assert_same_arrays(*_oracle_for("laplace3d", monkeypatch, *grid))

    @pytest.mark.parametrize("scheme", ["central", "upwind"])
    def test_convection_diffusion_schemes(self, scheme, monkeypatch):
        matrix, oracle = _oracle_for(
            "convection_diffusion_2d", monkeypatch, 6, 3,
            epsilon=0.01, velocity=(2.0, -1.0), scheme=scheme,
        )
        _assert_same_arrays(matrix, oracle)

    def test_explicit_zero_coupling_is_stored(self, monkeypatch):
        # h = 1/4 and vx = 8 make the central east coupling -1 + 8*h/2 == 0.
        matrix, oracle = _oracle_for(
            "convection_diffusion_2d", monkeypatch, 3, 4, epsilon=1.0, velocity=(8.0, 0.0)
        )
        _assert_same_arrays(matrix, oracle)
        nx, ny = 3, 4
        assert matrix.nnz == nx * ny + 2 * ((nx - 1) * ny + nx * (ny - 1))
        assert np.count_nonzero(matrix.data == 0.0) == (nx - 1) * ny

    @pytest.mark.parametrize("shape", [(3, 4, 5), (1, 2, 3), (2, 1, 1)])
    def test_3d_spatially_varying_with_zeros(self, shape):
        keys = ("center", "east", "west", "north", "south", "up", "down")
        values = rng(42).standard_normal((len(keys),) + shape)
        values[1, ..., 0] = 0.0  # explicit zero couplings
        coeffs = dict(zip(keys, values))
        _assert_same_arrays(assemble_stencil_3d(coeffs), _coo_oracle_3d(coeffs))

    @pytest.mark.parametrize("shape", [(4, 3), (1, 6), (2, 2)])
    def test_2d_spatially_varying_with_zeros(self, shape):
        values = rng(42).standard_normal((5,) + shape)
        values[2] = 0.0  # every west coupling is an explicit zero
        _assert_same_arrays(assemble_stencil_2d(*values), _coo_oracle_2d(*values))
