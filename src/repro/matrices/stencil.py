"""Finite-difference stencil assembly on structured grids.

The paper's PDE test problems are generated "with finite difference
stencils via the Trilinos Galeri package"; these helpers play that role.
Assembly is fully vectorised and writes the CSR arrays directly: each node
row holds its stencil links in ascending column-offset order, links that
would leave the domain are dropped by grid position (homogeneous Dirichlet
boundaries), and ``indptr`` is the running count of kept links.  Rows come
out sorted and duplicate-free by construction, so no COO triplets are built
and nothing is sorted or merged.  A link is kept or dropped by where it sits
on the grid, never by its value, so explicit zero couplings are stored.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from ..sparse.csr import INDEX_DTYPE, CsrMatrix

__all__ = [
    "grid_shape_2d",
    "grid_shape_3d",
    "assemble_stencil_2d",
    "assemble_stencil_3d",
]


def grid_shape_2d(nx: int, ny: int | None = None) -> Tuple[int, int]:
    """Normalise a 2D grid request (``ny`` defaults to ``nx``)."""
    if nx <= 0:
        raise ValueError("nx must be positive")
    ny = nx if ny is None else ny
    if ny <= 0:
        raise ValueError("ny must be positive")
    return nx, ny


def grid_shape_3d(nx: int, ny: int | None = None, nz: int | None = None) -> Tuple[int, int, int]:
    """Normalise a 3D grid request (``ny``/``nz`` default to ``nx``)."""
    if nx <= 0:
        raise ValueError("nx must be positive")
    ny = nx if ny is None else ny
    nz = nx if nz is None else nz
    if ny <= 0 or nz <= 0:
        raise ValueError("ny and nz must be positive")
    return nx, ny, nz


def _stencil_csr(
    offsets: Sequence[int],
    coefficients: Sequence[np.ndarray],
    in_grid: Sequence[np.ndarray],
    *,
    name: str,
) -> CsrMatrix:
    """CSR arrays of a structured-grid stencil, written without sorting.

    ``offsets`` are the links' column offsets in ascending order,
    ``coefficients`` the per-node coefficient array of each link (all of the
    grid's shape, indexed by the row node) and ``in_grid`` each link's
    boolean mask (broadcastable to the grid): ``True`` where the neighbour
    exists.  Row ``i`` stores its kept links in offset order, so columns are
    ascending and distinct within every row.
    """
    grid = np.shape(coefficients[0])
    n = int(np.prod(grid))
    k = len(offsets)
    values = np.empty(grid + (k,), dtype=np.float64)
    keep = np.empty(grid + (k,), dtype=bool)
    row_links = np.zeros(grid, dtype=np.int64)
    for j, (coefficient, mask) in enumerate(zip(coefficients, in_grid)):
        values[..., j] = coefficient
        keep[..., j] = mask
        row_links += mask
    keep = keep.reshape(n, k)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(row_links.reshape(n), out=indptr[1:])
    # Dropped links may point past either end of the grid; only kept ones,
    # all in [0, n), leave this array, so int32 wrap-around is harmless.
    columns = np.arange(n, dtype=INDEX_DTYPE)[:, None] + np.asarray(offsets, dtype=INDEX_DTYPE)
    return CsrMatrix(values.reshape(n, k)[keep], columns[keep], indptr, (n, n), name=name)


def assemble_stencil_2d(
    center: np.ndarray,
    east: np.ndarray,
    west: np.ndarray,
    north: np.ndarray,
    south: np.ndarray,
    *,
    name: str = "stencil2d",
) -> CsrMatrix:
    """Assemble a 5-point operator from per-node link coefficients.

    All arrays have shape ``(ny, nx)``; entry ``[iy, ix]`` of ``east`` is the
    coefficient coupling node ``(ix, iy)`` to its eastern neighbour
    ``(ix+1, iy)``, and so on.  Couplings across the boundary are dropped
    (homogeneous Dirichlet conditions), which is also how Galeri's
    ``Cross2D`` stencils behave.

    Returns a float64 :class:`CsrMatrix` of dimension ``nx*ny``.
    """
    ny, nx = np.shape(center)
    for arr, label in ((east, "east"), (west, "west"), (north, "north"), (south, "south")):
        if np.asarray(arr).shape != (ny, nx):
            raise ValueError(f"{label} coefficient array must have shape {(ny, nx)}")
    ix = np.arange(nx)[None, :]
    iy = np.arange(ny)[:, None]
    # Unknowns are numbered row-major over (iy, ix).
    return _stencil_csr(
        (-nx, -1, 0, 1, nx),
        (south, west, center, east, north),
        (iy > 0, ix > 0, True, ix < nx - 1, iy < ny - 1),
        name=name,
    )


def assemble_stencil_3d(
    coefficients: Dict[str, np.ndarray],
    *,
    name: str = "stencil3d",
) -> CsrMatrix:
    """Assemble a 7-point operator from per-node link coefficients.

    ``coefficients`` maps the keys ``"center", "east", "west", "north",
    "south", "up", "down"`` to arrays of shape ``(nz, ny, nx)``.  Boundary
    couplings are dropped (homogeneous Dirichlet).
    """
    required = {"center", "east", "west", "north", "south", "up", "down"}
    missing = required - coefficients.keys()
    if missing:
        raise ValueError(f"missing stencil coefficients: {sorted(missing)}")
    nz, ny, nx = np.shape(coefficients["center"])
    for key, arr in coefficients.items():
        if np.shape(arr) != (nz, ny, nx):
            raise ValueError(f"{key} coefficient array must have shape {(nz, ny, nx)}")
    ix = np.arange(nx)[None, None, :]
    iy = np.arange(ny)[None, :, None]
    iz = np.arange(nz)[:, None, None]
    # Unknowns are numbered row-major over (iz, iy, ix).
    return _stencil_csr(
        (-nx * ny, -nx, -1, 0, 1, nx, nx * ny),
        [coefficients[k] for k in ("down", "south", "west", "center", "east", "north", "up")],
        (iz > 0, iy > 0, ix > 0, True, ix < nx - 1, iy < ny - 1, iz < nz - 1),
        name=name,
    )
