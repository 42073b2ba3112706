"""Voxel occupancy grids, mesh ingestion, voxelization, and metrics.

Grids live on the unit cube [0,1]^3: cell (i,j,k) of a resolution-R grid
spans [i/R, (i+1)/R) x [j/R, (j+1)/R) x [k/R, (k+1)/R) with the first
index along x. Meshes are normalized into the same cube before
voxelization. A prediction is a plain (R, R, R) array of occupancy
probabilities, which ``binarize`` turns into a grid. Metrics follow the
occupancy conventions used throughout the package: strict thresholds, and
empty-vs-empty comparisons count as perfect agreement.

``iou`` and ``fscore`` both take two grids; no metric builds a point set.
``fscore`` (Tatarchenko et al., CVPR 2019) counts an occupied cell as near
the other grid when the smallest integer squared cell offset s to one of
its occupied cells passes ``np.sqrt(s) / R < distance``. That test holds
below one integer ``cap`` and fails from it on, so s is computed exactly
only below ``cap``: one min-plus pass per axis over the offsets whose
square is below ``cap``. These are the booleans an exact Euclidean
distance transform (Maurer et al., PAMI 2003, which the tests use as the
oracle) would give. For a power-of-two R every difference of cell centers
is exact in floating point, so the distances are, bit for bit, those
between the cells' center points. At any other R the centers' coordinates
round, and a distance that ties the tolerance (1/R, or 0.2 at R=30) would
go either way from place to place; here the integer offset alone decides
it.

``voxelize`` never holds a mesh's surface samples as one point cloud: it
builds each lattice row of a block of triangles with one add of shared row
and column terms, ``SURFACE_CHUNK`` points at a time, and marks their cells
as it goes, so its scratch memory does not grow with the triangle count.
It marks the cells into lines along the grid's contiguous axis with one
spare slot each, set, so the runs of empty cells on those lines begin and
end where the flat lines change value. It finds the solid's exterior on
those runs rather than on cells: the runs that touch a face are reached,
reachability spreads to overlapping runs on adjacent lines until a pass
adds nothing (the first pass searches neighbours for the unreached runs,
each later one for the runs the last one reached), and the result is read
only at the output cells' centers.
Meshes with non-finite vertices, or edges that overflow, are rejected
rather than voxelized to a grid that means nothing.

``write_vox1`` and ``read_vox1`` build and parse VOX1 bytes; the file
itself is written and read through ``ev2vox.artifacts``.
"""

from __future__ import annotations

import bisect
import math
import os
from dataclasses import dataclass

import numpy as np

from .artifacts import read, write
from .errors import ConfigError, DataError, FormatError

VOX1_MAGIC = b"E2VVOX1\x00"
# the largest resolution VOX1 stores, a u16
VOX1_MAX_RESOLUTION = 0xFFFF
# voxelize's fine-lattice subdivisions per output cell; must be odd
SUPERSAMPLE = 5
# Lattice points per chunk of _surface_cells: a chunk's float64 points, their
# products and their int64 cells are 3 * 3 * 8 * SURFACE_CHUNK B = 1.1 MiB,
# sized to stay in L2. The grid does not depend on it.
SURFACE_CHUNK = 2**14


@dataclass
class VoxelGrid:
    """Binary occupancy over the unit cube, occupancy[x, y, z] in {0, 1}."""

    resolution: int
    occupancy: np.ndarray

    def __post_init__(self):
        if self.resolution <= 0:
            raise ConfigError(f"grid resolution must be positive, got {self.resolution}")
        expected = (self.resolution,) * 3
        if self.occupancy.shape != expected:
            raise DataError(
                f"occupancy shape {self.occupancy.shape} does not match R={self.resolution}"
            )
        self.occupancy = self.occupancy.astype(bool)

    @classmethod
    def empty(cls, resolution: int) -> "VoxelGrid":
        return cls(resolution, np.zeros((resolution,) * 3, dtype=bool))

    def count(self) -> int:
        return int(self.occupancy.sum())


@dataclass
class TriMesh:
    """Triangle mesh: vertices (V, 3) and triangles (F, 3) vertex indices."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        # one shape and index check for every consumer; an empty mesh is left
        # to them to name
        verts = self.vertices
        if verts.size and (verts.ndim != 2 or verts.shape[1] != 3 or verts.dtype.kind not in "iuf"):
            raise DataError(
                f"vertices must be a (V, 3) real array, got {verts.dtype} {verts.shape}"
            )
        tri, n = self.triangles, len(verts)
        if tri.size and (tri.ndim != 2 or tri.shape[1] != 3 or tri.dtype.kind not in "iu"):
            raise DataError(f"triangles must be (F, 3) integers, got {tri.dtype} {tri.shape}")
        bad = tri[(tri < 0) | (tri >= n)]
        if bad.size:
            raise DataError(f"a triangle references vertex {bad[0]} but only {n} exist")


def parse_obj(text: str) -> TriMesh:
    """Parse Wavefront OBJ text into a triangle mesh.

    Handles `v` and `f` lines; faces with more than three corners are fan
    triangulated, negative indices resolve against the vertex count at the
    point of use, and texture/normal references after `/` are dropped.
    Everything else (vt, vn, materials, groups, comments) is ignored.
    """
    vertices: list[tuple[float, float, float]] = []
    triangles: list[tuple[int, int, int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        keyword = parts[0]
        if keyword == "v":
            if len(parts) < 4:
                raise DataError(f"line {lineno}: vertex needs 3 coordinates: {raw!r}")
            try:
                vertex = (float(parts[1]), float(parts[2]), float(parts[3]))
            except ValueError as exc:
                raise DataError(f"line {lineno}: non-numeric vertex: {raw!r}") from exc
            if not all(map(math.isfinite, vertex)):
                raise DataError(f"line {lineno}: non-finite vertex: {raw!r}")
            vertices.append(vertex)
        elif keyword == "f":
            if len(parts) < 4:
                raise DataError(f"line {lineno}: face needs at least 3 indices: {raw!r}")
            corners = []
            for token in parts[1:]:
                head = token.split("/", 1)[0]
                try:
                    idx = int(head)
                except ValueError as exc:
                    raise DataError(f"line {lineno}: bad face index {token!r}") from exc
                if idx == 0:
                    raise DataError(f"line {lineno}: OBJ indices are 1-based")
                corners.append(len(vertices) + idx if idx < 0 else idx - 1)
            for a, b in zip(corners[1:-1], corners[2:]):
                tri = (corners[0], a, b)
                if len(set(tri)) == 3:
                    triangles.append(tri)

    if not triangles:
        raise DataError("OBJ contains no (non-degenerate) faces")
    tri_arr = np.asarray(triangles, dtype=np.int64)
    bad = tri_arr[(tri_arr < 0) | (tri_arr >= len(vertices))]
    if bad.size:
        raise DataError(f"face references vertex {bad[0] + 1} but only {len(vertices)} exist")
    return TriMesh(np.asarray(vertices, dtype=np.float64), tri_arr)


def _require_finite(mesh: TriMesh, action: str) -> None:
    """A NaN or infinite vertex would turn every bound it touches into NaN
    and the label into an empty grid, so it is rejected up front."""
    bad = np.flatnonzero(~np.isfinite(mesh.vertices).all(axis=1))
    if len(bad):
        raise DataError(
            f"cannot {action} a mesh with non-finite vertices: vertex index {bad[0]} "
            f"is {mesh.vertices[bad[0]].tolist()}"
        )


def normalize_mesh(mesh: TriMesh) -> TriMesh:
    """Uniformly scale and translate so the bounding box is centered in the
    unit cube with its longest extent exactly 1."""
    if mesh.vertices.size == 0 or mesh.triangles.size == 0:
        raise DataError("cannot normalize an empty mesh")
    _require_finite(mesh, "normalize")
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    longest = float((hi - lo).max())
    if longest <= 0.0:
        raise DataError("mesh bounding box has zero extent on every axis")
    center = (lo + hi) / 2.0
    verts = (mesh.vertices - center) / longest + 0.5
    return TriMesh(verts, mesh.triangles.copy())


def _mark_cells(keys: np.ndarray, pts: np.ndarray, resolution: int) -> None:
    """Mark the cells of the points ``pts``, a (3, ...) float64 array it
    overwrites, in ``keys``, the flat form of (R, R, R + 1) lines.

    A point's cell is floor(p R) clipped to [0, R - 1] on each axis, in
    float64: the integer clip's cell for every |p R| < 2^63, and past that
    still the face cell the point lies beyond. Its key (i R + j)(R + 1) + k,
    exact in float64, is cast to an integer once."""
    r = resolution
    pts *= r
    np.floor(pts, out=pts)
    np.clip(pts, 0, r - 1, out=pts)
    key, j, k = pts
    key *= r
    key += j
    key *= r + 1
    key += k
    keys[key.astype(np.intp)] = True


def _surface_cells(mesh: TriMesh, resolution: int) -> np.ndarray:
    """Occupancy of every cell the mesh's surface passes through, as
    (R, R, R + 1) lines along the last axis whose spare last slot is set.

    Each triangle is sampled on a barycentric lattice fine enough that
    neighboring samples are at most a quarter of a cell diagonal apart
    along both edge directions, so no cell the triangle passes through is
    missed. Triangles that need the same number of steps n share one
    lattice: point (i, j) is (u e1 + a) + v e2 with u = i/n and v = j/n,
    and for a block of triangles the row terms u e1 + a and the column
    terms v e2 are computed once each, as (3, n + 1, triangles) arrays, so
    row i's points are one add. Rows are gathered ``SURFACE_CHUNK`` points
    at a time, a longer row split, and turned straight into cells, so the
    scratch memory does not grow with the mesh. Every point gets the same
    element-wise arithmetic in any chunk, and marking a cell does not
    depend on order, so the grid does not depend on the chunk size. A
    triangle whose edge vector overflows float64 would make NaN points,
    which have no cell, so it is a DataError.
    """
    spacing = math.sqrt(3.0) / (4.0 * resolution)
    vertices, triangles = mesh.vertices, mesh.triangles
    a = vertices[triangles[:, 0]]
    e1 = vertices[triangles[:, 1]] - a
    e2 = vertices[triangles[:, 2]] - a
    bad = np.flatnonzero(~np.isfinite(np.concatenate([e1, e2], axis=1)).all(axis=1))
    if len(bad):
        raise DataError(f"cannot voxelize triangle {bad[0]}: an edge vector overflows float64")
    nb = np.ceil(np.linalg.norm(e1, axis=1) / spacing).astype(int)
    nc = np.ceil(np.linalg.norm(e2, axis=1) / spacing).astype(int)
    steps = np.maximum(np.maximum(nb, nc), 1)
    a, e1, e2 = a.T, e1.T, e2.T
    lines = np.zeros((resolution, resolution, resolution + 1), dtype=bool)
    lines[..., resolution] = True
    keys = lines.reshape(-1)
    scratch = np.empty(3 * SURFACE_CHUNK)
    for n in np.unique(steps):
        group = np.flatnonzero(steps == n)
        frac = (np.arange(n + 1) / n)[:, None]
        # a block's row and column terms are SURFACE_CHUNK points at most,
        # unless one triangle's n + 1 is more
        tris = max(1, SURFACE_CHUNK // (n + 1))
        for t0 in range(0, len(group), tris):
            g = group[t0:t0 + tris]
            rows = frac * e1[:, None, g] + a[:, None, g]
            cols = frac * e2[:, None, g]
            span = SURFACE_CHUNK // len(g)
            pts = scratch[:3 * span * len(g)].reshape(3, span, len(g))
            used = 0
            for i in range(n + 1):
                for j0 in range(0, n + 1 - i, span):
                    m = min(n + 1 - i - j0, span)
                    if used + m > span:
                        _mark_cells(keys, pts[:, :used], resolution)
                        used = 0
                    np.add(rows[:, i, None], cols[:, j0:j0 + m], out=pts[:, used:used + m])
                    used += m
            _mark_cells(keys, pts[:, :used], resolution)
    return lines


def _neighbour_ranges(runs: np.ndarray, starts: np.ndarray, ends: np.ndarray, steps):
    """For each key offset in ``steps`` (one per adjacent line), the range
    lo up to hi (exclusive) of the sorted runs that share a face with each
    of ``runs``: those that end after its start and start before its end,
    shifted by that offset. Only the given runs are searched for."""
    first, last = starts[runs], ends[runs]
    for step in steps:
        yield (np.searchsorted(ends, first + step, side="right"),
               np.searchsorted(starts, last + step, side="left"))


def _first_pass(reached: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                steps) -> np.ndarray:
    """The exterior fill's first pass, asked from the other side: mark
    every unreached run that shares a face with a reached run, and return
    the runs it marked. Each unreached run tests its neighbour ranges
    against a running count of the reached runs, so the pass searches for
    the unreached runs alone, which around an object are fewer than the
    reached ones."""
    unreached = np.flatnonzero(~reached)
    count = np.concatenate(([0], np.cumsum(reached)))
    hit = np.zeros(len(unreached), dtype=bool)
    for lo, hi in _neighbour_ranges(unreached, starts, ends, steps):
        hit |= count[hi] > count[lo]
    marked = unreached[hit]
    reached[marked] = True
    return marked


def _spread(reached: np.ndarray, frontier: np.ndarray, starts: np.ndarray,
            ends: np.ndarray, steps) -> np.ndarray:
    """One later pass of the exterior fill: mark every unreached run that
    shares a face with a run of ``frontier``, and return the runs it
    marked. The lines are taken one at a time to keep the temporaries
    small."""
    marked = []
    for lo, hi in _neighbour_ranges(frontier, starts, ends, steps):
        n = hi - lo
        # the runs of every range, one after another
        runs = np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(n.sum())
        runs = runs[~reached[runs]]
        reached[runs] = True
        marked.append(runs)
    return np.unique(np.concatenate(marked))


def _fill_exterior(lines: np.ndarray, keep) -> np.ndarray:
    """The cells ``keep`` (a tuple of three slices, or ``...`` for all) of
    the solid whose surface ``lines`` holds as (n0, n1, n2 + 1) lines with
    the spare last slot set: occupied unless reachable from the grid
    boundary through empty cells (6-connectivity).

    The empty space is cut into runs along the contiguous last axis. Two
    runs are joined when they lie on adjacent lines and their intervals
    overlap. A run that touches a face of the grid is reached;
    ``_first_pass`` and then ``_spread`` carry reachability over the joins
    until a pass adds nothing. Each ``keep`` cell then looks up the run
    that holds it."""
    n0, n1, w = lines.shape
    n2 = w - 1
    # key of cell (i, j, k): (i * n1 + j) * w + k, its place in the flat
    # lines; with a surface slot closing every line, the runs' start keys
    # and end keys (one past their last cell) are where the value changes
    flat = lines.reshape(-1)
    change = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    if not flat[0]:
        change = np.concatenate(([0], change))
    starts, ends = change[0::2], change[1::2]
    line = starts // w
    i, j = np.divmod(line, n1)
    reached = ((starts == line * w) | (ends == line * w + n2)
               | (i == 0) | (i == n0 - 1) | (j == 0) | (j == n1 - 1))
    # the key offsets of the adjacent lines; where line + 1 wraps to the
    # next row it joins two lines on faces of the grid, whose runs are all
    # reached already
    steps = [step * w for step in (n1, -n1, 1, -1)]
    frontier = _first_pass(reached, starts, ends, steps)
    while frontier.size:
        frontier = _spread(reached, frontier, starts, ends, steps)
    s0, s1, s2 = (slice(None),) * 3 if keep is Ellipsis else keep
    keys = (np.arange(n0 * n1).reshape(n0, n1)[s0, s1] * w)[..., None] + np.arange(n2)[s2]
    # the first run ending after the key holds the cell if it starts at or
    # before it; a sentinel run past every key stands for "no run"
    run = np.searchsorted(ends, keys, side="right")
    starts = np.append(starts, n0 * n1 * w)
    reached = np.append(reached, False)
    return ~(reached[run] & (starts[run] <= keys))


def voxelize(mesh: TriMesh, resolution: int) -> VoxelGrid:
    """Convert a normalized mesh into a solid binary occupancy grid.

    Surface cells are found by sampling every triangle at sub-cell density
    (at least 4 samples per cell diagonal), a lattice row at a time and
    ``SURFACE_CHUNK`` samples at most, each chunk marking its cells before
    the next is computed. The empty space is then cut into runs along the
    grid's last axis; the runs that touch one of the grid's six faces, and
    every run joined to them through overlapping runs on adjacent lines
    (6-connectivity), are exterior, and everything else is kept. Marking and filling happen on a
    finer lattice (``SUPERSAMPLE`` subdivisions per cell, odd so cell
    centers are fine cell centers) and each output cell takes the value of
    the fine cell containing its center, the only cells the fill is read
    at; working at the output resolution directly would count every
    surface-touching cell as occupied and inflate thin or curved solids by
    well over the tolerance the tests demand.

    Raises ``DataError`` for a mesh without triangles, with a non-finite
    vertex, or with an edge vector that overflows float64.
    """
    if resolution <= 0:
        raise ConfigError(f"voxelize needs a positive resolution, got {resolution}")
    if mesh.triangles.size == 0:
        raise DataError("cannot voxelize a mesh with no triangles")
    _require_finite(mesh, "voxelize")

    lines = _surface_cells(mesh, resolution * SUPERSAMPLE)
    centers = (slice(SUPERSAMPLE // 2, None, SUPERSAMPLE),) * 3
    return VoxelGrid(resolution, _fill_exterior(lines, centers))


def binarize(probs: np.ndarray, threshold: float) -> VoxelGrid:
    """Occupied where an (R, R, R) probability array strictly exceeds the
    threshold."""
    if not (0.0 < threshold < 1.0):
        raise ConfigError(f"threshold must lie in (0, 1), got {threshold}")
    return VoxelGrid(probs.shape[0], probs > threshold)


def _same_resolution(pred: VoxelGrid, gt: VoxelGrid) -> None:
    if pred.resolution != gt.resolution:
        raise DataError(
            f"prediction R={pred.resolution} vs ground truth R={gt.resolution}"
        )


def iou(pred: VoxelGrid, gt: VoxelGrid) -> float:
    """Intersection over union of a predicted and a ground-truth grid.

    Both grids empty counts as perfect agreement (1.0).
    """
    _same_resolution(pred, gt)
    inter = np.logical_and(pred.occupancy, gt.occupancy).sum()
    union = np.logical_or(pred.occupancy, gt.occupancy).sum()
    if union == 0:
        return 1.0
    return float(inter) / float(union)


def fscore(rec: VoxelGrid, gt: VoxelGrid, distance: float) -> float:
    """Harmonic mean of precision and recall at a distance tolerance, for
    two grids of the same resolution.

    Precision is the fraction of reconstructed occupied cells whose center
    lies strictly within ``distance`` of some ground-truth occupied cell's
    center, that is ``np.sqrt(s) / R < distance`` for its smallest integer
    squared cell offset s, tested as s below a ``cap``; recall is the
    symmetric fraction. Both grids empty gives 1.0, exactly one empty gives
    0.0. Grids of different resolution are a DataError, as in ``iou``.
    """
    if not (distance > 0.0):
        raise ConfigError(f"distance tolerance must be positive, got {distance}")
    _same_resolution(rec, gt)
    nr, ng = rec.count(), gt.count()
    if nr == 0 and ng == 0:
        return 1.0
    if nr == 0 or ng == 0:
        return 0.0
    precision = _near_fraction(rec, gt, distance)
    recall = _near_fraction(gt, rec, distance)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _near_fraction(grid: VoxelGrid, other: VoxelGrid, distance: float) -> float:
    """The fraction of ``grid``'s occupied cells within ``distance`` of the
    nearest occupied cell of ``other`` (not empty).

    A squared cell offset s is within when ``np.sqrt(s) / R < distance``,
    which holds for every s below some ``cap`` and for none from it on, so
    only squared distances below ``cap`` need to be exact. They come from
    one min-plus pass per axis over the offsets whose square is below
    ``cap``, in int64, with every larger distance left at ``cap``."""
    r = grid.resolution
    far = 3 * (r - 1) ** 2 + 1  # past the largest squared offset in the grid
    cap = bisect.bisect_left(range(far), True, key=lambda s: not (np.sqrt(s) / r < distance))
    d = np.where(other.occupancy, 0, np.int64(cap))
    for axis in range(3):
        src = np.moveaxis(d, axis, 0)
        out = src.copy()
        for o in range(1, min(math.isqrt(cap - 1), r - 1) + 1):
            np.minimum(out[o:], src[:-o] + o * o, out=out[o:])
            np.minimum(out[:-o], src[o:] + o * o, out=out[:-o])
        d = np.moveaxis(out, 0, axis)
    return float(np.mean(d[grid.occupancy] < cap))


def write_vox1(grid: VoxelGrid, path: str | os.PathLike) -> None:
    """Serialize a grid to VOX1: magic, u16 R, R^3 bits packed little-endian
    with x varying fastest."""
    if grid.resolution > VOX1_MAX_RESOLUTION:
        raise FormatError("VOX1 stores the resolution as u16")
    bits = grid.occupancy.ravel(order="F").astype(np.uint8)
    packed = np.packbits(bits, bitorder="little")
    write(path, VOX1_MAGIC, np.uint16(grid.resolution).tobytes(), packed.data)


def read_vox1(path: str | os.PathLike) -> VoxelGrid:
    """Read a VOX1 file, rejecting bad magic, truncation, or trailing bytes."""
    blob = read(path, VOX1_MAGIC, 2, "VOX1")
    r = int(np.frombuffer(blob, "<u2", count=1, offset=len(VOX1_MAGIC))[0])
    if r == 0:
        raise FormatError(f"{path}: resolution 0")
    payload = blob[len(VOX1_MAGIC) + 2 :]
    expected = (r**3 + 7) // 8
    if len(payload) != expected:
        raise FormatError(
            f"{path}: expected {expected} occupancy bytes for R={r}, found {len(payload)}"
        )
    bits = np.unpackbits(
        np.frombuffer(payload, dtype=np.uint8), count=r**3, bitorder="little"
    )
    occ = bits.reshape((r, r, r), order="F").astype(bool)
    return VoxelGrid(r, occ)


def unit_cube_mesh() -> TriMesh:
    """The unit cube [0,1]^3 as 12 triangles."""
    corners = np.array(
        [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
    )
    quads = [
        (0, 1, 3, 2), (4, 6, 7, 5),  # x = 0, x = 1
        (0, 4, 5, 1), (2, 3, 7, 6),  # y = 0, y = 1
        (0, 2, 6, 4), (1, 5, 7, 3),  # z = 0, z = 1
    ]
    tris = []
    for a, b, c, d in quads:
        tris.append((a, b, c))
        tris.append((a, c, d))
    return TriMesh(corners, np.asarray(tris, dtype=np.int64))


def uv_sphere_mesh(
    center=(0.5, 0.5, 0.5), diameter: float = 1.0, n_lat: int = 48, n_lon: int = 96
) -> TriMesh:
    """A latitude/longitude tessellated sphere."""
    radius = diameter / 2.0
    cx, cy, cz = center
    verts = [(cx, cy, cz + radius)]
    for i in range(1, n_lat):
        phi = math.pi * i / n_lat
        for j in range(n_lon):
            theta = 2.0 * math.pi * j / n_lon
            verts.append(
                (
                    cx + radius * math.sin(phi) * math.cos(theta),
                    cy + radius * math.sin(phi) * math.sin(theta),
                    cz + radius * math.cos(phi),
                )
            )
    verts.append((cx, cy, cz - radius))
    top, bottom = 0, len(verts) - 1

    def ring(i: int, j: int) -> int:
        return 1 + (i - 1) * n_lon + (j % n_lon)

    tris = []
    for j in range(n_lon):
        tris.append((top, ring(1, j), ring(1, j + 1)))
    for i in range(1, n_lat - 1):
        for j in range(n_lon):
            a, b = ring(i, j), ring(i, j + 1)
            c, d = ring(i + 1, j), ring(i + 1, j + 1)
            tris.append((a, c, d))
            tris.append((a, d, b))
    for j in range(n_lon):
        tris.append((bottom, ring(n_lat - 1, j + 1), ring(n_lat - 1, j)))
    return TriMesh(np.asarray(verts, dtype=np.float64), np.asarray(tris, dtype=np.int64))
