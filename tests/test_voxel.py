import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import ndimage

from ev2vox import sim
from ev2vox import voxel as vx
from ev2vox.errors import (
    ConfigError,
    DataError,
    FormatError,
)


def random_probs(rng, r=8):
    return rng.uniform(size=(r, r, r))


def random_voxel_grid(rng, r=8, density=0.4):
    return vx.VoxelGrid(r, rng.uniform(size=(r, r, r)) < density)


def brute_force_iou(pred_values, gt_occ, t):
    r = gt_occ.shape[0]
    inter = union = 0
    for i in range(r):
        for j in range(r):
            for k in range(r):
                p = pred_values[i, j, k] > t
                g = bool(gt_occ[i, j, k])
                inter += p and g
                union += p or g
    return 1.0 if union == 0 else inter / union


def brute_force_fscore(rec, gt, d):
    """F-Score from the integer offset between every pair of occupied
    cells: a cell is within ``d`` when sqrt(di^2 + dj^2 + dk^2) / R < d."""
    a, b = np.argwhere(rec.occupancy), np.argwhere(gt.occupancy)
    if len(a) == 0 and len(b) == 0:
        return 1.0
    if len(a) == 0 or len(b) == 0:
        return 0.0
    sq = sum((a[:, None, k] - b[None, :, k]) ** 2 for k in range(3))
    precision = np.sum(np.sqrt(sq.min(axis=1)) / rec.resolution < d) / len(a)
    recall = np.sum(np.sqrt(sq.min(axis=0)) / rec.resolution < d) / len(b)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def edt_fscore(rec, gt, d):
    """The F-Score from each cell's exact Euclidean distance to the other
    grid, read from scipy's distance transform (Maurer et al., PAMI 2003):
    the oracle for the capped distance test."""
    def near(grid, other):
        cells = ndimage.distance_transform_edt(~other.occupancy)[grid.occupancy]
        return float(np.mean(cells / grid.resolution < d))

    nr, ng = rec.count(), gt.count()
    if nr == 0 and ng == 0:
        return 1.0
    if nr == 0 or ng == 0:
        return 0.0
    precision, recall = near(rec, gt), near(gt, rec)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def kdtree_fscore(rec, gt, d):
    """The F-Score as it was computed before the distance transform: each
    occupied cell's center as a point, and the nearest point of the other
    grid from a KD-tree."""
    from scipy.spatial import cKDTree

    a = (np.argwhere(rec.occupancy) + 0.5) / rec.resolution
    b = (np.argwhere(gt.occupancy) + 0.5) / gt.resolution
    if len(a) == 0 and len(b) == 0:
        return 1.0
    if len(a) == 0 or len(b) == 0:
        return 0.0
    precision = float(np.mean(cKDTree(b).query(a)[0] < d))
    recall = float(np.mean(cKDTree(a).query(b)[0] < d))
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def fscore_cases(r, seed):
    """Random grid pairs at resolution ``r`` and a random distance; at
    most about r^2 / 2 cells each, for the all-pairs brute force, and at
    the smaller R one grid is empty now and then."""
    rng = np.random.default_rng(seed)
    for _ in range(12):
        yield (random_voxel_grid(rng, r, rng.uniform(0.0, 0.5 / r)),
               random_voxel_grid(rng, r, rng.uniform(0.0, 0.5 / r)),
               float(rng.uniform(0.01, 0.5)))


class TestParseObj:
    def test_minimal_triangle(self):
        mesh = vx.parse_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        assert mesh.vertices.shape == (3, 3)
        np.testing.assert_array_equal(mesh.triangles, [[0, 1, 2]])

    def test_quad_fan_triangulation(self):
        mesh = vx.parse_obj(
            "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
        )
        np.testing.assert_array_equal(mesh.triangles, [[0, 1, 2], [0, 2, 3]])

    def test_negative_indices(self):
        mesh = vx.parse_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -1 -2 -3\n")
        np.testing.assert_array_equal(mesh.triangles, [[2, 1, 0]])

    def test_slash_syntax_and_ignored_lines(self):
        text = (
            "# comment\nmtllib foo.mtl\no thing\n"
            "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
            "vt 0 0\nvn 0 0 1\ns off\n"
            "f 1/1/1 2/1/1 3/1/1\n"
        )
        mesh = vx.parse_obj(text)
        assert len(mesh.triangles) == 1

    def test_non_numeric_vertex(self):
        with pytest.raises(DataError, match="line 1: non-numeric vertex"):
            vx.parse_obj("v a b c\n")

    def test_face_index_out_of_range(self):
        with pytest.raises(DataError, match="face references vertex 4 but only 3 exist"):
            vx.parse_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\n")

    def test_zero_index_rejected(self):
        with pytest.raises(DataError, match="line 4: OBJ indices are 1-based"):
            vx.parse_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n")

    def test_no_faces_rejected(self):
        with pytest.raises(DataError, match="OBJ contains no \\(non-degenerate\\) faces"):
            vx.parse_obj("v 0 0 0\nv 1 0 0\n")

    def test_non_finite_vertex_names_its_line(self):
        for token in ("nan", "inf", "-inf", "NaN"):
            text = f"v 0 0 0\nv 1 0 0\nv 0 {token} 0\nv 0 0 1\nf 1 2 3\nf 1 2 4\n"
            with pytest.raises(DataError, match="line 3: non-finite vertex"):
                vx.parse_obj(text)

    def test_degenerate_faces_skipped(self):
        with pytest.raises(DataError, match="OBJ contains no \\(non-degenerate\\) faces"):
            vx.parse_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 1 2\n")


# the mesh consumers: the voxelizer, normalization and a sample's mesh
# raycaster (which runs before its label)
MESH_CONSUMERS = {
    "voxelize": lambda mesh: vx.voxelize(mesh, 8),
    "normalize_mesh": vx.normalize_mesh,
    "generate_sample": lambda mesh: sim.generate_sample(
        sim.Scene(mesh=mesh), sim.TrajectoryConfig(duration=0.01),
        sim.CameraIntrinsics(width=8, height=8), resolution=8,
    ),
}


class TestTriMesh:
    # 99 lies past the cube's 8 vertices; -2 would wrap around to vertex 6
    @pytest.mark.parametrize("bad", [99, -2])
    @pytest.mark.parametrize("consumer", MESH_CONSUMERS)
    def test_out_of_range_index_never_reaches_a_consumer(self, bad, consumer):
        cube = vx.unit_cube_mesh()
        tris = cube.triangles.copy()
        tris[4] = [0, 1, bad]
        with pytest.raises(DataError, match=f"references vertex {bad} but only 8 exist"):
            MESH_CONSUMERS[consumer](vx.TriMesh(cube.vertices, tris))

    @pytest.mark.parametrize(
        "tris", [np.array([[0.0, 1.0, 2.0]]), np.array([[0, 1]]), np.array([0, 1, 2])]
    )
    def test_triangles_must_be_f_by_3_integers(self, tris):
        with pytest.raises(DataError, match=r"triangles must be \(F, 3\) integers"):
            vx.TriMesh(vx.unit_cube_mesh().vertices, tris)

    # 2 coordinates per vertex, a flat array, complex and boolean values
    @pytest.mark.parametrize("verts", [
        lambda v: v[:, :2], lambda v: v.ravel(), lambda v: v.astype(complex),
        lambda v: v.astype(bool),
    ])
    @pytest.mark.parametrize("consumer", MESH_CONSUMERS)
    def test_vertices_must_be_v_by_3_reals(self, verts, consumer):
        cube = vx.unit_cube_mesh()
        with pytest.raises(DataError, match=r"vertices must be a \(V, 3\) real array"):
            MESH_CONSUMERS[consumer](vx.TriMesh(verts(cube.vertices), cube.triangles))

    def test_integer_vertices_are_real(self):
        cube = vx.unit_cube_mesh()
        mesh = vx.TriMesh(cube.vertices.astype(np.int64), cube.triangles)
        assert vx.voxelize(mesh, 4).count() == 4 ** 3

    @pytest.mark.parametrize("n_vertices", [0, 8])
    def test_empty_mesh_reaches_the_consumers_messages(self, n_vertices):
        mesh = vx.TriMesh(vx.unit_cube_mesh().vertices[:n_vertices], np.zeros((0, 3), np.int64))
        with pytest.raises(DataError, match="cannot normalize an empty mesh"):
            vx.normalize_mesh(mesh)
        with pytest.raises(DataError, match="cannot voxelize a mesh with no triangles"):
            vx.voxelize(mesh, 8)


class TestNormalizeMesh:
    def test_unit_cube_unchanged(self):
        mesh = vx.unit_cube_mesh()
        out = vx.normalize_mesh(mesh)
        np.testing.assert_allclose(out.vertices, mesh.vertices, atol=0)

    def test_double_cube_halved(self):
        mesh = vx.unit_cube_mesh()
        big = vx.TriMesh(mesh.vertices * 2.0, mesh.triangles)
        out = vx.normalize_mesh(big)
        extent = out.vertices.max(axis=0) - out.vertices.min(axis=0)
        np.testing.assert_allclose(extent, [1, 1, 1], atol=1e-12)

    def test_random_mesh_bbox(self):
        rng = np.random.default_rng(0)
        verts = rng.normal(size=(30, 3)) * [3.0, 1.0, 0.2] + [5, -2, 1]
        tris = rng.integers(0, 30, size=(20, 3))
        tris = tris[np.array([len(set(t)) == 3 for t in tris])]
        out = vx.normalize_mesh(vx.TriMesh(verts, tris))
        lo = out.vertices.min(axis=0)
        hi = out.vertices.max(axis=0)
        assert abs((hi - lo).max() - 1.0) < 1e-9
        np.testing.assert_allclose((lo + hi) / 2, [0.5, 0.5, 0.5], atol=1e-9)
        # aspect ratio preserved
        orig_extent = verts.max(axis=0) - verts.min(axis=0)
        new_extent = hi - lo
        np.testing.assert_allclose(
            new_extent / new_extent.max(), orig_extent / orig_extent.max(), atol=1e-9
        )

    def test_non_finite_vertex_rejected(self):
        cube = vx.unit_cube_mesh()
        verts = cube.vertices.copy()
        verts[3, 1] = np.inf
        with pytest.raises(DataError, match="cannot normalize a mesh with non-finite vertices"):
            vx.normalize_mesh(vx.TriMesh(verts, cube.triangles))

    def test_degenerate_rejected(self):
        verts = np.zeros((4, 3))
        tris = np.array([[0, 1, 2]])
        with pytest.raises(DataError, match="zero extent on every axis"):
            vx.normalize_mesh(vx.TriMesh(verts, tris))


def sample_triangles_loop(vertices, triangles, spacing):
    """One barycentric lattice per triangle, the whole sample as one (P, 3)
    array: the oracle for the chunked sampler in ``voxel._surface_cells``."""
    chunks = []
    a = vertices[triangles[:, 0]]
    b = vertices[triangles[:, 1]]
    c = vertices[triangles[:, 2]]
    nb = np.ceil(np.linalg.norm(b - a, axis=1) / spacing).astype(int)
    nc = np.ceil(np.linalg.norm(c - a, axis=1) / spacing).astype(int)
    steps = np.maximum(np.maximum(nb, nc), 1)
    for t in range(len(triangles)):
        n = int(steps[t])
        i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
        keep = (i + j) <= n
        u = (i[keep] / n)[:, None]
        v = (j[keep] / n)[:, None]
        chunks.append(a[t] + u * (b[t] - a[t]) + v * (c[t] - a[t]))
    return np.concatenate(chunks, axis=0)


def surface_cells_from_points(pts, resolution):
    """The cells of a whole point array, marked at once."""
    idx = np.clip(np.floor(pts * resolution).astype(np.int64), 0, resolution - 1)
    occ = np.zeros((resolution,) * 3, dtype=bool)
    occ[idx[:, 0], idx[:, 1], idx[:, 2]] = True
    return occ


def fill_exterior_isin(surface):
    """The exterior fill as a concatenate + unique + isin over the labels on
    the grid's faces: the oracle for the lookup table in
    ``voxel._fill_exterior``."""
    structure = ndimage.generate_binary_structure(3, 1)
    labels, _ = ndimage.label(~surface, structure=structure)
    boundary_labels = np.unique(
        np.concatenate(
            [
                labels[0].ravel(), labels[-1].ravel(),
                labels[:, 0].ravel(), labels[:, -1].ravel(),
                labels[:, :, 0].ravel(), labels[:, :, -1].ravel(),
            ]
        )
    )
    return ~np.isin(labels, boundary_labels[boundary_labels != 0])


# runs in a fresh interpreter; VmHWM is the peak RSS of its own address
# space (ru_maxrss would carry over the launching process's peak)
VOXELIZE_PEAK_SCRIPT = """
import sys
from ev2vox import voxel as vx

def status_bytes(key):
    with open("/proc/self/status") as fh:
        line = next(line for line in fh if line.startswith(key + ":"))
    return int(line.split()[1]) * 1024

mesh = vx.uv_sphere_mesh(n_lat=int(sys.argv[1]), n_lon=int(sys.argv[2]))
before = status_bytes("VmRSS")
vx.voxelize(mesh, 32)
print(len(mesh.triangles), status_bytes("VmHWM") - before)
"""


def voxelize_peak_rise(n_lat, n_lon):
    """Triangle count and peak RSS rise of one voxelize at R=32, measured
    in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(vx.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", VOXELIZE_PEAK_SCRIPT, str(n_lat), str(n_lon)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return tuple(int(v) for v in out.split())


class TestVoxelize:
    @staticmethod
    def sliver_mesh():
        """A coarse sphere plus a long sliver and, last, a degenerate
        triangle (one point): lattices of many sizes, one of them large."""
        sphere = vx.uv_sphere_mesh(n_lat=6, n_lon=9)
        n = len(sphere.vertices)
        extra = np.array([[0.1, 0.2, 0.3], [0.9, 0.15, 0.4], [0.12, 0.8, 0.35]])
        return vx.TriMesh(
            np.concatenate([sphere.vertices, extra]),
            np.concatenate([sphere.triangles, [[n, n + 1, n + 2], [n, n, n]]]),
        )

    @pytest.mark.parametrize("resolution", [20, 45])
    def test_surface_cells_match_per_triangle_loop(self, resolution, monkeypatch):
        mesh = self.sliver_mesh()
        spacing = math.sqrt(3.0) / (4.0 * resolution)
        e = mesh.vertices[mesh.triangles] - mesh.vertices[mesh.triangles[:, :1]]
        steps = np.maximum(np.ceil(np.linalg.norm(e, axis=2).max(axis=1) / spacing), 1)
        assert steps[-1] == 1 and len(np.unique(steps)) > 3
        want = surface_cells_from_points(
            sample_triangles_loop(mesh.vertices, mesh.triangles, spacing), resolution
        )
        np.testing.assert_array_equal(vx._surface_cells(mesh, resolution), want)
        # a chunk smaller than one triangle's lattice splits the lattice, with
        # a partial last run, while the degenerate triangle's 3 points fit
        lattice = (steps + 1) * (steps + 2) // 2
        chunk = 50
        assert lattice.min() < chunk < lattice.max() and lattice.max() % chunk
        monkeypatch.setattr(vx, "SURFACE_CHUNK", chunk)
        np.testing.assert_array_equal(vx._surface_cells(mesh, resolution), want)

    def test_fill_exterior_matches_isin_form(self):
        # the fill inverts its input in place, so each call gets a copy; it
        # is compared on every cell and on a strided selection like the
        # cell centers voxelize keeps
        every, strided = ..., (slice(1, None, 3),) * 3
        rng = np.random.default_rng(13)
        for density in (0.2, 0.35, 0.5, 0.65):
            surface = rng.uniform(size=(14, 14, 14)) < density
            # a closed shell with a hollow inside, so every grid has a cavity
            surface[3:9, 3:9, 3:9] = True
            surface[4:8, 4:8, 4:8] = False
            want = fill_exterior_isin(surface)
            got = vx._fill_exterior(surface.copy(), every)
            np.testing.assert_array_equal(got, want)
            assert got[5, 5, 5]
            np.testing.assert_array_equal(vx._fill_exterior(surface.copy(), strided), want[strided])
        for surface in (np.zeros((6, 6, 6), bool), np.ones((6, 6, 6), bool)):
            for keep in (every, strided):
                np.testing.assert_array_equal(vx._fill_exterior(surface.copy(), keep),
                                              fill_exterior_isin(surface)[keep])
        assert not vx._fill_exterior(np.zeros((6, 6, 6), bool), every).any()
        assert vx._fill_exterior(np.ones((6, 6, 6), bool), every).all()

    @staticmethod
    def fill_and_count_passes(surface, monkeypatch):
        """The fill of every cell, checked against the labelling oracle at
        every cell and at a strided selection, and its number of passes."""
        want = fill_exterior_isin(surface)
        strided = (slice(1, None, 3),) * 3
        np.testing.assert_array_equal(vx._fill_exterior(surface.copy(), strided), want[strided])
        passes = []
        spread = vx._spread
        monkeypatch.setattr(vx, "_spread", lambda *a: passes.append(a) or spread(*a))
        got = vx._fill_exterior(surface.copy(), ...)
        np.testing.assert_array_equal(got, want)
        return got, len(passes)

    def test_fill_follows_a_winding_corridor(self, monkeypatch):
        # a solid block with a corridor that enters at the x = 0 face, spirals
        # inwards across the contiguous axis, one run per cell, and ends in a
        # 3x3x3 chamber: every step is a pass, and the chamber is exterior
        surface = np.ones((14, 14, 9), dtype=bool)
        path = [(0, 1), (12, 1), (12, 12), (1, 12), (1, 3), (10, 3), (10, 10), (5, 10), (5, 8)]
        for (x0, y0), (x1, y1) in zip(path, path[1:]):
            surface[min(x0, x1):max(x0, x1) + 1, min(y0, y1):max(y0, y1) + 1, 4] = False
        surface[4:7, 5:8, 3:6] = False
        filled, passes = self.fill_and_count_passes(surface, monkeypatch)
        assert not filled[4:7, 5:8, 3:6].any()
        assert passes > 2
        # sealing the corridor's mouth turns corridor and chamber into a cavity
        surface[0, 1, 4] = True
        filled, _ = self.fill_and_count_passes(surface, monkeypatch)
        assert filled.all()

    def test_sealed_cavity_fills(self, monkeypatch):
        surface = np.zeros((12, 12, 12), dtype=bool)
        surface[2:10, 2:10, 2:10] = True
        surface[3:9, 3:9, 3:9] = False
        filled, _ = self.fill_and_count_passes(surface, monkeypatch)
        np.testing.assert_array_equal(filled, surface | np.pad(np.ones((6, 6, 6), bool), 3))

    @pytest.mark.parametrize("open_outer", [False, True])
    def test_nested_shells(self, monkeypatch, open_outer):
        # two hollow shells, one inside the other; with a hole in the outer
        # shell the gap between them is exterior and only the inner hollow fills
        surface = np.zeros((14, 14, 14), dtype=bool)
        for lo, hi in ((1, 13), (4, 10)):
            surface[lo:hi, lo:hi, lo:hi] = True
            surface[lo + 1:hi - 1, lo + 1:hi - 1, lo + 1:hi - 1] = False
        if open_outer:
            surface[1, 6, 6] = False
        filled, _ = self.fill_and_count_passes(surface, monkeypatch)
        assert filled[4:10, 4:10, 4:10].all()
        assert filled[2, 2, 2] != open_outer

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="needs /proc/self/status for the peak resident set size")
    def test_peak_memory_does_not_grow_with_triangles(self):
        # At R=32 voxelize works on a 160^3 fine grid: the surface, its lines
        # padded for the run search and their change mask are 3.9 MiB each,
        # 13.6 MiB of peak rise as measured (15.4 MiB at 4x the triangles);
        # the surface samples add at most a 1.1 MiB chunk. Holding the
        # 9,024-triangle sphere's 1.28M samples as one point cloud raised the
        # peak by 93 MiB, and by 125 MiB at 4x the triangles, so 40 MiB and a
        # growth of 4 MiB leave room for allocator noise and catch any
        # sample-sized array.
        tris, rise = voxelize_peak_rise(48, 96)
        tris4, rise4 = voxelize_peak_rise(96, 192)
        assert tris4 >= 4 * tris
        assert rise < 40 * 2**20
        assert rise4 - rise < 4 * 2**20

    def test_non_finite_vertex_rejected(self):
        cube = vx.unit_cube_mesh()
        for bad in (np.nan, np.inf, -np.inf):
            verts = cube.vertices.copy()
            verts[5, 2] = bad
            with pytest.raises(DataError, match="non-finite vertices: vertex index 5"):
                vx.voxelize(vx.TriMesh(verts, cube.triangles), 8)

    def test_sphere_vox1_bytes_pinned(self, tmp_path):
        path = tmp_path / "sphere.vox"
        vx.write_vox1(vx.voxelize(vx.uv_sphere_mesh(), 32), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "d00885c83019c99e817e32e6a6f0e0a06536763ff4548477f3a90448ac34fa60"

    def test_unit_cube_fills_grid(self):
        grid = vx.voxelize(vx.unit_cube_mesh(), 4)
        assert grid.count() == 64

    def test_tiny_triangle_single_cell_no_fill(self):
        # entirely inside cell (2, 1, 3) of an 8-grid
        base = np.array([2.5, 1.5, 3.5]) / 8.0
        verts = base + np.array([[0, 0, 0], [0.01, 0, 0], [0, 0.01, 0]])
        mesh = vx.TriMesh(verts, np.array([[0, 1, 2]]))
        grid = vx.voxelize(mesh, 8)
        assert grid.count() == 1
        assert grid.occupancy[2, 1, 3]

    def test_sphere_volume_within_tolerance(self):
        grid = vx.voxelize(vx.uv_sphere_mesh(), 32)
        analytic = math.pi / 6.0 * 32**3
        assert abs(grid.count() - analytic) / analytic < 0.05

    def test_filled_convex_solid_is_six_connected(self):
        grid = vx.voxelize(vx.uv_sphere_mesh(), 16)
        structure = ndimage.generate_binary_structure(3, 1)
        _, parts = ndimage.label(grid.occupancy, structure=structure)
        assert parts == 1
        # and no interior holes: empty space forms a single exterior part
        _, holes = ndimage.label(~grid.occupancy, structure=structure)
        assert holes == 1

    def test_resolution_zero_rejected(self):
        with pytest.raises(ConfigError, match="voxelize needs a positive resolution, got 0"):
            vx.voxelize(vx.unit_cube_mesh(), 0)


class TestBinarize:
    def test_all_above(self):
        assert vx.binarize(np.full((4, 4, 4), 0.9), 0.3).count() == 64

    def test_strict_inequality_at_threshold(self):
        assert vx.binarize(np.full((2, 2, 2), 0.3), 0.3).count() == 0

    def test_matches_per_cell_loop(self):
        rng = np.random.default_rng(1)
        g = random_probs(rng)
        out = vx.binarize(g, 0.3)
        for i in range(8):
            for j in range(8):
                for k in range(8):
                    assert out.occupancy[i, j, k] == (g[i, j, k] > 0.3)

    def test_threshold_domain(self):
        g = np.zeros((2, 2, 2))
        for t in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ConfigError, match=r"threshold must lie in \(0, 1\)"):
                vx.binarize(g, t)


class TestIoU:
    def test_perfect_match(self):
        rng = np.random.default_rng(2)
        gt = random_voxel_grid(rng)
        pred = vx.binarize(gt.occupancy.astype(float) * 0.9 + 0.05, 0.3)
        assert vx.iou(pred, gt) == 1.0

    def test_disjoint_single_cells(self):
        gt = vx.VoxelGrid.empty(4)
        gt.occupancy[0, 0, 0] = True
        vals = np.zeros((4, 4, 4))
        vals[3, 3, 3] = 1.0
        assert vx.iou(vx.binarize(vals, 0.3), gt) == 0.0

    def test_half_overlap(self):
        gt = vx.VoxelGrid.empty(4)
        gt.occupancy[0, 0, 0] = True
        vals = np.zeros((4, 4, 4))
        vals[0, 0, 0] = 1.0
        vals[1, 0, 0] = 1.0
        assert vx.iou(vx.binarize(vals, 0.3), gt) == pytest.approx(0.5)

    def test_empty_vs_empty_is_one(self):
        gt = vx.VoxelGrid.empty(4)
        pred = vx.binarize(np.zeros((4, 4, 4)), 0.3)
        assert vx.iou(pred, gt) == 1.0

    def test_empty_vs_nonempty_is_zero(self):
        gt = vx.VoxelGrid.empty(4)
        gt.occupancy[1, 1, 1] = True
        pred = vx.binarize(np.zeros((4, 4, 4)), 0.3)
        assert vx.iou(pred, gt) == 0.0

    def test_symmetry_and_self(self):
        rng = np.random.default_rng(3)
        a = random_voxel_grid(rng)
        b = random_voxel_grid(rng)
        assert vx.iou(a, b) == vx.iou(b, a)
        assert vx.iou(a, a) == 1.0

    def test_resolution_mismatch(self):
        with pytest.raises(DataError, match="prediction R=4 vs ground truth R=8"):
            vx.iou(vx.VoxelGrid.empty(4), vx.VoxelGrid.empty(8))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            probs = random_probs(rng)
            gt = random_voxel_grid(rng, density=rng.uniform(0, 0.8))
            got = vx.iou(vx.binarize(probs, 0.3), gt)
            want = brute_force_iou(probs, gt.occupancy, 0.3)
            assert got == pytest.approx(want, abs=1e-12)


def one_cell(r, *cell):
    g = vx.VoxelGrid.empty(r)
    g.occupancy[cell] = True
    return g


class TestFScore:
    def test_identical_sets(self):
        g = random_voxel_grid(np.random.default_rng(7))
        assert vx.fscore(g, g, 0.2) == 1.0
        assert vx.fscore(g, g, 1e-9) == 1.0

    def test_hand_computed_pair(self):
        # three cells apart along x: 3/8 = 0.375
        a, b = one_cell(8, 0, 4, 4), one_cell(8, 3, 4, 4)
        assert vx.fscore(a, b, 0.2) == 0.0
        assert vx.fscore(a, b, 0.4) == 1.0

    def test_strict_inequality(self):
        # two cells apart along x and y: sqrt(8)/8 exactly, as numpy rounds it
        a, b = one_cell(8, 1, 1, 4), one_cell(8, 3, 3, 4)
        at = float(np.sqrt(8.0) / 8)
        assert vx.fscore(a, b, at) == 0.0
        assert vx.fscore(a, b, math.nextafter(at, 1.0)) == 1.0

    def test_empty_conventions(self):
        e = vx.VoxelGrid.empty(4)
        p = one_cell(4, 2, 2, 2)
        assert vx.fscore(e, e, 0.2) == 1.0
        assert vx.fscore(e, p, 0.2) == 0.0
        assert vx.fscore(p, e, 0.2) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        a, b = random_voxel_grid(rng, density=0.1), random_voxel_grid(rng, density=0.3)
        assert vx.fscore(a, b, 0.2) == vx.fscore(b, a, 0.2)

    def test_monotone_in_distance(self):
        rng = np.random.default_rng(9)
        a, b = random_voxel_grid(rng, density=0.05), random_voxel_grid(rng, density=0.05)
        scores = [vx.fscore(a, b, d) for d in (0.05, 0.1, 0.2, 0.4, 0.8)]
        assert all(s1 <= s2 for s1, s2 in zip(scores, scores[1:]))

    def test_non_positive_distance(self):
        g = one_cell(4, 0, 0, 0)
        with pytest.raises(ConfigError, match="distance tolerance must be positive"):
            vx.fscore(g, g, 0.0)

    def test_rejects_resolution_mismatch(self):
        with pytest.raises(DataError, match="prediction R=4 vs ground truth R=8"):
            vx.fscore(vx.VoxelGrid.empty(4), vx.VoxelGrid.empty(8), 0.2)

    def test_matches_brute_force(self):
        # bit for bit, at power-of-two R and others; 1/R and sqrt(2)/R are
        # ties at every R, and so is 0.2 at R=30 (6 cells), each decided by
        # the cell offset alone
        for r in (8, 12, 30, 32):
            for a, b, d in fscore_cases(r, seed=r):
                for dist in (1 / r, math.sqrt(2) / r, 0.2, d):
                    got = vx.fscore(a, b, dist)
                    assert got == brute_force_fscore(a, b, dist), (r, dist)

    @pytest.mark.parametrize("r", [1, 2, 3, 5, 8, 30, 32])
    def test_matches_distance_transform(self, r):
        # bit for bit, on random, empty and full grids; the distances are the
        # ties 1/R and sqrt(2)/R, 0.2 (a tie at R=30), one below every cell
        # offset, and two beyond the grid's diagonal
        rng = np.random.default_rng(300 + r)
        grids = [random_voxel_grid(rng, r, density) for density in (0.02, 0.1, 0.4)]
        grids += [vx.VoxelGrid.empty(r), vx.VoxelGrid(r, np.ones((r,) * 3, bool))]
        for a in grids:
            for b in grids:
                for dist in (1 / r, math.sqrt(2) / r, 0.2, 0.5 / r, math.sqrt(3), 2.0):
                    assert vx.fscore(a, b, dist) == edt_fscore(a, b, dist), (r, dist)

    @pytest.mark.parametrize("r", [8, 32])
    def test_matches_kdtree_at_power_of_two_resolution(self, r):
        # every difference of cell centers is exact, so the KD-tree's
        # distances are the transform's bit for bit, ties included
        rng = np.random.default_rng(100 + r)
        cases = list(fscore_cases(r, seed=200 + r)) + [
            (random_voxel_grid(rng, r, 0.3), random_voxel_grid(rng, r, 0.1), 0.2)]
        for a, b, d in cases:
            for dist in (1 / r, math.sqrt(2) / r, 0.2, d):
                assert vx.fscore(a, b, dist) == kdtree_fscore(a, b, dist), (r, dist)


IMPORT_WEIGHT_SCRIPT = """
import importlib, sys
importlib.import_module(sys.argv[1])
print(" ".join(m for m in ("scipy.spatial", "scipy.sparse") if m in sys.modules))
"""


# the mesh data path: a label voxelized and scored, with nothing from nn
DATA_PATH_SCRIPT = """
import sys
from ev2vox import events, sim, voxel as vx
grid = vx.voxelize(vx.unit_cube_mesh(), 8)
assert grid.count() == 8 ** 3 and vx.fscore(grid, grid, 0.2) == 1.0
print(" ".join(m for m in sys.modules if m.startswith("scipy")))
"""


def test_data_path_loads_no_scipy():
    # the voxelizer and F-Score compute their fill and distances in numpy,
    # so a process that simulates, bins and voxelizes never imports scipy
    # (scipy.ndimage alone is about 0.2 s and 27 MiB of RSS at start-up)
    src = os.path.dirname(os.path.dirname(vx.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", DATA_PATH_SCRIPT], env=env,
                         capture_output=True, text=True, check=True, timeout=120).stdout
    assert out.split() == []


@pytest.mark.parametrize("module", ["ev2vox.cli", "ev2vox.sim"])
def test_import_loads_no_kdtree(module):
    # F-Score reads a distance transform, so no process needs scipy.spatial
    # (and the scipy.sparse it pulls in), about 12 MiB of RSS at start-up
    src = os.path.dirname(os.path.dirname(vx.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", IMPORT_WEIGHT_SCRIPT, module], env=env,
                         capture_output=True, text=True, check=True, timeout=120).stdout
    assert out.split() == []


class TestVox1Format:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        g = random_voxel_grid(rng, r=9)
        path = tmp_path / "g.vox1"
        vx.write_vox1(g, path)
        r = vx.read_vox1(path)
        assert r.resolution == 9
        np.testing.assert_array_equal(r.occupancy, g.occupancy)

    def test_bit_order_x_fastest(self, tmp_path):
        g = vx.VoxelGrid.empty(4)
        g.occupancy[1, 0, 0] = True  # second bit in x-fastest order
        path = tmp_path / "b.vox1"
        vx.write_vox1(g, path)
        blob = path.read_bytes()
        assert blob[:8] == b"E2VVOX1\x00"
        assert np.frombuffer(blob, "<u2", 1, offset=8)[0] == 4
        assert blob[10] == 0b00000010

    def test_payload_size(self, tmp_path):
        g = vx.VoxelGrid.empty(32)
        path = tmp_path / "s.vox1"
        vx.write_vox1(g, path)
        assert path.stat().st_size == 8 + 2 + 32**3 // 8

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.vox1"
        path.write_bytes(b"XXXXXXXX" + b"\x00" * 10)
        with pytest.raises(FormatError):
            vx.read_vox1(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        g = vx.VoxelGrid.empty(4)
        path = tmp_path / "t.vox1"
        vx.write_vox1(g, path)
        path.write_bytes(path.read_bytes() + b"\x01")
        with pytest.raises(FormatError):
            vx.read_vox1(path)

    def test_write_determinism(self, tmp_path):
        rng = np.random.default_rng(12)
        g = random_voxel_grid(rng, r=16)
        p1, p2 = tmp_path / "1.vox1", tmp_path / "2.vox1"
        vx.write_vox1(g, p1)
        vx.write_vox1(g, p2)
        assert p1.read_bytes() == p2.read_bytes()
