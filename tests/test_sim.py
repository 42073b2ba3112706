"""Tests for the orbit trajectory, raycast renderer, and event synthesis."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ev2vox import cli, sim
from ev2vox.errors import ConfigError, DataError, InternalError
from ev2vox.events import validate_stream
from ev2vox.voxel import TriMesh, uv_sphere_mesh


class TestTrajectoryConfig:
    def test_defaults(self):
        cfg = sim.TrajectoryConfig()
        assert cfg.duration == 0.5 and cfg.fps == 240
        assert (sim.Z_START, sim.Z_END) == (2.0, -2.0)
        assert (sim.R_MIN, sim.R_MAX) == (4.0, 6.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration": 0.0},
            {"fps": -1.0},
            {"duration": -0.5},
            {"fps": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            sim.TrajectoryConfig(**kwargs)


class TestCameraPose:
    def test_start_middle_end_positions(self):
        cfg = sim.TrajectoryConfig()
        p0 = sim.camera_pose(cfg, 0.0)
        np.testing.assert_allclose(p0.position, [4.0, 0.0, 2.0], atol=1e-12)
        ph = sim.camera_pose(cfg, cfg.duration / 2)
        assert abs(ph.position[2]) < 1e-12
        assert abs(np.hypot(ph.position[0], ph.position[1]) - 6.0) < 1e-12
        pT = sim.camera_pose(cfg, cfg.duration)
        np.testing.assert_allclose(pT.position, [4.0, 0.0, -2.0], atol=1e-12)

    def test_out_of_range_times(self):
        cfg = sim.TrajectoryConfig()
        with pytest.raises(InternalError, match=r"outside \[0, "):
            sim.camera_pose(cfg, -0.01)
        with pytest.raises(InternalError, match=r"outside \[0, "):
            sim.camera_pose(cfg, cfg.duration + 0.01)

    @pytest.mark.parametrize("frac", [0.0, 0.13, 0.5, 0.77, 1.0])
    def test_frame_orthonormal_and_aimed(self, frac):
        cfg = sim.TrajectoryConfig()
        pose = sim.camera_pose(cfg, frac * cfg.duration)
        basis = np.stack([pose.right, pose.up, pose.forward])
        np.testing.assert_allclose(basis @ basis.T, np.eye(3), atol=1e-9)
        to_origin = -pose.position / np.linalg.norm(pose.position)
        np.testing.assert_allclose(pose.forward, to_origin, atol=1e-12)

    def test_radius_profile_is_piecewise_linear_in_z(self):
        cfg = sim.TrajectoryConfig()
        for frac in (0.25, 0.6, 0.9):
            pose = sim.camera_pose(cfg, frac * cfg.duration)
            z = pose.position[2]
            r = np.hypot(pose.position[0], pose.position[1])
            assert abs(r - (4.0 + 2.0 * (1.0 - abs(z) / 2.0))) < 1e-12

    def test_zaxis_position_rejected(self):
        with pytest.raises(ConfigError):
            sim.look_at_pose([0.0, 0.0, 3.0])


class TestIntrinsics:
    def test_pixel_focal(self):
        cam = sim.CameraIntrinsics()
        assert cam.f_pix == pytest.approx(80.0 / 36.0 * 64)
        big = sim.CameraIntrinsics(width=512, height=512)
        assert big.f_pix == pytest.approx(80.0 / 36.0 * 512)

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            sim.CameraIntrinsics(width=0)
        with pytest.raises(ConfigError):
            sim.CameraIntrinsics(height=-1)


def center_sphere_scene(radius=0.5, albedo=0.9):
    return sim.Scene(primitives=[sim.Sphere((0.0, 0.0, 0.0), radius, albedo)])


class TestRenderFrame:
    def test_empty_scene_is_white(self):
        img = sim.render_frame(sim.Scene(), sim.look_at_pose([4, 0, 0]), sim.CameraIntrinsics())
        assert img.shape == (64, 64)
        assert np.all(img == 1.0)

    def test_center_ray_hit_distance_closed_form(self):
        # camera 4 m out on +x, unit-diameter sphere at the origin: the
        # axial ray solves t^2 - 8t + (16 - 0.25) = 0, nearest root 3.5
        o = np.array([4.0, 0.0, 0.0])
        d = np.array([[-1.0, 0.0, 0.0]])
        t, _ = sim.Sphere((0.0, 0.0, 0.0), 0.5).hit(o, d)
        assert t[0] == pytest.approx(4.0 - 0.5, abs=1e-12)

    def test_center_pixel_shading_closed_form(self):
        # odd resolution puts one pixel exactly on the optical axis; its
        # hit point is (0.5, 0, 0) with normal +x, so only the oblique
        # light contributes
        cam = sim.CameraIntrinsics(width=65, height=65)
        img = sim.render_frame(center_sphere_scene(), sim.look_at_pose([4.0, 0.0, 0.0]), cam)
        normal = np.array([1.0, 0.0, 0.0])
        expect = 0.0
        for direction, weight in sim._LIGHTS:
            expect += weight * max(0.0, float(normal @ direction))
        expect *= 0.9
        assert img[32, 32] == pytest.approx(expect, rel=1e-6)

    def test_corner_pixel_misses(self):
        img = sim.render_frame(
            center_sphere_scene(), sim.look_at_pose([4.0, 0.0, 0.0]), sim.CameraIntrinsics()
        )
        assert img[0, 0] == 1.0 and img[-1, -1] == 1.0
        assert img[32, 32] < 1.0

    def test_mirrored_scene_and_pose_mirror_the_image(self):
        cam = sim.CameraIntrinsics()
        scene = sim.Scene(primitives=[
            sim.Sphere((0.1, 0.2, -0.1), 0.3),
            sim.Box((-0.2, -0.1, 0.2), (0.1, 0.15, 0.1)),
            sim.Cylinder((0.2, -0.25, 0.0), 2, 0.1, 0.2),
        ])
        mirrored = sim.Scene(primitives=[
            sim.Sphere((0.1, -0.2, -0.1), 0.3),
            sim.Box((-0.2, 0.1, 0.2), (0.1, 0.15, 0.1)),
            sim.Cylinder((0.2, 0.25, 0.0), 2, 0.1, 0.2),
        ])
        a = sim.render_frame(scene, sim.look_at_pose([3.5, 1.2, 1.0]), cam)
        b = sim.render_frame(mirrored, sim.look_at_pose([3.5, -1.2, 1.0]), cam)
        np.testing.assert_array_equal(b, np.fliplr(a))

    def test_static_render_deterministic(self):
        scene = center_sphere_scene()
        pose = sim.camera_pose(sim.TrajectoryConfig(), 0.1)
        cam = sim.CameraIntrinsics()
        np.testing.assert_array_equal(
            sim.render_frame(scene, pose, cam), sim.render_frame(scene, pose, cam)
        )

    def test_box_face_shading(self):
        # +x face of a box seen head-on: normal (1,0,0), same closed-form
        # shading as the sphere's axial pixel
        cam = sim.CameraIntrinsics(width=65, height=65)
        scene = sim.Scene(primitives=[sim.Box((0, 0, 0), (0.3, 0.3, 0.3), albedo=0.8)])
        img = sim.render_frame(scene, sim.look_at_pose([4.0, 0.0, 0.0]), cam)
        expect = 0.8 * sum(w * max(0.0, d[0]) for d, w in sim._LIGHTS)
        assert img[32, 32] == pytest.approx(expect, rel=1e-9)

    def test_cylinder_profile(self):
        # z-axis cylinder seen from +x: silhouette is a rectangle; above
        # and below it the rays miss
        cam = sim.CameraIntrinsics()
        scene = sim.Scene(primitives=[sim.Cylinder((0, 0, 0), 2, 0.25, 0.25)])
        img = sim.render_frame(scene, sim.look_at_pose([4.0, 0.0, 0.0]), cam)
        assert img[32, 32] < 1.0
        assert img[1, 32] == 1.0 and img[-2, 32] == 1.0

    def test_nearest_primitive_wins(self):
        # a small near sphere in front of a big far sphere: the center
        # pixel must shade the near one (its normal faces +x, the far
        # sphere is hidden)
        cam = sim.CameraIntrinsics(width=65, height=65)
        near = sim.Sphere((0.3, 0.0, 0.0), 0.05, albedo=0.5)
        far = sim.Sphere((-0.2, 0.0, 0.0), 0.2, albedo=0.9)
        img_near_listed_first = sim.render_frame(
            sim.Scene(primitives=[near, far]), sim.look_at_pose([4.0, 0.0, 0.0]), cam
        )
        img_far_listed_first = sim.render_frame(
            sim.Scene(primitives=[far, near]), sim.look_at_pose([4.0, 0.0, 0.0]), cam
        )
        np.testing.assert_array_equal(img_near_listed_first, img_far_listed_first)
        expect = 0.5 * sum(w * max(0.0, d[0]) for d, w in sim._LIGHTS)
        assert img_near_listed_first[32, 32] == pytest.approx(expect, rel=1e-6)

    def test_mesh_matches_analytic_sphere_silhouette(self):
        cam = sim.CameraIntrinsics()
        pose = sim.look_at_pose([4.0, 0.0, 0.0])
        mesh_img = sim.render_frame(
            sim.Scene(mesh=uv_sphere_mesh(n_lat=24, n_lon=48)), pose, cam
        )
        sphere_img = sim.render_frame(center_sphere_scene(), pose, cam)
        agree = (mesh_img < 1.0) == (sphere_img < 1.0)
        assert agree.mean() > 0.98


def rotated_sphere(seed, **kwargs):
    """``uv_sphere_mesh`` turned by a seeded uniformly random rotation."""
    mesh = uv_sphere_mesh(**kwargs)
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return TriMesh((mesh.vertices - 0.5) @ q.T + 0.5, mesh.triangles)


# triangles tested against all rays at once by the oracle
TRIANGLE_CHUNK = 512


def _triangle_hits(o, d, vertices, triangles):
    """Nearest triangle intersection per ray (Moller-Trumbore), plus the
    index of the winning triangle; inf / -1 where missed."""
    n = d.shape[0]
    best_t = np.full(n, np.inf)
    best_tri = np.full(n, -1, dtype=np.int64)
    eps = 1e-12
    rows = np.arange(n)
    for lo in range(0, len(triangles), TRIANGLE_CHUNK):
        tri = triangles[lo:lo + TRIANGLE_CHUNK]
        a = vertices[tri[:, 0]]
        e1 = vertices[tri[:, 1]] - a
        e2 = vertices[tri[:, 2]] - a
        # the ray origin is shared, so s and q depend on the triangle only
        s = o[None, :] - a
        q = np.cross(s, e1)
        p = np.cross(d[:, None, :], e2[None, :, :])
        det = np.einsum("rtk,tk->rt", p, e1)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / det
            u = np.einsum("rtk,tk->rt", p, s) * inv
            v = (d @ q.T) * inv
            t = np.einsum("tk,tk->t", q, e2)[None, :] * inv
        good = (
            (np.abs(det) > eps)
            & (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0)
            & (t > 1e-9)
        )
        t = np.where(good, t, np.inf)
        idx = np.argmin(t, axis=1)
        tmin = t[rows, idx]
        closer = tmin < best_t
        best_t[closer] = tmin[closer]
        best_tri[closer] = lo + idx[closer]
    return best_t, best_tri


_brute_force = {}


def brute_force_hits(o, d, vertices, triangles, pose, cam):
    """Every ray against every triangle: the oracle for the tiled raycaster.
    It does not depend on how the frame is cut, so each input runs once."""
    key = hashlib.sha256(b"".join(a.tobytes() for a in (o, d, vertices, triangles))).digest()
    if key not in _brute_force:
        _brute_force[key] = _triangle_hits(o, d, vertices, triangles)
    return _brute_force[key]


def render_against_brute_force(monkeypatch, scene, pose, cam):
    """Render tiled and brute force; assert equal images and equal winning
    triangle per ray, and return the winners."""
    tiled = sim._mesh_hits
    calls = []

    def spy(*args):
        got = tiled(*args)
        calls.append((got, brute_force_hits(*args)))
        return got

    monkeypatch.setattr(sim, "_mesh_hits", spy)
    img = sim.render_frame(scene, pose, cam)
    [((got_t, got_tri), (want_t, want_tri))] = calls
    monkeypatch.setattr(sim, "_mesh_hits", lambda *args: (want_t, want_tri))
    expect = sim.render_frame(scene, pose, cam)
    monkeypatch.setattr(sim, "_mesh_hits", tiled)
    np.testing.assert_array_equal(got_tri, want_tri)
    np.testing.assert_array_equal(got_t, want_t)
    np.testing.assert_array_equal(img, expect)
    assert (want_tri >= 0).any()
    return want_tri.reshape(cam.height, cam.width)


ONE_TILE = 1


@pytest.fixture(params=[(tile, budget) for tile in (1, 2, 8)
                        for budget in (sim.BATCH_BYTES, ONE_TILE)],
                ids=lambda param: f"tile{param[0]}-{param[1]}B")
def cut(request, monkeypatch):
    """The tile side and batch budget a frame is cut by; at ONE_TILE byte
    every batch holds one tile."""
    tile, budget = request.param
    monkeypatch.setattr(sim, "TILE", tile)
    monkeypatch.setattr(sim, "BATCH_BYTES", budget)
    return tile, budget


@pytest.mark.usefixtures("cut")
class TestTiledMeshRaycaster:
    @pytest.mark.parametrize("seed, time", [(0, 0.0), (1, 0.13), (2, 0.37)])
    def test_rotated_sphere_matches_brute_force(self, monkeypatch, seed, time):
        scene = sim.Scene(mesh=rotated_sphere(seed))
        pose = sim.camera_pose(sim.TrajectoryConfig(), time)
        render_against_brute_force(monkeypatch, scene, pose, sim.CameraIntrinsics())

    def test_resolution_not_a_multiple_of_the_tile(self, monkeypatch):
        cam = sim.CameraIntrinsics(width=37, height=23)
        assert cam.width % 2 and cam.height % 2
        scene = sim.Scene(mesh=rotated_sphere(3))
        pose = sim.camera_pose(sim.TrajectoryConfig(), 0.21)
        render_against_brute_force(monkeypatch, scene, pose, cam)

    def test_wide_frame(self, monkeypatch):
        scene = sim.Scene(mesh=rotated_sphere(9, n_lat=24, n_lon=48))
        pose = sim.camera_pose(sim.TrajectoryConfig(), 0.29)
        render_against_brute_force(monkeypatch, scene, pose, sim.CameraIntrinsics(80, 48))

    def test_batch_mixes_one_candidate_and_hundreds(self, monkeypatch, cut):
        # a small dense sphere in the middle (over 100 candidates a tile at
        # every tile side) and, in the corner tile, one small triangle (one
        # candidate); at the default budget one batch holds both, so a
        # single candidate sits beside padding
        sphere = uv_sphere_mesh(diameter=0.2, n_lat=12, n_lon=14)
        n = len(sphere.vertices)
        mesh = TriMesh(
            np.concatenate([sphere.vertices,
                            [[0.5, -0.1, -0.1], [0.5, -0.02, -0.1], [0.5, -0.1, -0.02]]]),
            np.concatenate([sphere.triangles, [[n, n + 1, n + 2]]]),
        )
        kernel = sim._moller_trumbore
        widths = []

        def spy(d, terms, qe2, cand):
            widths.append((cand < len(terms) - 1).sum(axis=1))
            return kernel(d, terms, qe2, cand)

        monkeypatch.setattr(sim, "_moller_trumbore", spy)
        winners = render_against_brute_force(
            monkeypatch, sim.Scene(mesh=mesh), sim.look_at_pose([4.0, 0.0, 0.0]),
            sim.CameraIntrinsics(width=32, height=32))
        assert np.isin(winners, [len(sphere.triangles)]).any()
        if cut[1] == ONE_TILE:
            assert all(len(w) == 1 for w in widths)
            assert any(w[0] == 1 for w in widths)
        else:
            assert any(w.min() == 1 and w.max() >= 100 for w in widths)

    def test_camera_inside_the_bounding_box(self, monkeypatch):
        # the camera sits inside the sphere, so part of the mesh is behind
        # it; a floor quad under the camera runs from behind it into view
        sphere = rotated_sphere(4, n_lat=24, n_lon=48)
        floor = np.array([[-1.0, -1.0, -0.05], [1.0, -1.0, -0.05],
                          [1.0, 1.0, -0.05], [-1.0, 1.0, -0.05]]) + 0.5
        n = len(sphere.vertices)
        mesh = TriMesh(
            np.concatenate([sphere.vertices, floor]),
            np.concatenate([sphere.triangles, [[n, n + 1, n + 2], [n, n + 2, n + 3]]]),
        )
        pose = sim.look_at_pose([0.3, 0.1, 0.0])
        depth = (mesh.vertices - 0.5 - pose.position) @ pose.forward
        assert (depth <= 1e-6).any() and (depth > 1e-6).any()
        winners = render_against_brute_force(
            monkeypatch, sim.Scene(mesh=mesh), pose, sim.CameraIntrinsics(width=32, height=32)
        )
        floor_tris = len(sphere.triangles) + np.arange(2)
        assert np.isin(winners, floor_tris).any()

    def test_repeated_triangle_lowest_index_wins(self, monkeypatch):
        sphere = rotated_sphere(5, n_lat=24, n_lon=48)
        n = len(sphere.triangles)
        repeated = np.arange(0, n, 3)
        mesh = TriMesh(sphere.vertices,
                       np.concatenate([sphere.triangles, sphere.triangles[repeated]]))
        pose = sim.camera_pose(sim.TrajectoryConfig(), 0.05)
        winners = render_against_brute_force(
            monkeypatch, sim.Scene(mesh=mesh), pose, sim.CameraIntrinsics(width=32, height=32)
        )
        assert winners.max() < n
        assert np.isin(winners, repeated).any()

    @pytest.mark.parametrize("shared_first", [True, False])
    def test_tie_across_the_shared_triangles_goes_to_the_lower_index(self, monkeypatch,
                                                                    shared_first):
        # two floor triangles on edge a-b: one reaches behind the camera, so
        # every ray meets it; the other, half its size, is binned. With these
        # dyadic coordinates the half one's terms are the big one's halved
        # exactly, so each ray that hits both gets the same distance, bit
        # for bit, and the lower index must win
        a, b, behind = [-1.0, -1.0, -0.25], [-1.0, 1.0, -0.25], [1.5, 0.0, -0.25]
        half = [0.25, -0.5, -0.25]
        tris = [[0, 1, 2], [0, 1, 3]] if shared_first else [[0, 1, 3], [0, 1, 2]]
        mesh = TriMesh(np.array([a, b, behind, half]) + 0.5, np.array(tris))
        pose = sim.look_at_pose([1.0, 0.0, 0.25])
        depth = (mesh.vertices - 0.5 - pose.position) @ pose.forward
        assert (depth[[0, 1, 3]] > 1e-6).all() and depth[2] < 0.0
        winners = render_against_brute_force(
            monkeypatch, sim.Scene(mesh=mesh), pose, sim.CameraIntrinsics(width=32, height=32)
        )
        assert (winners == 0).sum() > 100
        assert (winners == 1).any() != shared_first

    def test_mesh_and_primitive_in_one_scene(self, monkeypatch):
        scene = sim.Scene(
            primitives=[sim.Box((0.3, 0.1, 0.1), (0.15, 0.2, 0.1), albedo=0.6)],
            mesh=rotated_sphere(6, diameter=0.7, n_lat=24, n_lon=48),
        )
        pose = sim.look_at_pose([4.0, 0.5, 0.3])
        cam = sim.CameraIntrinsics(width=40, height=40)
        render_against_brute_force(monkeypatch, scene, pose, cam)
        img = sim.render_frame(scene, pose, cam)
        no_box = sim.render_frame(sim.Scene(mesh=scene.mesh), pose, cam)
        assert not np.array_equal(img, no_box)


class TestRaycasterMemory:
    def test_camera_inside_the_paper_sphere_at_256(self):
        # 285 of the 9,024 triangles reach behind the camera, so every ray
        # meets them; binned per 2x2 tile they would be 4.7M (tile, triangle)
        # pairs, 36 MiB for one int64 index array (a render that bins them
        # so peaked at 186 MiB). This render peaked at 11.8 MiB when the
        # bound was set.
        mesh = rotated_sphere(4)
        pose = sim.look_at_pose([0.44, 0.1, 0.1])
        depth = (mesh.vertices - 0.5 - pose.position) @ pose.forward
        assert (depth[mesh.triangles] <= 1e-6).any(axis=1).sum() == 285
        tracemalloc.start()
        try:
            img = sim.render_frame(sim.Scene(mesh=mesh), pose, sim.CameraIntrinsics(256, 256))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        # the sphere surrounds the camera, so every ray hits it
        assert (img < 1.0).all()


class TestVideoToEvents:
    def test_contrast_must_be_positive(self):
        with pytest.raises(ConfigError, match="contrast threshold must be positive"):
            sim.video_to_events(np.ones((3, 2, 2)), fps=10.0, contrast=0.0)

    def test_needs_two_frames(self):
        with pytest.raises(DataError, match="need at least 2 frames, got 1"):
            sim.video_to_events(np.ones((1, 2, 2)), fps=10.0)

    def test_needs_rank3(self):
        with pytest.raises(DataError, match=r"expected \(frames, H, W\)"):
            sim.video_to_events(np.ones((4, 2)), fps=10.0)

    def test_constant_video_is_silent(self):
        stream = sim.video_to_events(np.full((5, 4, 4), 0.7), fps=100.0)
        assert len(stream) == 0
        assert stream.duration == pytest.approx(5 / 100.0)

    def test_two_and_a_half_thresholds(self):
        c = 0.2
        base = 0.2
        l0 = np.log(base + 1e-3)
        bright = np.exp(l0 + 2.5 * c) - 1e-3
        frames = np.full((2, 2, 2), base)
        frames[1, 0, 0] = bright
        stream = sim.video_to_events(frames, fps=10.0, contrast=c)
        assert len(stream) == 2
        assert np.all(stream.p == 1)
        dt = 0.1
        np.testing.assert_allclose(stream.t, [0.4 * dt, 0.8 * dt], atol=1e-9)
        assert stream.x[0] == 0 and stream.y[0] == 0

    def test_downward_ramp_all_negative(self):
        n = 6
        frames = np.linspace(0.9, 0.1, n)[:, None, None] * np.ones((1, 3, 3))
        stream = sim.video_to_events(frames, fps=30.0)
        assert len(stream) > 0
        assert np.all(stream.p == -1)

    def test_time_ties_break_by_row_major_index(self):
        # two pixels with identical profiles fire simultaneously; the
        # merge must order (y=0, x=1) before (y=1, x=0) at every timestamp
        frames = np.full((3, 2, 2), 0.1)
        for k, v in enumerate([0.4, 0.9], start=1):
            frames[k, 0, 1] = v
            frames[k, 1, 0] = v
        stream = sim.video_to_events(frames, fps=10.0)
        assert len(stream) >= 4 and len(stream) % 2 == 0
        for i in range(0, len(stream), 2):
            assert stream.t[i] == stream.t[i + 1]
            first = int(stream.y[i]) * 2 + int(stream.x[i])
            second = int(stream.y[i + 1]) * 2 + int(stream.x[i + 1])
            assert first < second

    def test_output_passes_stream_validation(self):
        rng = np.random.default_rng(3)
        frames = rng.uniform(0.05, 1.0, size=(12, 6, 5))
        stream = sim.video_to_events(frames, fps=60.0)
        assert len(stream) > 0
        records = list(zip(stream.x, stream.y, stream.t, stream.p))
        rebuilt = validate_stream(
            records, stream.sensor_width, stream.sensor_height, stream.duration
        )
        assert len(rebuilt) == len(stream)

    @settings(deadline=None, max_examples=40)
    @given(
        steps=st.lists(st.floats(0.01, 0.45), min_size=1, max_size=8),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_monotone_pixel_count_is_total_change_over_c(self, steps, sign):
        c = 0.2
        levels = np.cumsum([0.0] + [s * sign for s in steps])
        frames = (np.exp(levels - 1.0) - 1e-3)[:, None, None] * np.ones((1, 1, 1))
        if np.any(frames < 0):
            assume(False)
        log0 = np.log(frames[0, 0, 0] + 1e-3)
        log1 = np.log(frames[-1, 0, 0] + 1e-3)
        ratio = abs(log1 - log0) / c
        assume(abs(ratio - round(ratio)) > 1e-6)
        stream = sim.video_to_events(frames, fps=24.0, contrast=c)
        assert len(stream) == int(np.floor(ratio))

    def test_doubling_fps_changes_counts_by_at_most_one(self):
        rng = np.random.default_rng(5)
        h = w = 4
        a = rng.uniform(0.2, 0.8, (h, w))
        b = rng.uniform(-0.15, 0.15, (h, w))
        n = 9
        span = 1.0

        def video(frame_count):
            ts = np.linspace(0.0, span, frame_count)
            return a[None] + b[None] * ts[:, None, None]

        coarse = sim.video_to_events(video(n), fps=(n - 1) / span)
        fine = sim.video_to_events(video(2 * n - 1), fps=2 * (n - 1) / span)

        def counts(stream):
            grid = np.zeros((h, w), dtype=int)
            np.add.at(grid, (stream.y.astype(int), stream.x.astype(int)), 1)
            return grid

        assert np.abs(counts(coarse) - counts(fine)).max() <= 1


class TestOccupancyLabel:
    def test_sphere_volume_within_5pct(self):
        label = sim.occupancy_label(center_sphere_scene(), 16)
        analytic = 4.0 / 3.0 * np.pi * 0.5 ** 3 * 16 ** 3
        assert abs(label.count() - analytic) / analytic < 0.05

    def test_box_count_exact(self):
        scene = sim.Scene(primitives=[sim.Box((0, 0, 0), (0.25, 0.25, 0.25))])
        label = sim.occupancy_label(scene, 16)
        # cell centers (i + 0.5)/16 - 0.5 fall inside |c| <= 0.25 for
        # exactly 8 indices per axis
        assert label.count() == 8 ** 3

    def test_cylinder_matches_loop_oracle(self):
        cyl = sim.Cylinder((0.05, -0.1, 0.0), 2, 0.3, 0.2)
        label = sim.occupancy_label(sim.Scene(primitives=[cyl]), 8)
        expected = 0
        for i in range(8):
            for j in range(8):
                for k in range(8):
                    x = (i + 0.5) / 8 - 0.5
                    y = (j + 0.5) / 8 - 0.5
                    z = (k + 0.5) / 8 - 0.5
                    if abs(z - 0.0) <= 0.2 and (x - 0.05) ** 2 + (y + 0.1) ** 2 <= 0.3 ** 2:
                        expected += 1
        assert label.count() == expected

    def test_mesh_label_goes_through_voxelizer(self):
        scene = sim.Scene(mesh=uv_sphere_mesh(n_lat=24, n_lon=48))
        label = sim.occupancy_label(scene, 16)
        analytic = 4.0 / 3.0 * np.pi * 0.5 ** 3 * 16 ** 3
        assert abs(label.count() - analytic) / analytic < 0.08

    def test_empty_scene_empty_label(self):
        label = sim.occupancy_label(sim.Scene(), 8)
        assert label.count() == 0

    def test_mesh_and_primitive_label_is_the_union(self):
        box = sim.Box((0.2, 0.1, -0.1), (0.15, 0.2, 0.1))
        mesh = uv_sphere_mesh(diameter=0.5, n_lat=12, n_lon=24)
        both = sim.occupancy_label(sim.Scene(primitives=[box], mesh=mesh), 16)
        alone = [sim.occupancy_label(sim.Scene(primitives=[box]), 16),
                 sim.occupancy_label(sim.Scene(mesh=mesh), 16)]
        assert (alone[0].occupancy & ~alone[1].occupancy).any()
        np.testing.assert_array_equal(both.occupancy, alone[0].occupancy | alone[1].occupancy)


class TestGenerateSample:
    def test_sphere_sample_end_to_end(self):
        stream, label = sim.generate_sample(center_sphere_scene(), resolution=16)
        assert stream.duration == pytest.approx(0.5)
        assert len(stream) > 0
        assert stream.sensor_width == 64 and stream.sensor_height == 64
        # 120 rendered frames cover [0, T); events stay inside
        assert stream.t.max() < 0.5
        analytic = 4.0 / 3.0 * np.pi * 0.5 ** 3 * 16 ** 3
        assert abs(label.count() - analytic) / analytic < 0.05

    def test_empty_scene_sample(self):
        stream, label = sim.generate_sample(sim.Scene(), resolution=8)
        assert len(stream) == 0
        assert label.count() == 0

    def test_orbit_frame_count_at_defaults(self):
        cfg = sim.TrajectoryConfig()
        assert int(cfg.duration * cfg.fps) == 120

    @pytest.mark.parametrize("duration, fps, frames", [
        (0.29, 100.0, 29), (0.57, 100.0, 57), (1.15, 100.0, 115),
        (0.5, 240.0, 120), (2 / 240, 240.0, 2), (0.295, 100.0, 29), (0.0299, 100.0, 2),
    ])
    def test_frame_count_rounds_only_within_rounding(self, duration, fps, frames):
        assert sim.TrajectoryConfig(duration=duration, fps=fps).frame_count == frames

    def test_product_just_below_an_integer_renders_every_frame(self):
        traj = sim.TrajectoryConfig(duration=0.29, fps=100.0)
        assert traj.duration * traj.fps < 29
        stream, _ = sim.generate_sample(center_sphere_scene(), traj,
                                        sim.CameraIntrinsics(width=8, height=8), resolution=4)
        assert stream.duration == pytest.approx(0.29)


ONE_OF_EACH = (
    sim.Sphere((0.1, 0.0, -0.2), 0.3, albedo=0.7),
    sim.Box((0.0, 0.1, 0.0), (0.2, 0.1, 0.15)),
    sim.Cylinder((0.0, 0.0, 0.1), 1, 0.2, 0.25, albedo=0.85),
)


class TestSceneJson:
    def test_round_trip(self):
        scene = sim.Scene(primitives=list(ONE_OF_EACH))
        again = sim.scene_from_dict(sim.scene_to_dict(scene))
        assert again.primitives == scene.primitives

    @pytest.mark.parametrize("kind", sorted(sim.PRIMITIVES))
    def test_kind_names_the_class(self, kind):
        prim, = (p for p in ONE_OF_EACH if type(p) is sim.PRIMITIVES[kind])
        scene = sim.Scene(primitives=[prim])
        assert sim.scene_to_dict(scene)["primitives"][0]["kind"] == kind
        assert cli._scene_category(scene) == kind

    @pytest.mark.parametrize(
        "spec",
        [
            {"primitives": [{"kind": "pyramid", "center": [0, 0, 0]}]},
            {"primitives": [{"kind": "sphere", "center": [0, 0, 0]}]},
            {"primitives": [{"kind": "sphere", "center": [0, 0], "radius": 0.2}]},
            {"primitives": [{"kind": "sphere", "center": [0, 0, 0], "radius": -0.1}]},
            {"primitives": [{"kind": "box", "center": [0, 0, 0], "half_extents": [0.1, 0, 0.1]}]},
            {"primitives": [{"kind": "cylinder", "center": [0, 0, 0], "axis": 5,
                             "radius": 0.1, "half_height": 0.1}]},
            {"primitives": "sphere"},
            "not a dict",
        ],
    )
    def test_rejects_bad_specs(self, spec):
        # every message names the dotted path of the bad value
        with pytest.raises(ConfigError, match="^scene"):
            sim.scene_from_dict(spec)

    def test_mesh_scene_has_no_json_form(self):
        scene = sim.Scene(mesh=uv_sphere_mesh(n_lat=4, n_lon=8))
        with pytest.raises(ConfigError, match="a mesh scene has no JSON form"):
            sim.scene_to_dict(scene)

    def test_empty_spec_gives_empty_scene(self):
        scene = sim.scene_from_dict({})
        assert scene.primitives == [] and scene.mesh is None
