"""Synthetic data generation: orbit camera, raycast renderer, event synthesis.

The world is desk scale: scene geometry lives inside the unit-diameter
region around the origin and the camera orbits it from a few meters out,
descending from z = +2 to z = -2 while the orbit radius swells from 4 to
6 and back. Rendering is a plain Lambertian raycaster over axis-aligned
analytic primitives and a normalized triangle mesh against a white
background; the fixed directional lights all lie in the x-z plane so a
scene mirrored in that plane photographs as the mirrored image.

Each primitive class (``Sphere``, ``Box``, ``Cylinder``) carries its own
geometry: its JSON ``kind``, ``hit(o, d) -> (t, normals)`` (the smallest
positive ray parameter per ray, inf where missed, and the unit outward
normal there) and ``inside(xs, ys, zs)``, a test of points for the
occupancy label. The renderer and the label call these and never branch on
the type; a scene holding a mesh and primitives is labelled with the union
of their parts.

A mesh is raycast by screen tiles. Each triangle's projected pixel
bounding box, grown by one pixel, bins it into TILE x TILE tiles, and each
tile runs the Moller-Trumbore test on its own rays against its candidates
only. The image is the one a test of every ray against every triangle
would give, byte for byte; ``render_frame`` says why.

Event synthesis follows the usual contrast-threshold model: per pixel,
log intensity is tracked against a reference level that advances by the
threshold C each time an event fires, with event timestamps linearly
interpolated inside each inter-frame interval.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import ClassVar

import numpy as np

from . import voxel
from .config import from_json
from .errors import ConfigError, DataError, InternalError
from .events import EventStream, from_arrays

DEFAULT_CONTRAST = 0.2
LOG_EPS = 1e-3
# the orbit camera_pose follows
Z_START, Z_END = 2.0, -2.0
R_MIN, R_MAX = 4.0, 6.0
REVOLUTIONS = 1.0
# a full-frame camera behind an 80 mm lens
FOCAL_LENGTH_MM = 80.0
SENSOR_WIDTH_MM = 36.0
# triangles tested against a tile's rays at once by the mesh raycaster
TRIANGLE_CHUNK = 512
# side in pixels of the square screen tiles the mesh raycaster bins into
TILE = 8

# direction (unit), weight -- all with zero y-component, see module docstring
_LIGHTS = (
    (np.array([0.0, 0.0, 1.0]), 0.45),
    (np.array([0.0, 0.0, -1.0]), 0.45),
    (np.array([1.0, 0.0, 0.5]) / np.linalg.norm([1.0, 0.0, 0.5]), 0.35),
)


@dataclass(frozen=True)
class TrajectoryConfig:
    duration: float = 0.5
    fps: float = 240.0

    def __post_init__(self):
        if self.duration <= 0:
            raise ConfigError(f"duration must be positive, got {self.duration}")
        if self.fps <= 0:
            raise ConfigError(f"fps must be positive, got {self.fps}")


@dataclass(frozen=True)
class CameraIntrinsics:
    width: int = 64
    height: int = 64

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ConfigError(f"resolution {self.width}x{self.height} is not positive")

    @property
    def f_pix(self) -> float:
        return FOCAL_LENGTH_MM / SENSOR_WIDTH_MM * self.width


def _hit_points(o, d, t):
    """Where each ray meets its hit, or its origin where ``t`` is inf."""
    return o[None, :] + np.where(np.isfinite(t), t, 0.0)[:, None] * d


@dataclass(frozen=True)
class Sphere:
    kind: ClassVar[str] = "sphere"

    center: tuple[float, float, float]
    radius: float
    albedo: float = 0.9

    def __post_init__(self):
        if self.radius <= 0:
            raise ConfigError(f"radius must be positive, got {self.radius}")

    def hit(self, o, d):
        center = np.asarray(self.center)
        oc = o - center
        b = d @ oc
        # d is unit length, so the quadratic's leading coefficient is 1
        c = oc @ oc - self.radius * self.radius
        disc = b * b - c
        t = np.full(d.shape[0], np.inf)
        ok = disc >= 0
        root = np.sqrt(disc[ok])
        t0 = -b[ok] - root
        t1 = -b[ok] + root
        best = np.where(t0 > 1e-9, t0, np.where(t1 > 1e-9, t1, np.inf))
        t[ok] = best
        return t, (_hit_points(o, d, t) - center) / self.radius

    def inside(self, xs, ys, zs):
        cx, cy, cz = self.center
        return (xs - cx) ** 2 + (ys - cy) ** 2 + (zs - cz) ** 2 <= self.radius ** 2


@dataclass(frozen=True)
class Box:
    kind: ClassVar[str] = "box"

    center: tuple[float, float, float]
    half_extents: tuple[float, float, float]
    albedo: float = 0.9

    def __post_init__(self):
        if any(e <= 0 for e in self.half_extents):
            raise ConfigError(f"half_extents must be positive, got {self.half_extents}")

    def hit(self, o, d):
        lo = np.asarray(self.center) - np.asarray(self.half_extents)
        hi = np.asarray(self.center) + np.asarray(self.half_extents)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / d
            t1 = (lo - o) * inv
            t2 = (hi - o) * inv
        near = np.nanmax(np.minimum(t1, t2), axis=1)
        far = np.nanmin(np.maximum(t1, t2), axis=1)
        hit = (near <= far) & (far > 1e-9)
        t = np.where(hit, np.where(near > 1e-9, near, far), np.inf)
        axis = np.argmax(np.minimum(t1, t2), axis=1)
        pts = _hit_points(o, d, t)
        normals = np.zeros_like(pts)
        rows = np.arange(d.shape[0])
        signs = np.sign(pts[rows, axis] - np.asarray(self.center)[axis])
        normals[rows, axis] = np.where(signs == 0, 1.0, signs)
        return t, normals

    def inside(self, xs, ys, zs):
        cx, cy, cz = self.center
        hx, hy, hz = self.half_extents
        return (np.abs(xs - cx) <= hx) & (np.abs(ys - cy) <= hy) & (np.abs(zs - cz) <= hz)


@dataclass(frozen=True)
class Cylinder:
    """Axis-aligned cylinder: ``axis`` is 0, 1, or 2 (x, y, z)."""

    kind: ClassVar[str] = "cylinder"

    center: tuple[float, float, float]
    axis: int
    radius: float
    half_height: float
    albedo: float = 0.9

    def __post_init__(self):
        if self.axis not in (0, 1, 2):
            raise ConfigError(f"axis must be 0, 1, or 2, got {self.axis}")
        if self.radius <= 0 or self.half_height <= 0:
            raise ConfigError(
                f"radius and half_height must be positive, got {self.radius}, {self.half_height}"
            )

    def hit(self, o, d):
        a_ax = self.axis
        plane = [i for i in range(3) if i != a_ax]
        op = o[plane] - np.asarray(self.center)[plane]
        dp = d[:, plane]
        a = np.einsum("ij,ij->i", dp, dp)
        b = dp @ op
        c = op @ op - self.radius ** 2
        t = np.full(d.shape[0], np.inf)
        normal_kind = np.zeros(d.shape[0], dtype=np.int8)  # 0 side, +-1 caps

        with np.errstate(divide="ignore", invalid="ignore"):
            disc = b * b - a * c
            ok = (disc >= 0) & (a > 0)
            root = np.sqrt(np.where(ok, disc, 0.0))
            for sign in (-1.0, 1.0):
                ts = (-b + sign * root) / a
                z_at = o[a_ax] + ts * d[:, a_ax]
                good = (ok & (ts > 1e-9) & (np.abs(z_at - self.center[a_ax]) <= self.half_height)
                        & (ts < t))
                t = np.where(good, ts, t)

            # caps
            for cap_sign in (-1.0, 1.0):
                plane_z = self.center[a_ax] + cap_sign * self.half_height
                ts = (plane_z - o[a_ax]) / d[:, a_ax]
                p = o[None, :] + ts[:, None] * d
                r2 = np.zeros(d.shape[0])
                for i in plane:
                    r2 += (p[:, i] - self.center[i]) ** 2
                good = (ts > 1e-9) & (r2 <= self.radius ** 2) & (ts < t)
                t = np.where(good, ts, t)
                normal_kind = np.where(good, np.int8(cap_sign), normal_kind)

        pts = _hit_points(o, d, t)
        normals = np.zeros_like(pts)
        side = normal_kind == 0
        for i in plane:
            normals[side, i] = (pts[side, i] - self.center[i]) / self.radius
        normals[~side, a_ax] = normal_kind[~side]
        return t, normals

    def inside(self, xs, ys, zs):
        grids = (xs, ys, zs)
        along = np.abs(grids[self.axis] - self.center[self.axis]) <= self.half_height
        r2 = np.zeros_like(xs)
        for i in range(3):
            if i != self.axis:
                r2 = r2 + (grids[i] - self.center[i]) ** 2
        return along & (r2 <= self.radius ** 2)


PRIMITIVES = {cls.kind: cls for cls in (Sphere, Box, Cylinder)}


@dataclass
class Scene:
    primitives: list = field(default_factory=list)
    mesh: voxel.TriMesh | None = None
    mesh_albedo: float = 0.9


@dataclass(frozen=True)
class Pose:
    position: np.ndarray
    forward: np.ndarray
    right: np.ndarray
    up: np.ndarray


def look_at_pose(position) -> Pose:
    """Orthonormal frame at ``position`` looking at the origin, up derived
    from world z."""
    position = np.asarray(position, dtype=np.float64)
    forward = -position / np.linalg.norm(position)
    world_up = np.array([0.0, 0.0, 1.0])
    right = np.cross(forward, world_up)
    norm = np.linalg.norm(right)
    if norm < 1e-12:
        raise ConfigError("camera position on the z-axis has no stable look-at frame")
    right = right / norm
    up = np.cross(right, forward)
    return Pose(position, forward, right, up)


def camera_pose(cfg: TrajectoryConfig, t: float) -> Pose:
    """Orbit position at time t with a look-at-origin orientation.

    z falls linearly from Z_START to Z_END; the radius grows from R_MIN
    to R_MAX as |z| shrinks to zero and returns; the azimuth sweeps
    2*pi*REVOLUTIONS over the full duration.
    """
    if not (0.0 <= t <= cfg.duration):
        raise InternalError(f"t={t} outside [0, {cfg.duration}]")
    frac = t / cfg.duration
    z = Z_START + (Z_END - Z_START) * frac
    r = R_MIN + (R_MAX - R_MIN) * (1.0 - abs(z) / abs(Z_START))
    theta = 2.0 * math.pi * REVOLUTIONS * frac
    return look_at_pose([r * math.cos(theta), r * math.sin(theta), z])


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


def _mesh_hits(o, d, vertices, triangles, pose: Pose, cam: CameraIntrinsics):
    """``_triangle_hits`` over a frame's rays, run per screen tile on the
    triangles whose grown pixel bounding box overlaps the tile (see
    ``render_frame``). ``d`` holds the rays in row-major pixel order."""
    h, w = cam.height, cam.width
    rel = vertices - o
    depth = rel @ pose.forward
    with np.errstate(divide="ignore", invalid="ignore"):
        cols = (rel @ pose.right) / depth * cam.f_pix + (w / 2.0 - 0.5)
        rows = (h / 2.0 - 0.5) - (rel @ pose.up) / depth * cam.f_pix
    behind = (depth[triangles] <= 1e-6).any(axis=1)
    col_lo = np.where(behind, -np.inf, cols[triangles].min(axis=1) - 1.0)
    col_hi = np.where(behind, np.inf, cols[triangles].max(axis=1) + 1.0)
    row_lo = np.where(behind, -np.inf, rows[triangles].min(axis=1) - 1.0)
    row_hi = np.where(behind, np.inf, rows[triangles].max(axis=1) + 1.0)

    best_t = np.full(d.shape[0], np.inf)
    best_tri = np.full(d.shape[0], -1, dtype=np.int64)
    for r0 in range(0, h, TILE):
        r1 = min(r0 + TILE, h)
        in_rows = np.flatnonzero((row_lo <= r1 - 1) & (row_hi >= r0))
        for c0 in range(0, w, TILE):
            c1 = min(c0 + TILE, w)
            cand = in_rows[(col_lo[in_rows] <= c1 - 1) & (col_hi[in_rows] >= c0)]
            if cand.size == 0:
                continue
            rays = (np.arange(r0, r1)[:, None] * w + np.arange(c0, c1)[None, :]).ravel()
            t, local = _triangle_hits(o, d[rays], vertices, triangles[cand])
            best_t[rays] = t
            best_tri[rays] = np.where(local >= 0, cand[local], -1)
    return best_t, best_tri


def render_frame(scene: Scene, pose: Pose, cam: CameraIntrinsics) -> np.ndarray:
    """Raycast one frame: nearest-hit Lambertian shading, white background.

    Returns an (H, W) float64 image in [0, 1]; row 0 is the top of the
    image and column 0 the left edge as seen by the camera.

    A mesh goes through ``_mesh_hits``: each triangle is projected through
    the pose and intrinsics and binned into the screen tiles its pixel
    bounding box, grown by one pixel, overlaps; a triangle with a vertex at
    camera depth <= 1e-6 goes to every tile. Each tile then runs
    ``_triangle_hits`` on its rays and its candidates. The image equals
    the brute-force one (every ray against every triangle) byte for byte:
    a ray can only hit a triangle whose projection holds its pixel center,
    so no tile misses a hit; candidates keep ascending index order, so a
    tie in depth still goes to the lowest triangle index; and each
    ray-triangle pair runs the same arithmetic. The one assumption is that
    BLAS gives the same bits for each element of ``d @ q.T`` whatever the
    block shape, which the mesh digests in ``bench/reference.json`` check.
    """
    h, w = cam.height, cam.width
    us = (np.arange(w) + 0.5 - w / 2.0) / cam.f_pix
    vs = (h / 2.0 - np.arange(h) - 0.5) / cam.f_pix
    d = (
        pose.forward[None, None, :]
        + us[None, :, None] * pose.right[None, None, :]
        + vs[:, None, None] * pose.up[None, None, :]
    ).reshape(-1, 3)
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    o = pose.position.astype(np.float64)

    best_t = np.full(d.shape[0], np.inf)
    best_albedo = np.zeros(d.shape[0])
    best_normal = np.zeros((d.shape[0], 3))

    def consider(t, normals, albedo):
        closer = t < best_t
        best_t[closer] = t[closer]
        best_albedo[closer] = albedo
        best_normal[closer] = normals[closer]

    if scene.mesh is not None:
        # meshes are stored in unit-cube coordinates (as the voxelizer
        # wants them); the world picture is that cube centered on the origin
        verts = scene.mesh.vertices - 0.5
        tris = scene.mesh.triangles
        t, tri_idx = _mesh_hits(o, d, verts, tris, pose, cam)
        face_n = np.cross(
            verts[tris[:, 1]] - verts[tris[:, 0]],
            verts[tris[:, 2]] - verts[tris[:, 0]],
        )
        lens = np.linalg.norm(face_n, axis=1, keepdims=True)
        face_n = face_n / np.where(lens > 0, lens, 1.0)
        normals = np.zeros((d.shape[0], 3))
        hit = tri_idx >= 0
        normals[hit] = face_n[tri_idx[hit]]
        # two-sided shading: orient each normal against the viewing ray
        flip = np.einsum("ij,ij->i", normals, d) > 0
        normals[flip] *= -1.0
        consider(t, normals, scene.mesh_albedo)

    for prim in scene.primitives:
        consider(*prim.hit(o, d), prim.albedo)

    img = np.ones(d.shape[0])
    hit = np.isfinite(best_t)
    if np.any(hit):
        shade = np.zeros(hit.sum())
        n = best_normal[hit]
        for direction, weight in _LIGHTS:
            shade += weight * np.maximum(0.0, n @ np.asarray(direction))
        img[hit] = np.clip(best_albedo[hit] * shade, 0.0, 1.0)
    return img.reshape(h, w)


def video_to_events(
    frames: np.ndarray,
    fps: float,
    contrast: float = DEFAULT_CONTRAST,
) -> EventStream:
    """Contrast-threshold event synthesis from an intensity video.

    Each pixel keeps a reference log intensity that advances by
    ``contrast`` per event. Within an inter-frame interval the log
    intensity moves linearly, so the k-th crossing happens at the
    interval fraction that lands exactly on reference + k*contrast.
    Events from all pixels are merged in time order with ties broken by
    row-major pixel index, and the stream duration is frame_count/fps.
    """
    if contrast <= 0:
        raise ConfigError(f"contrast threshold must be positive, got {contrast}")
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 3:
        raise DataError(f"expected (frames, H, W), got shape {frames.shape}")
    if frames.shape[0] < 2:
        raise DataError(f"need at least 2 frames, got {frames.shape[0]}")
    n, h, w = frames.shape
    duration = n / fps
    dt = 1.0 / fps

    log_frames = np.log(frames + LOG_EPS)
    ref = log_frames[0].reshape(-1).copy()
    npix = h * w
    pix = np.arange(npix)

    ts_parts, pix_parts, pol_parts = [], [], []
    for i in range(n - 1):
        la = log_frames[i].reshape(-1)
        lb = log_frames[i + 1].reshape(-1)
        delta = lb - la
        up = delta > 0
        down = delta < 0
        k = np.zeros(npix, dtype=np.int64)
        k[up] = np.floor((lb[up] - ref[up]) / contrast).astype(np.int64)
        k[down] = np.floor((ref[down] - lb[down]) / contrast).astype(np.int64)
        np.maximum(k, 0, out=k)
        total = int(k.sum())
        if total == 0:
            continue

        fire = k > 0
        counts = k[fire]
        starts = np.cumsum(counts) - counts
        order = np.arange(total) - np.repeat(starts, counts) + 1  # 1..k per pixel
        rep_pix = np.repeat(pix[fire], counts)
        sign = np.where(delta[fire] > 0, 1.0, -1.0)
        rep_sign = np.repeat(sign, counts)
        levels = np.repeat(ref[fire], counts) + rep_sign * order * contrast
        frac = (levels - np.repeat(la[fire], counts)) / np.repeat(delta[fire], counts)
        ts_parts.append(i * dt + frac * dt)
        pix_parts.append(rep_pix)
        pol_parts.append(rep_sign.astype(np.int8))

        ref[fire] += np.where(delta[fire] > 0, 1.0, -1.0) * counts * contrast

    if not ts_parts:
        empty = np.array([])
        return from_arrays(empty, empty, empty, empty.astype(np.int8), w, h, duration)

    t_all = np.concatenate(ts_parts)
    pix_all = np.concatenate(pix_parts)
    p_all = np.concatenate(pol_parts)
    idx = np.lexsort((pix_all, t_all))
    return from_arrays(
        t_all[idx],
        (pix_all[idx] % w).astype(np.uint16),
        (pix_all[idx] // w).astype(np.uint16),
        p_all[idx],
        w,
        h,
        duration,
    )


def occupancy_label(scene: Scene, resolution: int) -> voxel.VoxelGrid:
    """Scene occupancy on an R-cube over the unit cube around the origin.

    A mesh goes through the voxelizer, and each primitive's inside test
    runs at the cell centers; a scene with both is labelled with the union.
    """
    r = resolution
    label = voxel.voxelize(scene.mesh, r) if scene.mesh is not None else voxel.VoxelGrid.empty(r)
    axes = (np.arange(r) + 0.5) / r - 0.5
    xs, ys, zs = np.meshgrid(axes, axes, axes, indexing="ij")
    for prim in scene.primitives:
        label.occupancy |= prim.inside(xs, ys, zs)
    return label


def generate_sample(
    scene: Scene,
    traj: TrajectoryConfig | None = None,
    cam: CameraIntrinsics | None = None,
    contrast: float = DEFAULT_CONTRAST,
    resolution: int = 32,
) -> tuple[EventStream, voxel.VoxelGrid]:
    """Render the orbit video, synthesize events, and build the voxel label."""
    traj = traj if traj is not None else TrajectoryConfig()
    cam = cam if cam is not None else CameraIntrinsics()
    n_frames = int(traj.duration * traj.fps)
    video = np.empty((n_frames, cam.height, cam.width))
    for i in range(n_frames):
        pose = camera_pose(traj, i / traj.fps)
        video[i] = render_frame(scene, pose, cam)
    stream = video_to_events(video, traj.fps, contrast=contrast)
    label = occupancy_label(scene, resolution)
    return stream, label


def scene_to_dict(scene: Scene) -> dict:
    """The JSON form of a primitive scene; raises ConfigError for a
    mesh scene, which has none."""
    if scene.mesh is not None:
        raise ConfigError("a mesh scene has no JSON form")
    return {"primitives": [{"kind": p.kind, **asdict(p)} for p in scene.primitives]}


@dataclass(frozen=True)
class _SceneSpec:
    primitives: tuple[dict, ...] = ()


def scene_from_dict(spec: dict, where: str = "scene") -> Scene:
    """Build a Scene from its JSON form, whose dotted path is ``where``;
    raises ConfigError on nonsense."""
    prims = []
    for i, entry in enumerate(from_json(_SceneSpec, spec, where).primitives):
        fields = dict(entry)
        kind = fields.pop("kind", None)
        cls = PRIMITIVES.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise ConfigError(
                f"{where}.primitives[{i}].kind must be one of {sorted(PRIMITIVES)}, got {kind!r}"
            )
        prims.append(from_json(cls, fields, f"{where}.primitives[{i}]"))
    return Scene(primitives=prims)
