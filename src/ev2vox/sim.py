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

A mesh is raycast by 2 x 2-pixel screen tiles. Each triangle's projected
pixel bounding box, grown by one pixel, bins it into tiles, and batches of
tiles, each batch under a fixed byte budget, run the Moller-Trumbore test
of each tile's rays against that tile's candidates only. The image is the
one a test of every ray against every triangle would give, byte for byte,
under one assumption about BLAS; ``render_frame`` says why.

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
# side in pixels of the square screen tiles the mesh raycaster bins into
TILE = 2
# bytes of the (rays, tiles, candidates, 3) array in one raycaster batch
BATCH_BYTES = 2**19

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

    @property
    def frame_count(self) -> int:
        """Frames in the orbit video: duration * fps, floored, except that a
        product within rounding of an integer is that integer (0.29 * 100 is
        28.999999999999996, and 29 frames)."""
        product = self.duration * self.fps
        nearest = round(product)
        return nearest if math.isclose(product, nearest) else math.floor(product)


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


def _triangle_terms(o, vertices, triangles):
    """The Moller-Trumbore terms that depend on the triangle alone, with a
    degenerate triangle appended at index F that no ray hits.

    Returns ``terms`` (F + 1, 4, 3), holding e1, e2, s = o - a and
    q = s x e1 per triangle, and ``qe2`` (F + 1,), holding q . e2."""
    terms = np.zeros((len(triangles) + 1, 4, 3))
    e1, e2, s, q = (terms[:-1, i] for i in range(4))
    a = vertices[triangles[:, 0]]
    np.subtract(vertices[triangles[:, 1]], a, out=e1)
    np.subtract(vertices[triangles[:, 2]], a, out=e2)
    np.subtract(o[None, :], a, out=s)
    q[...] = np.cross(s, e1)
    return terms, np.append(np.einsum("tk,tk->t", q, e2), 0.0)


def _moller_trumbore(d, terms, qe2, cand):
    """Nearest hit of each tile's rays among that tile's candidates.

    ``d`` (R, B, 3) holds ray r of tile b at [r, b], and ``cand`` (B, C)
    each tile's triangle indices into ``terms`` in ascending order, padded
    with the degenerate triangle. Returns the hit distance and the winning
    index per ray, (R, B) each, inf / -1 where missed."""
    (r, b), c = d.shape[:2], cand.shape[1]
    g = np.take(terms, cand.ravel(), axis=0)
    e1, e2, s, q = (g[:, i] for i in range(4))
    # each pair at [r, b * c + j] with the coordinate axis last, so that its
    # sums over k run in the same einsum loop as in a test of all rays
    # against all triangles
    p = np.cross(d[:, :, None, :], e2.reshape(b, c, 3)).reshape(r, b * c, 3)
    det = np.einsum("rnk,nk->rn", p, e1)
    # one BLAS product per tile
    v = np.empty((r, b, c))
    np.matmul(d.transpose(1, 0, 2), q.reshape(b, c, 3).transpose(0, 2, 1),
              out=v.transpose(1, 0, 2))
    v = v.reshape(r, b * c)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / det
        u = np.einsum("rnk,nk->rn", p, s) * inv
        v *= inv
        t = np.take(qe2, cand.ravel()) * inv
    good = (
        (np.abs(det) > 1e-12)
        & (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0)
        & (t > 1e-9)
    )
    t = np.where(good, t, np.inf).reshape(r, b, c)
    # argmin takes the first of equal distances: the lowest index
    idx = np.argmin(t, axis=2)
    tmin = np.take_along_axis(t, idx[:, :, None], axis=2)[:, :, 0]
    winner = np.take_along_axis(cand, idx.T, axis=1).T
    return tmin, np.where(tmin < np.inf, winner, -1)


def _tile_span(lo, hi, size):
    """First and last tile along a screen axis of ``size`` pixels holding
    a pixel center (at integer coordinates) in [lo, hi]; last < first
    where none does."""
    first = np.clip(np.ceil(lo), 0.0, size)
    last = np.clip(np.floor(hi), -1.0, size - 1.0)
    last = np.where(first <= last, last // TILE, -1)
    return (first // TILE).astype(np.int64), last.astype(np.int64)


def _tile_candidates(binned, cols, rows, cam: CameraIntrinsics):
    """Bin the ``binned`` triangles into the frame's TILE x TILE tiles,
    row-major: each goes to the tiles holding a pixel center inside the box
    spanned by its projected vertices ``cols`` and ``rows`` (3, n), grown by
    one pixel. Returns every tile's candidates, in ascending triangle order,
    one tile after another, and each tile's count and start in them."""
    th, tw = -(-cam.height // TILE), -(-cam.width // TILE)
    c0, c1 = _tile_span(cols.min(axis=0) - 1.0, cols.max(axis=0) + 1.0, cam.width)
    r0, r1 = _tile_span(rows.min(axis=0) - 1.0, rows.max(axis=0) + 1.0, cam.height)
    ncol = np.maximum(c1 - c0 + 1, 0)
    n = np.maximum(r1 - r0 + 1, 0) * ncol
    owner = np.repeat(np.arange(len(n)), n)
    k = np.arange(len(owner)) - np.repeat(np.cumsum(n) - n, n)
    tile = (r0[owner] + k // ncol[owner]) * tw + c0[owner] + k % ncol[owner]
    count = np.bincount(tile, minlength=th * tw)
    return binned[owner[np.argsort(tile, kind="stable")]], count, np.cumsum(count) - count


def _tile_hits(d, terms, qe2, binned, cols, rows, cam: CameraIntrinsics):
    """``_moller_trumbore`` per TILE x TILE screen tile on its candidates
    among the ``binned`` triangles (see ``_tile_candidates``), in batches
    of tiles whose (R, B, C, 3) array fits BATCH_BYTES. Returns hits and
    winners in the row-major pixel order of ``d``."""
    h, w = cam.height, cam.width
    th, tw = -(-h // TILE), -(-w // TILE)
    cands, count, start = _tile_candidates(binned, cols, rows, cam)
    # one entry past the last pads every batch with the degenerate triangle
    cands = np.append(cands, len(terms) - 1)
    rays = TILE * TILE
    tile_d = np.pad(d.reshape(h, w, 3), ((0, th * TILE - h), (0, tw * TILE - w), (0, 0)))
    tile_d = tile_d.reshape(th, TILE, tw, TILE, 3).transpose(1, 3, 0, 2, 4).reshape(rays, -1, 3)
    best_t = np.full((rays, th * tw), np.inf)
    best_tri = np.full((rays, th * tw), -1, dtype=np.int64)
    # tiles in ascending candidate count, so that a batch of n tiles is
    # n times its last tile's count wide and little of it is padding
    todo = np.flatnonzero(count)
    todo = todo[np.argsort(count[todo], kind="stable")]
    lo = 0
    while lo < len(todo):
        size = np.arange(1, len(todo) - lo + 1) * count[todo[lo:]] * rays * 3 * d.itemsize
        batch = todo[lo:lo + max(1, np.count_nonzero(size <= BATCH_BYTES))]
        lo += len(batch)
        slot = np.arange(count[batch[-1]])
        pos = np.where(slot < count[batch][:, None], start[batch][:, None] + slot, -1)
        best_t[:, batch], best_tri[:, batch] = _moller_trumbore(
            tile_d[:, batch], terms, qe2, cands[pos])

    def frame(x):
        x = x.reshape(TILE, TILE, th, tw).transpose(2, 0, 3, 1).reshape(th * TILE, tw * TILE)
        return x[:h, :w].ravel()

    return frame(best_t), frame(best_tri)


def _mesh_hits(o, d, vertices, triangles, pose: Pose, cam: CameraIntrinsics):
    """Nearest triangle hit per ray and the index of the winning triangle,
    inf / -1 where missed (see ``render_frame``). ``d`` holds the rays in
    row-major pixel order."""
    h, w = cam.height, cam.width
    rel = vertices - o
    depth = rel @ pose.forward
    with np.errstate(divide="ignore", invalid="ignore"):
        cols = (rel @ pose.right) / depth * cam.f_pix + (w / 2.0 - 0.5)
        rows = (h / 2.0 - 0.5) - (rel @ pose.up) / depth * cam.f_pix
    # one C-ordered column per triangle (np.take keeps that order, fancy
    # slicing does not), so reducing over a triangle's vertices is a fast
    # axis-0 reduction
    corners = np.ascontiguousarray(triangles.T)
    behind = (depth[corners] <= 1e-6).any(axis=0)
    terms, qe2 = _triangle_terms(o, vertices, triangles)
    binned = np.flatnonzero(~behind)
    corners = np.take(corners, binned, axis=1)
    best_t, best_tri = _tile_hits(d, terms, qe2, binned, cols[corners], rows[corners], cam)
    shared = np.flatnonzero(behind)
    if len(shared):
        # no pixel box bounds a triangle reaching behind the camera, so
        # every ray meets all of them: chunks of rays, each one tile to the
        # kernel, share the one list
        step = max(1, BATCH_BYTES // (3 * d.itemsize * len(shared)))
        for lo in range(0, len(d), step):
            t, tri = _moller_trumbore(d[lo:lo + step, None], terms, qe2, shared[None])
            t, tri = t[:, 0], tri[:, 0]
            bt, btri = best_t[lo:lo + step], best_tri[lo:lo + step]
            # a tie in distance goes to the lower index
            take = (t < bt) | ((t == bt) & (tri < btri))
            bt[take], btri[take] = t[take], tri[take]
    return best_t, best_tri


def render_frame(scene: Scene, pose: Pose, cam: CameraIntrinsics) -> np.ndarray:
    """Raycast one frame: nearest-hit Lambertian shading, white background.

    Returns an (H, W) float64 image in [0, 1]; row 0 is the top of the
    image and column 0 the left edge as seen by the camera.

    A mesh goes through ``_mesh_hits``. Each triangle is projected through
    the pose and intrinsics, and its pixel bounding box, grown by one
    pixel, bins it into the TILE x TILE (2 x 2) screen tiles holding a
    pixel center inside the box. Tiles run Moller-Trumbore on their rays
    and candidates in batches whose padded (rays, tiles, candidates, 3)
    array fits BATCH_BYTES; the padding is a degenerate triangle, which
    never hits. A triangle with a vertex at camera depth <= 1e-6 has no
    box: every ray is tested against all such triangles, in chunks that
    share their one list. The image equals the brute-force one (every ray
    against every triangle) byte for byte:
    - a ray can only hit a triangle whose projection holds its pixel
      center, so no tile misses a hit;
    - each ray-triangle pair runs the same arithmetic: the per-triangle
      terms once per frame, ``np.cross``, ``einsum`` with the coordinate
      axis last, and v from a BLAS product (one per tile);
    - a tie in depth still goes to the lowest triangle index: candidates
      are in ascending order, ``argmin`` takes the first of equal
      distances, and a tie between a tile's winner and a shared
      triangle's goes to the lower index.
    The one assumption is that BLAS gives the same bits for each element
    of ``d @ q.T`` whatever the product's shape, which the mesh digests in
    ``bench/reference.json`` check. So neither TILE nor BATCH_BYTES moves
    the bytes.
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
    video = np.empty((traj.frame_count, cam.height, cam.width))
    for i in range(traj.frame_count):
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
