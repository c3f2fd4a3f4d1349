"""Frame rendering for the synthetic world.

The renderer produces, per camera and frame:

* an :class:`ObjectView` record for every pedestrian whose projection
  falls inside the image — bounding box in nominal pixel coordinates
  plus the visibility attributes (pixel height, occlusion fraction,
  contrast) that the detector response models consume;
* a list of static clutter regions (furniture-like distractors) that
  seed false-positive candidates, denser in the "chap"-style
  environment;
* a small grayscale image with per-camera background texture, used by
  the feature-extraction pipeline (HOG + keypoints) for the domain
  adaptation similarity of Section III.

Views, occlusions and clutter are built when a frame is rendered; the
image is painted the first time it is read (deployments work on
detections and never read one).  Rendering records the noise
generator's state and advances it past the frame's noise draw, so
every image is the same bytes whichever images are read, and in
whatever order.

Images are rendered at a reduced canvas size for speed; bounding boxes
stay in the environment's nominal resolution so geometry (homographies,
re-identification) is unaffected.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.geometry.camera import PinholeCamera
from repro.world.environment import Environment
from repro.world.scene import Scene


@dataclass(frozen=True)
class ObjectView:
    """How one pedestrian appears in one camera's frame.

    Attributes:
        person_id: Ground-truth identity of the pedestrian.
        bbox: ``(x, y, w, h)`` in nominal pixel coordinates.
        pixel_height: Height of the projected body in nominal pixels.
        occlusion: Fraction of the body covered by nearer pedestrians,
            in ``[0, 1]``.
        contrast: Object/background contrast in ``[0, 1]``.
        distance: Distance from the camera along the optical axis (m).
        shade: Clothing intensity — the appearance signature colour
            features are derived from.
        ground_xy: The pedestrian's true ground-plane position.
    """

    person_id: int
    bbox: tuple[float, float, float, float]
    pixel_height: float
    occlusion: float
    contrast: float
    distance: float
    shade: float
    ground_xy: tuple[float, float]


class FrameImage:
    """A frame's image, painted on first read and then cached.

    Holds the paint inputs (the renderer's ``_paint``, the frame's
    views and the noise generator's PCG64 state at render time) until
    the first read, then only the array.
    """

    __slots__ = ("_array", "_paint", "_views", "_noise_state")

    def __init__(
        self,
        paint: Callable[[list[ObjectView], np.random.Generator], np.ndarray],
        views: list[ObjectView],
        noise_state: dict,
    ) -> None:
        self._array: np.ndarray | None = None
        self._paint = paint
        self._views = views
        self._noise_state = noise_state

    def read(self) -> np.ndarray:
        if self._array is None:
            bit_generator = np.random.PCG64()
            bit_generator.state = self._noise_state
            self._array = self._paint(
                self._views, np.random.Generator(bit_generator)
            )
            self._paint = self._views = self._noise_state = None
        return self._array


@dataclass
class FrameObservation:
    """Everything a camera sees in one frame."""

    camera_id: str
    frame_index: int
    objects: list[ObjectView]
    clutter_regions: list[tuple[float, float, float, float]]
    frame_image: FrameImage
    image_scale: float = 1.0

    @property
    def image(self) -> np.ndarray:
        """The frame's grayscale image, painted on first read."""
        return self.frame_image.read()


def _bbox_overlap_area(
    a: tuple[float, float, float, float],
    b: tuple[float, float, float, float],
) -> float:
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    return ix * iy


def _gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur of a 2-D float image, bit-identical to
    ``scipy.ndimage.gaussian_filter(image, sigma)``.

    Same kernel (radius ``int(4σ + 0.5)``, weights normalised to sum
    1), same half-sample symmetric edges (scipy's ``reflect``, numpy's
    ``symmetric``) and the same summation order: the centre tap, then
    each symmetric pair from the outermost in, along axis 0 and then
    axis 1.
    """
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * x**2)
    weights = weights / weights.sum()
    out = image
    for _ in range(2):  # blur down the columns, then (transposed) the rows
        n = len(out)
        padded = np.pad(out, ((radius, radius), (0, 0)), mode="symmetric")
        acc = padded[radius : radius + n] * weights[radius]
        for j in range(radius, 0, -1):
            acc += (
                padded[radius - j : radius - j + n]
                + padded[radius + j : radius + j + n]
            ) * weights[radius + j]
        out = acc.T
    return np.ascontiguousarray(out)


class Renderer:
    """Renders a scene into per-camera frame observations."""

    #: Width of the reduced-resolution canvas used for feature images.
    RENDER_WIDTH = 160

    def __init__(
        self,
        scene: Scene,
        camera: PinholeCamera,
        noise_sigma: float = 0.02,
    ) -> None:
        self.scene = scene
        self.camera = camera
        self.noise_sigma = noise_sigma
        env = scene.environment
        self._env = env
        aspect = env.height / env.width
        self._render_w = self.RENDER_WIDTH
        self._render_h = max(8, int(round(self.RENDER_WIDTH * aspect)))
        self._scale = self._render_w / env.width
        # zlib.crc32 is stable across processes (unlike hash(), which
        # is randomised per interpreter for strings) — scene content
        # must be reproducible run to run.
        cam_seed = (
            env.seed * 2654435761 + zlib.crc32(camera.camera_id.encode())
        ) % (2**32)
        self._rng = np.random.default_rng(cam_seed)
        self._background = self._make_background()
        self._clutter = self._make_clutter()

    # ------------------------------------------------------------------
    # Static per-camera content
    # ------------------------------------------------------------------
    def _make_background(self) -> np.ndarray:
        """Smooth random texture field, unique per camera but sharing the
        environment's brightness/texture statistics (so same-dataset
        cameras look alike at the feature level — this is what drives
        the block structure of the paper's Table V)."""
        env = self._env
        field_ = self._rng.normal(size=(self._render_h, self._render_w))
        sigma = env.texture_scale * self._scale
        smooth = _gaussian_blur(field_, max(1.0, sigma))
        std = smooth.std()
        if std > 1e-9:
            smooth = smooth / std
        base = env.brightness + 0.12 * smooth
        # Structured wall/floor texture: an oriented grating whose
        # orientation is anchored per dataset (environment seed) with a
        # per-camera offset.  Gradient-based features latch onto it, so
        # feeds from the same camera look alike and feeds from the same
        # dataset share a family resemblance — the signal behind the
        # paper's Table V block structure.
        dataset_angle = (env.seed % 180) * np.pi / 180.0
        camera_angle = dataset_angle + self._rng.uniform(-0.25, 0.25)
        wavelength = max(4.0, env.texture_scale * self._scale * 1.5)
        ys, xs = np.mgrid[0 : self._render_h, 0 : self._render_w]
        phase = (
            2.0
            * np.pi
            / wavelength
            * (xs * np.cos(camera_angle) + ys * np.sin(camera_angle))
        )
        base = base + 0.08 * np.sin(phase + self._rng.uniform(0, 2 * np.pi))
        # A horizon gradient separates indoor (flat) from outdoor scenes.
        if not env.indoor:
            rows = np.linspace(0.12, -0.05, self._render_h)[:, None]
            base = base + rows
        return np.clip(base, 0.0, 1.0)

    def _make_clutter(self) -> list[tuple[float, float, float, float]]:
        """Static furniture-like rectangles in nominal pixel coordinates."""
        env = self._env
        count = int(round(env.clutter * 14))
        regions = []
        for _ in range(count):
            w = self._rng.uniform(0.05, 0.14) * env.width
            h = self._rng.uniform(0.12, 0.35) * env.height
            x = self._rng.uniform(0, env.width - w)
            y = self._rng.uniform(0.35 * env.height, env.height - h)
            regions.append((float(x), float(y), float(w), float(h)))
        return regions

    @property
    def clutter_regions(self) -> list[tuple[float, float, float, float]]:
        return list(self._clutter)

    # ------------------------------------------------------------------
    # Per-frame rendering
    # ------------------------------------------------------------------
    def _project_person(self, person) -> ObjectView | None:
        env = self._env
        x, y = person.position
        foot = np.array([x, y, 0.0])
        head = np.array([x, y, person.height_m])
        uv_foot = self.camera.project(foot)
        uv_head = self.camera.project(head)
        if np.any(np.isnan(uv_foot)) or np.any(np.isnan(uv_head)):
            return None
        depth = float(self.camera.depth_of(foot))
        if depth <= 0.1:
            return None
        pixel_height = abs(float(uv_foot[1] - uv_head[1]))
        pixel_width = (
            person.width_m * self.camera.intrinsics.focal_px / depth
        )
        bx = float(uv_foot[0] - pixel_width / 2.0)
        by = float(min(uv_head[1], uv_foot[1]))
        bbox = (bx, by, float(pixel_width), pixel_height)
        # Reject boxes entirely outside the image.
        if (
            bx + pixel_width < 0
            or bx > env.width
            or by + pixel_height < 0
            or by > env.height
        ):
            return None
        local_bg = self._background[
            min(self._render_h - 1, max(0, int(by * self._scale))),
            min(self._render_w - 1, max(0, int((bx + pixel_width / 2) * self._scale))),
        ]
        raw_contrast = abs(person.shade - float(local_bg))
        contrast = float(np.clip(raw_contrast * (0.5 + env.contrast), 0, 1))
        return ObjectView(
            person_id=person.person_id,
            bbox=bbox,
            pixel_height=pixel_height,
            occlusion=0.0,
            contrast=contrast,
            distance=depth,
            shade=person.shade,
            ground_xy=(float(x), float(y)),
        )

    def _with_occlusions(self, views: list[ObjectView]) -> list[ObjectView]:
        """Compute mutual occlusion: nearer bodies cover farther ones."""
        ordered = sorted(views, key=lambda v: v.distance)
        out = []
        for idx, view in enumerate(ordered):
            area = view.bbox[2] * view.bbox[3]
            if area <= 0:
                continue
            covered = 0.0
            for nearer in ordered[:idx]:
                covered += _bbox_overlap_area(view.bbox, nearer.bbox)
            occlusion = float(np.clip(covered / area, 0.0, 1.0))
            out.append(
                ObjectView(
                    person_id=view.person_id,
                    bbox=view.bbox,
                    pixel_height=view.pixel_height,
                    occlusion=occlusion,
                    contrast=view.contrast,
                    distance=view.distance,
                    shade=view.shade,
                    ground_xy=view.ground_xy,
                )
            )
        return out

    def _paint(
        self, views: list[ObjectView], rng: np.random.Generator
    ) -> np.ndarray:
        """Paint the frame image: background, clutter, then people
        far-to-near so nearer bodies overwrite farther ones, then
        ``rng``'s pixel noise."""
        img = np.array(self._background)
        h, w = img.shape
        for (cx, cy, cw, ch) in self._clutter:
            x0 = int(np.clip(cx * self._scale, 0, w - 1))
            y0 = int(np.clip(cy * self._scale, 0, h - 1))
            x1 = int(np.clip((cx + cw) * self._scale, x0 + 1, w))
            y1 = int(np.clip((cy + ch) * self._scale, y0 + 1, h))
            img[y0:y1, x0:x1] = np.clip(
                img[y0:y1, x0:x1] * 0.6 + 0.15, 0, 1
            )
        for view in sorted(views, key=lambda v: -v.distance):
            bx, by, bw, bh = view.bbox
            x0 = int(np.clip(bx * self._scale, 0, w - 1))
            y0 = int(np.clip(by * self._scale, 0, h - 1))
            x1 = int(np.clip((bx + bw) * self._scale, x0 + 1, w))
            y1 = int(np.clip((by + bh) * self._scale, y0 + 1, h))
            img[y0:y1, x0:x1] = view.shade
            # A lighter head band gives people a vertical structure that
            # the gradient-based features can latch onto.
            head_h = max(1, (y1 - y0) // 6)
            img[y0 : y0 + head_h, x0:x1] = np.clip(view.shade + 0.25, 0, 1)
        noise = rng.normal(scale=self.noise_sigma, size=img.shape)
        # float32 halves the memory of cached frame stacks.
        return np.clip(img + noise, 0.0, 1.0).astype(np.float32)

    def render(self, frame_index: int | None = None) -> FrameObservation:
        """Render the camera's view of the current scene state."""
        if frame_index is None:
            frame_index = self.scene.frame_index
        raw_views = []
        for person in self.scene.pedestrians:
            view = self._project_person(person)
            if view is not None:
                raw_views.append(view)
        views = self._with_occlusions(raw_views)
        noise_state = self._rng.bit_generator.state
        # Advance past the frame's noise exactly as _paint's draw does:
        # normal() consumes one standard normal per pixel.
        self._rng.standard_normal(self._background.shape)
        return FrameObservation(
            camera_id=self.camera.camera_id,
            frame_index=frame_index,
            objects=views,
            clutter_regions=list(self._clutter),
            frame_image=FrameImage(self._paint, views, noise_state),
            image_scale=self._scale,
        )
