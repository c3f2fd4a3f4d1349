"""Frame images are pinned to the bytes eager painting produced.

A renderer draws its per-frame pixel noise from one generator, so a
frame's image depends on every frame rendered before it.  These tests
hold SHA-256 digests of sampled images from datasets 1-4 (captured
when every image was painted at render time) and check that each image
matches whatever order the images are read in, whether some are never
read, and after a backwards replay rebuilds the renderers.  Two render
histories are pinned: ``forward`` renders frames near 0 and then
frames near 1000; ``late_first`` holds the frames near 1000 rendered
by fresh renderers, before a replay back to frame 0.  Tiled fleet
cameras share their base camera's image.

Regenerate (only when a deliberate change to the pixels is made)::

    PYTHONPATH=src python tests/test_frame_images.py
"""

from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.synthetic import make_dataset
from repro.engine.context import shared_context
from repro.engine.spec import DeploymentSpec
from repro.fleet.world import TiledFleetDataset, tiled_camera_id
from repro.world.renderer import Renderer

GOLDEN = Path(__file__).parent / "goldens" / "frame_images.json"
DATASETS = (1, 2, 3, 4)


def sampled_frames(dataset, start: int) -> list:
    """The first two ground-truth frames from ``start``."""
    gt_every = dataset.spec.gt_every
    return dataset.frames(start, start + 2 * gt_every, only_ground_truth=True)


def image_key(number: int, frame_index: int, camera_id: str) -> str:
    return f"{number}/{frame_index}/{camera_id}"


def digest(image: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(image).tobytes() + str(image.dtype).encode()
    ).hexdigest()


def observations(number: int, records) -> list[tuple[str, object]]:
    return [
        (image_key(number, record.frame_index, camera_id), obs)
        for record in records
        for camera_id, obs in record.observations.items()
    ]


def rendered_forward(number: int) -> list[tuple[str, object]]:
    """Frames near 0, then frames near 1000: no replay."""
    dataset = make_dataset(number)
    records = sampled_frames(dataset, 0) + sampled_frames(dataset, 1000)
    return observations(number, records)


def capture() -> dict[str, dict[str, str]]:
    late_first = {}
    for number in DATASETS:
        dataset = make_dataset(number)
        late = sampled_frames(dataset, 1000)
        late_first.update(
            (key, digest(obs.image)) for key, obs in observations(number, late)
        )
    return {
        "forward": {
            key: digest(obs.image)
            for number in DATASETS
            for key, obs in rendered_forward(number)
        },
        "late_first": late_first,
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_sample(golden):
    forward, late_first = golden["forward"], golden["late_first"]
    assert len(forward) == 4 * 4 * 4
    assert len(late_first) == 4 * 2 * 4
    # The render history shapes the noise: a frame rendered by fresh
    # renderers differs from the same frame rendered after others.
    digests = list(forward.values()) + list(late_first.values())
    assert len(set(digests)) == len(digests)


@pytest.mark.parametrize("number", DATASETS)
def test_forward_reads_match(golden, number):
    for key, obs in rendered_forward(number):
        assert digest(obs.image) == golden["forward"][key], key


@pytest.mark.parametrize("number", DATASETS)
def test_reverse_reads_match(golden, number):
    for key, obs in reversed(rendered_forward(number)):
        assert digest(obs.image) == golden["forward"][key], key


@pytest.mark.parametrize("number", DATASETS)
def test_backwards_replay_matches(golden, number):
    """Frames near 1000 first, then frames near 0: the second call
    rewinds the scene and rebuilds every renderer.  No image is read
    until both calls are done."""
    dataset = make_dataset(number)
    late = observations(number, sampled_frames(dataset, 1000))
    early = observations(number, sampled_frames(dataset, 0))
    for key, obs in late:
        assert digest(obs.image) == golden["late_first"][key], key
    for key, obs in early:
        assert digest(obs.image) == golden["forward"][key], key


@pytest.mark.parametrize("number", DATASETS)
def test_unread_images_do_not_shift_later_ones(golden, number):
    """Reading every other image leaves the rest exactly as pinned."""
    for key, obs in rendered_forward(number)[1::2]:
        assert digest(obs.image) == golden["forward"][key], key


def test_tiled_fleet_shares_base_images(golden):
    """A fleet replaying backwards, read newest first."""
    base = make_dataset(1)
    fleet = TiledFleetDataset(base, 6)
    late = fleet.frames(1000, 1050, only_ground_truth=True)
    early = fleet.frames(0, 50, only_ground_truth=True)
    for record in reversed(late + early):
        base_record = base.frames(record.frame_index, record.frame_index + 1)[0]
        for base_id in base.camera_ids:
            tiled = record.observations[tiled_camera_id(0, base_id)]
            key = image_key(1, record.frame_index, base_id)
            history = "late_first" if record.frame_index >= 1000 else "forward"
            assert digest(tiled.image) == golden[history][key], key
            assert tiled.image is base_record.observations[base_id].image
        for base_id in ("lab-cam1", "lab-cam2"):  # tile 1's cameras
            first, second = (
                record.observations[tiled_camera_id(tile, base_id)]
                for tile in (0, 1)
            )
            assert second.frame_image is first.frame_image


@pytest.mark.parametrize("number", DATASETS)
def test_render_advances_noise_as_an_eager_draw(number):
    """After ``render()`` the renderer's generator sits exactly where
    an eager ``normal(scale=noise_sigma, size=shape)`` draw leaves it."""
    dataset = make_dataset(number)
    renderer: Renderer = dataset._renderers[0]
    for _ in range(3):
        expected = copy.deepcopy(renderer._rng)
        obs = renderer.render()
        expected.normal(scale=renderer.noise_sigma, size=obs.image.shape)
        assert (
            renderer._rng.bit_generator.state
            == expected.bit_generator.state
        )


def test_read_paints_once():
    obs = make_dataset(1).frames(1000, 1001)[0].observation("lab-cam1")
    assert obs.frame_image._array is None
    first = obs.image
    assert obs.frame_image._array is not None
    assert obs.image is first


#: A training seed no other test uses, so the trained dataset (and its
#: frame cache) belongs to this test alone.
PRIVATE_TRAIN_SEED = 1789


def test_deployments_paint_nothing():
    """Ideal flat, cell-fleet and networked deployments work on views
    and detections: no frame they render or train on gets painted."""
    window = {"start": 1000, "end": 1300, "budget": 2.0}
    DeploymentSpec(
        dataset_number=1, policy="subset", train_seed=PRIVATE_TRAIN_SEED,
        **window,
    ).execute()
    DeploymentSpec(
        dataset_number=1, policy="cell", fleet_cameras=8, cells=2,
        train_seed=PRIVATE_TRAIN_SEED, **window,
    ).execute()
    DeploymentSpec(
        dataset_number=1, network=True, train_seed=PRIVATE_TRAIN_SEED,
        start=1000, end=1000 + 25 * 6, budget=2.0,
    ).execute()
    dataset = shared_context(1, train_seed=PRIVATE_TRAIN_SEED).dataset
    cached = [
        obs
        for record in dataset._frame_cache.values()
        for obs in record.observations.values()
    ]
    assert len(cached) >= 4 * (40 + 12)  # training and deployment frames
    assert not [
        obs.frame_image for obs in cached
        if obs.frame_image._array is not None
    ]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
