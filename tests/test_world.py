"""Tests for the synthetic world: environments, pedestrians, scenes,
rendering."""

import numpy as np
import pytest

from repro.world.environment import CHAP, LAB, TERRACE, Environment
from repro.world.pedestrian import (
    Pedestrian,
    RandomWaypointWalker,
    spawn_pedestrians,
)
from repro.world.renderer import Renderer
from repro.world.scene import Scene, make_camera_ring


class TestEnvironment:
    def test_resolutions_match_paper(self):
        assert (LAB.width, LAB.height) == (360, 288)
        assert (CHAP.width, CHAP.height) == (1024, 768)
        assert (TERRACE.width, TERRACE.height) == (360, 288)

    def test_chap_is_most_cluttered(self):
        assert CHAP.clutter > LAB.clutter
        assert CHAP.clutter > TERRACE.clutter

    def test_rejects_bad_family(self):
        with pytest.raises(ValueError):
            Environment(
                name="x", family="underwater", indoor=True, brightness=0.5,
                contrast=0.5, clutter=0.1, texture_scale=10, width=100,
                height=100,
            )

    def test_rejects_out_of_range_brightness(self):
        with pytest.raises(ValueError):
            Environment(
                name="x", family="outdoor", indoor=False, brightness=1.5,
                contrast=0.5, clutter=0.1, texture_scale=10, width=100,
                height=100,
            )

    def test_megapixels(self):
        assert LAB.megapixels == pytest.approx(0.10368)


class TestPedestrians:
    def test_spawn_inside_bounds(self, rng):
        walkers = spawn_pedestrians(10, (0, 0, 5, 5), rng)
        assert len(walkers) == 10
        for w in walkers:
            x, y = w.pedestrian.position
            assert 0 <= x <= 5 and 0 <= y <= 5

    def test_ids_unique(self, rng):
        walkers = spawn_pedestrians(8, (0, 0, 5, 5), rng)
        ids = {w.pedestrian.person_id for w in walkers}
        assert len(ids) == 8

    def test_rejects_negative_count(self, rng):
        with pytest.raises(ValueError):
            spawn_pedestrians(-1, (0, 0, 5, 5), rng)

    def test_walker_moves(self, rng):
        person = Pedestrian(person_id=0, position=np.array([2.0, 2.0]))
        walker = RandomWaypointWalker(
            person, bounds=(0, 0, 5, 5), speed=1.0, pause_frames=0
        )
        start = person.position.copy()
        for _ in range(50):
            walker.step(0.1, rng)
        assert np.linalg.norm(person.position - start) > 0.0

    def test_walker_stays_in_bounds(self, rng):
        person = Pedestrian(person_id=0, position=np.array([2.0, 2.0]))
        walker = RandomWaypointWalker(
            person, bounds=(0, 0, 5, 5), speed=2.0, pause_frames=0
        )
        for _ in range(500):
            walker.step(0.1, rng)
            x, y = person.position
            assert -0.01 <= x <= 5.01 and -0.01 <= y <= 5.01

    def test_step_distance_bounded_by_speed(self, rng):
        person = Pedestrian(person_id=0, position=np.array([1.0, 1.0]))
        walker = RandomWaypointWalker(
            person, bounds=(0, 0, 8, 8), speed=1.5, pause_frames=0
        )
        for _ in range(100):
            before = person.position.copy()
            walker.step(0.04, rng)
            moved = np.linalg.norm(person.position - before)
            assert moved <= 1.5 * 0.04 + 1e-9


class TestScene:
    def test_deterministic_replay(self):
        a = Scene(LAB, num_people=4, seed=3)
        b = Scene(LAB, num_people=4, seed=3)
        for _ in range(30):
            a.step()
            b.step()
        for pa, pb in zip(a.pedestrians, b.pedestrians):
            np.testing.assert_allclose(pa.position, pb.position)

    def test_frame_index_advances(self):
        scene = Scene(LAB, num_people=2)
        assert scene.frame_index == 0
        scene.step()
        assert scene.frame_index == 1

    def test_run_to_frame(self):
        scene = Scene(LAB, num_people=2)
        scene.run_to_frame(17)
        assert scene.frame_index == 17

    def test_cannot_rewind(self):
        scene = Scene(LAB, num_people=2)
        scene.run_to_frame(5)
        with pytest.raises(ValueError):
            scene.run_to_frame(3)

    def test_landmarks_inside_bounds(self):
        scene = Scene(LAB, num_people=2, bounds=(0, 0, 8, 8))
        assert scene.landmarks.shape[1] == 2
        assert np.all(scene.landmarks > -1.0)
        assert np.all(scene.landmarks < 9.0)


class TestCameraRing:
    def test_four_cameras_have_distinct_poses(self):
        cams = make_camera_ring(LAB, num_cameras=4)
        positions = {(c.pose.x, c.pose.y) for c in cams}
        assert len(positions) == 4

    def test_cameras_see_region_center(self):
        cams = make_camera_ring(LAB, num_cameras=4, bounds=(0, 0, 8, 8))
        center = np.array([4.0, 4.0, 0.9])
        for cam in cams:
            u, v = cam.project(center)
            assert 0 <= u <= cam.intrinsics.width
            assert 0 <= v <= cam.intrinsics.height

    def test_rejects_zero_cameras(self):
        with pytest.raises(ValueError):
            make_camera_ring(LAB, num_cameras=0)

    def test_scaled_ring_extends_standard_geometry(self):
        """Rings beyond eight cameras keep the first eight placements
        unchanged, so scaled-up datasets extend rather than replace
        the evaluation geometry."""
        base = make_camera_ring(LAB, num_cameras=8)
        scaled = make_camera_ring(LAB, num_cameras=16)
        assert len(scaled) == 16
        for small, big in zip(base, scaled):
            assert (small.pose.x, small.pose.y) == (big.pose.x, big.pose.y)
        positions = {(c.pose.x, c.pose.y) for c in scaled}
        assert len(positions) == 16

    def test_resolution_follows_environment(self):
        cams = make_camera_ring(CHAP, num_cameras=2)
        intrinsics = cams[0].intrinsics
        assert (intrinsics.width, intrinsics.height) == (1024, 768)


class TestRenderer:
    @pytest.fixture()
    def rendered(self):
        scene = Scene(LAB, num_people=5, seed=7)
        camera = make_camera_ring(LAB, num_cameras=1)[0]
        renderer = Renderer(scene, camera)
        scene.run_to_frame(10)
        return renderer.render()

    def test_image_shape_and_range(self, rendered):
        assert rendered.image.ndim == 2
        assert rendered.image.min() >= 0.0
        assert rendered.image.max() <= 1.0

    def test_objects_have_valid_bboxes(self, rendered):
        for view in rendered.objects:
            _, _, w, h = view.bbox
            assert w > 0 and h > 0

    def test_occlusion_in_unit_interval(self, rendered):
        for view in rendered.objects:
            assert 0.0 <= view.occlusion <= 1.0

    def test_bbox_bottom_matches_foot_projection(self):
        scene = Scene(LAB, num_people=5, seed=7)
        camera = make_camera_ring(LAB, num_cameras=1)[0]
        renderer = Renderer(scene, camera)
        scene.run_to_frame(5)
        obs = renderer.render()
        for view in obs.objects:
            bx, by, bw, bh = view.bbox
            foot = np.array([view.ground_xy[0], view.ground_xy[1], 0.0])
            uv = camera.project(foot)
            assert bx + bw / 2 == pytest.approx(uv[0], abs=1e-6)
            assert by + bh == pytest.approx(uv[1], abs=1e-6)

    def test_nearer_person_occludes_farther(self):
        scene = Scene(LAB, num_people=0, seed=1)
        camera = make_camera_ring(LAB, num_cameras=1)[0]
        from repro.world.pedestrian import Pedestrian, RandomWaypointWalker

        # Two people on the camera's line of sight, one behind the other.
        near = Pedestrian(person_id=0, position=np.array([2.0, 2.0]))
        far = Pedestrian(person_id=1, position=np.array([3.0, 3.0]))
        scene.walkers = [
            RandomWaypointWalker(near, bounds=scene.bounds),
            RandomWaypointWalker(far, bounds=scene.bounds),
        ]
        obs = Renderer(scene, camera).render()
        by_id = {v.person_id: v for v in obs.objects}
        assert by_id[0].occlusion == 0.0
        assert by_id[1].occlusion > 0.1

    def test_clutter_scales_with_environment(self):
        scene_lab = Scene(LAB, num_people=1)
        scene_chap = Scene(CHAP, num_people=1)
        cam_lab = make_camera_ring(LAB, num_cameras=1)[0]
        cam_chap = make_camera_ring(CHAP, num_cameras=1)[0]
        r_lab = Renderer(scene_lab, cam_lab)
        r_chap = Renderer(scene_chap, cam_chap)
        assert len(r_chap.clutter_regions) > len(r_lab.clutter_regions)

    def test_same_camera_background_is_stable(self):
        scene = Scene(LAB, num_people=0, seed=2)
        camera = make_camera_ring(LAB, num_cameras=1)[0]
        renderer = Renderer(scene, camera, noise_sigma=0.0)
        img1 = renderer.render().image
        scene.step()
        img2 = renderer.render().image
        np.testing.assert_allclose(img1, img2, atol=1e-6)
