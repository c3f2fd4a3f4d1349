"""Tests for the energy substrate: processing costs, communication,
batteries, budgets and metering."""

import pytest

from repro.energy.battery import Battery, frame_budget
from repro.energy.communication import (
    CommunicationEnergyModel,
    jpeg_frame_bytes,
)
from repro.energy.meter import EnergyMeter
from repro.energy.model import (
    ProcessingEnergyModel,
    processing_energy,
    processing_time,
)


class TestProcessingEnergy:
    """The fitted power laws must reproduce the paper's Joule figures
    at the two measured resolutions."""

    LAB_MP = 360 * 288 / 1e6
    CHAP_MP = 1024 * 768 / 1e6

    @pytest.mark.parametrize("algorithm,lab_j,chap_j", [
        ("HOG", 1.08, 9.86),
        ("ACF", 0.07, 0.315),
        ("C4", 4.92, 5.56),
        ("LSVM", 3.31, 25.06),
    ])
    def test_matches_paper_tables(self, algorithm, lab_j, chap_j):
        assert processing_energy(algorithm, self.LAB_MP) == pytest.approx(
            lab_j, rel=0.02
        )
        assert processing_energy(algorithm, self.CHAP_MP) == pytest.approx(
            chap_j, rel=0.02
        )

    @pytest.mark.parametrize("algorithm,lab_s,chap_s", [
        ("HOG", 1.5, 3.4),
        ("ACF", 0.1, 0.4),
        ("C4", 2.4, 6.8),
        ("LSVM", 6.2, 32.2),
    ])
    def test_times_match_paper_tables(self, algorithm, lab_s, chap_s):
        assert processing_time(algorithm, self.LAB_MP) == pytest.approx(
            lab_s, rel=0.02
        )
        assert processing_time(algorithm, self.CHAP_MP) == pytest.approx(
            chap_s, rel=0.02
        )

    def test_energy_ordering_on_lab(self):
        """ACF << HOG < LSVM < C4 at 360x288 (Table II)."""
        costs = {
            a: processing_energy(a, self.LAB_MP)
            for a in ("HOG", "ACF", "C4", "LSVM")
        }
        assert costs["ACF"] < costs["HOG"] < costs["LSVM"] < costs["C4"]

    def test_monotone_in_resolution(self):
        for algorithm in ("HOG", "ACF", "C4", "LSVM"):
            assert processing_energy(algorithm, 0.8) > processing_energy(
                algorithm, 0.1
            )

    def test_unknown_algorithm_raises(self):
        with pytest.raises(KeyError):
            processing_energy("YOLO", 0.1)

    def test_rejects_nonpositive_megapixels(self):
        with pytest.raises(ValueError):
            processing_energy("HOG", 0.0)


class TestProcessingEnergyModel:
    def test_bound_to_resolution(self):
        model = ProcessingEnergyModel(width=360, height=288)
        assert model.energy_per_frame("HOG") == pytest.approx(1.08, rel=0.02)

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            ProcessingEnergyModel(width=0, height=100)


class TestCommunication:
    def test_jpeg_size_scales_with_pixels(self):
        assert jpeg_frame_bytes(1024, 768) > jpeg_frame_bytes(360, 288)

    def test_per_frame_cost_small_relative_to_processing(self):
        comm = CommunicationEnergyModel(width=360, height=288)
        assert comm.per_frame_cost() < 0.1  # << HOG's 1.08 J

    def test_metadata_cost_linear(self):
        comm = CommunicationEnergyModel(width=360, height=288)
        assert comm.metadata_cost(10) == pytest.approx(
            10 * comm.metadata_cost(1)
        )

    def test_weak_link_costs_more(self):
        good = CommunicationEnergyModel(width=360, height=288)
        weak = CommunicationEnergyModel(
            width=360, height=288, link_quality=3.0
        )
        assert weak.per_frame_cost() == pytest.approx(
            3 * good.per_frame_cost()
        )

    def test_rejects_link_quality_below_one(self):
        with pytest.raises(ValueError):
            CommunicationEnergyModel(width=10, height=10, link_quality=0.5)

    def test_rejects_negative_bytes(self):
        comm = CommunicationEnergyModel(width=10, height=10)
        with pytest.raises(ValueError):
            comm.transfer_energy(-1)


class TestBattery:
    def test_draw_and_residual(self):
        battery = Battery(capacity_joules=100.0)
        drawn = battery.draw(30.0)
        assert drawn == 30.0
        assert battery.residual == 70.0

    def test_draw_clamped_at_capacity(self):
        battery = Battery(capacity_joules=10.0)
        drawn = battery.draw(25.0)
        assert drawn == 10.0
        assert battery.is_depleted

    def test_rejects_negative_draw(self):
        with pytest.raises(ValueError):
            Battery().draw(-1.0)

    def test_fraction_remaining(self):
        battery = Battery(capacity_joules=200.0)
        battery.draw(50.0)
        assert battery.fraction_remaining == pytest.approx(0.75)

    def test_frame_budget_formula(self):
        """Paper: residual / (operation_time / cadence)."""
        budget = frame_budget(
            residual_joules=10800.0,
            operation_time_s=6 * 3600,
            seconds_per_frame=2.0,
        )
        assert budget == pytest.approx(1.0)

    def test_budget_shrinks_as_battery_drains(self):
        battery = Battery(capacity_joules=1000.0)
        before = battery.budget_for(3600, 2.0)
        battery.draw(500.0)
        after = battery.budget_for(3600, 2.0)
        assert after == pytest.approx(before / 2)

    def test_rejects_bad_budget_inputs(self):
        with pytest.raises(ValueError):
            frame_budget(-1.0, 10, 1)
        with pytest.raises(ValueError):
            frame_budget(10, 0, 1)


class TestEnergyMeter:
    def test_totals_accumulate(self):
        meter = EnergyMeter()
        meter.record_processing("cam1", 2.0)
        meter.record_processing("cam1", 3.0)
        meter.record_communication("cam2", 1.5)
        assert meter.total("cam1") == 5.0
        assert meter.total() == 6.5

    def test_category_totals(self):
        meter = EnergyMeter()
        meter.record_processing("cam1", 2.0)
        meter.record_communication("cam1", 0.5)
        assert meter.total_by_category(EnergyMeter.PROCESSING) == 2.0
        assert meter.total_by_category(EnergyMeter.COMMUNICATION) == 0.5

    def test_snapshot_is_copy(self):
        meter = EnergyMeter()
        meter.record_processing("cam1", 1.0)
        snap = meter.snapshot()
        snap["cam1"]["processing"] = 99.0
        assert meter.total("cam1") == 1.0

    def test_rejects_negative_energy(self):
        with pytest.raises(ValueError):
            EnergyMeter().record_processing("cam1", -1.0)
