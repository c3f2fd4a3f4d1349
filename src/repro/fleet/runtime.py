"""The fleet runtime: cell controllers under one budget coordinator.

One :class:`FleetRuntime` lives for the duration of a ``cell``-policy
run.  It owns the per-cell :class:`~repro.core.controller.EECSController`
instances (built by an injected factory so this layer never imports
the engine), the per-cell leader bookkeeping, and the
:class:`~repro.fleet.coordinator.BudgetCoordinator` above them.

Each selection round it:

1. re-elects any cell leader that is no longer serviceable (dead or
   quarantined — the resilience ladder's transitions are mirrored in
   via :meth:`set_camera_mode`, so a cell losing its local controller
   re-elects over the survivors with no new machinery);
2. exchanges budget state with the coordinator over the network layer
   (:class:`~repro.network.messages.CellReport` up,
   :class:`~repro.network.messages.BudgetGrant` down, riding a
   :class:`~repro.network.reliability.ReliableTransport` per leader so
   coordination costs Joules — charged to the leaders' radios);
3. runs the existing greedy selection/downgrade once per cell on the
   cell's slice of the assessment, under the granted budget scale;
4. folds the cell decisions into the one global decision the engine
   loop records.

With a single cell, steps 2–4 are exact identities: no messages, a
scale of exactly 1.0, and the lone decision returned unchanged — the
hierarchy collapses to the flat protocol bit for bit.
"""

from __future__ import annotations

from typing import Callable

from repro.checkpoint.codec import (
    controller_state_to_dict,
    restore_controller_state,
)
from repro.core.controller import (
    CAMERA_QUARANTINED,
    EECSController,
    SelectionDecision,
)
from repro.core.selection import AssessmentData
from repro.energy.meter import EnergyMeter
from repro.fleet.cells import CellLayout
from repro.fleet.coordinator import BudgetCoordinator
from repro.network.messages import Ack, BudgetGrant, CellReport, Message
from repro.network.reliability import ReliableTransport
from repro.network.simulator import EventSimulator, Node

#: Node id of the top-level coordinator on the coordination plane.
COORDINATOR_NODE_ID = "fleet-coordinator"


class _LeaderNode(Node):
    """A cell leader's radio on the coordination plane."""

    def __init__(self, node_id: str, cell_id: str) -> None:
        super().__init__(node_id)
        self.cell_id = cell_id
        self.energy_joules = 0.0
        self.granted_scale: float | None = None
        self.transport = ReliableTransport(self)

    def on_transmit(self, num_bytes: int, energy_joules: float) -> None:
        self.energy_joules += energy_joules

    def receive(self, message: Message) -> None:
        if isinstance(message, Ack):
            self.transport.handle_ack(message)
            return
        if not self.transport.accept(message):
            return
        if isinstance(message, BudgetGrant):
            self.granted_scale = message.scale


class _CoordinatorNode(Node):
    """The mains-powered coordinator: answers reports with grants."""

    def __init__(self, scales: dict[str, float]) -> None:
        super().__init__(COORDINATOR_NODE_ID)
        self.scales = scales
        self.reports: dict[str, CellReport] = {}
        self.transport = ReliableTransport(self)

    def receive(self, message: Message) -> None:
        if isinstance(message, Ack):
            self.transport.handle_ack(message)
            return
        if not self.transport.accept(message):
            return
        if isinstance(message, CellReport):
            self.reports[message.cell_id] = message
            self.transport.send(
                BudgetGrant(
                    sender=self.node_id,
                    recipient=message.sender,
                    cell_id=message.cell_id,
                    scale=self.scales.get(message.cell_id, 1.0),
                )
            )


class FleetRuntime:
    """Per-run fleet state: cell controllers, leaders, coordinator."""

    def __init__(
        self,
        layout: CellLayout,
        controller_factory: Callable[[list[str]], EECSController],
        enable_downgrade: bool = False,
        telemetry=None,
        now_fn: Callable[[], float] | None = None,
    ) -> None:
        self.layout = layout
        self.enable_downgrade = enable_downgrade
        self.telemetry = telemetry
        self.now_fn = now_fn or (lambda: 0.0)
        self.coordinator = BudgetCoordinator()
        self.controllers: dict[str, EECSController] = {
            cell_id: controller_factory(list(members))
            for cell_id, members in zip(layout.cell_ids, layout.cells)
        }
        #: cell id -> camera currently hosting the cell controller.
        self.leaders: dict[str, str] = {
            cell_id: members[0]
            for cell_id, members in zip(layout.cell_ids, layout.cells)
        }
        self.coordination_joules = 0.0
        self.coordination_messages = 0

    # ------------------------------------------------------------------
    # Camera-state mirroring (resilience ladder, liveness)
    # ------------------------------------------------------------------
    def set_camera_mode(self, camera_id: str, mode: str) -> None:
        """Mirror an engine-side ladder transition into the owning
        cell's controller (so degraded/quarantined semantics apply to
        the local selection too)."""
        cell_id = self.layout.cell_of(camera_id)
        self.controllers[cell_id].set_camera_mode(camera_id, mode)

    def _serviceable(self, cell_id: str, camera_id: str) -> bool:
        state = self.controllers[cell_id].camera(camera_id)
        return state.alive and state.mode != CAMERA_QUARANTINED

    def ensure_leaders(self) -> list[tuple[str, str, str]]:
        """Re-elect leaders for cells whose leader is unserviceable.

        Election is deterministic — the first serviceable camera in
        cell order wins — and returns the ``(cell, old, new)``
        transitions (also emitted as ``cell_leader_elected`` events).
        """
        transitions: list[tuple[str, str, str]] = []
        for cell_id, members in zip(
            self.layout.cell_ids, self.layout.cells
        ):
            current = self.leaders[cell_id]
            if self._serviceable(cell_id, current):
                continue
            survivors = [
                camera_id
                for camera_id in members
                if self._serviceable(cell_id, camera_id)
            ]
            if not survivors:
                # A fully lost cell keeps its leader on record; the
                # cell controller will raise if asked to select with
                # every camera quarantined, which is the right failure.
                continue
            new_leader = survivors[0]
            self.leaders[cell_id] = new_leader
            transitions.append((cell_id, current, new_leader))
            if self.telemetry is not None:
                self.telemetry.event(
                    "cell_leader_elected",
                    time_s=self.now_fn(),
                    node_id=new_leader,
                    cell=cell_id,
                    previous_leader=current,
                )
        return transitions

    # ------------------------------------------------------------------
    # Coordinator <-> cell-controller messaging
    # ------------------------------------------------------------------
    def _exchange_budgets(
        self, scales: dict[str, float], meter: EnergyMeter
    ) -> None:
        """One report/grant round trip per cell over the network.

        Leaders upload their cell's last reading as a
        :class:`CellReport`; the coordinator answers each with a
        :class:`BudgetGrant`.  Every byte rides a reliable transport
        over simulated links, and the leaders' radio energy lands in
        the run's meter as communication Joules.
        """
        simulator = EventSimulator(telemetry=self.telemetry)
        coordinator_node = _CoordinatorNode(scales)
        simulator.register_node(coordinator_node)
        leader_nodes: dict[str, _LeaderNode] = {}
        for cell_id in self.layout.cell_ids:
            leader = self.leaders[cell_id]
            node = _LeaderNode(leader, cell_id)
            leader_nodes[cell_id] = node
            simulator.register_node(node)
            simulator.connect(leader, COORDINATOR_NODE_ID)
        for cell_id, members in zip(
            self.layout.cell_ids, self.layout.cells
        ):
            node = leader_nodes[cell_id]
            reading = self.coordinator.readings.get(cell_id)
            node.transport.send(
                CellReport(
                    sender=node.node_id,
                    recipient=COORDINATOR_NODE_ID,
                    cell_id=cell_id,
                    num_cameras=len(members),
                    achieved_objects=(
                        reading.achieved_objects if reading else 0.0
                    ),
                    desired_objects=(
                        reading.desired_objects if reading else 0.0
                    ),
                )
            )
        simulator.run()
        messages = simulator.delivered_messages
        self.coordination_messages += messages
        for cell_id, node in leader_nodes.items():
            meter.record_communication(node.node_id, node.energy_joules)
            self.coordination_joules += node.energy_joules
        if self.telemetry is not None:
            registry = self.telemetry.registry
            registry.counter(
                "fleet_coordination_messages_total",
                "Coordinator/cell-leader messages delivered.",
            ).inc(messages)
            registry.counter(
                "fleet_coordination_joules_total",
                "Radio Joules spent on coordinator/cell messaging.",
            ).inc(sum(n.energy_joules for n in leader_nodes.values()))

    # ------------------------------------------------------------------
    # The hierarchical selection round
    # ------------------------------------------------------------------
    @staticmethod
    def _cell_assessment(
        assessment: AssessmentData, members: tuple[str, ...]
    ) -> AssessmentData:
        member_set = set(members)
        # The cell's detections are the fleet assessment's own objects,
        # so the fleet memo is valid for them and outlives the cell.
        return AssessmentData(
            frames=[
                {
                    camera_id: algorithms
                    for camera_id, algorithms in frame.items()
                    if camera_id in member_set
                }
                for frame in assessment.frames
            ],
            grouping_memo=assessment.grouping_memo,
        )

    def select_round(
        self,
        assessment: AssessmentData,
        budget_overrides: dict[str, float] | None,
        meter: EnergyMeter,
    ) -> SelectionDecision:
        """Allocate budgets, select per cell, fold to one decision."""
        cell_ids = self.layout.cell_ids
        self.ensure_leaders()
        scales = self.coordinator.allocate(
            cell_ids,
            {
                cell_id: len(members)
                for cell_id, members in zip(cell_ids, self.layout.cells)
            },
        )
        single_cell = len(cell_ids) == 1
        if not single_cell:
            self._exchange_budgets(scales, meter)

        decisions: list[SelectionDecision] = []
        for cell_id, members in zip(cell_ids, self.layout.cells):
            sub_assessment = (
                assessment
                if single_cell
                else self._cell_assessment(assessment, members)
            )
            overrides = None
            if budget_overrides is not None:
                scale = scales[cell_id]
                overrides = {
                    camera_id: budget_overrides[camera_id] * scale
                    for camera_id in members
                    if camera_id in budget_overrides
                }
            span = None
            if self.telemetry is not None:
                span = self.telemetry.tracer.begin(
                    "cell_select", cell=cell_id, scale=scales[cell_id]
                )
            try:
                decision = self.controllers[cell_id].select(
                    sub_assessment,
                    enable_subset=True,
                    enable_downgrade=self.enable_downgrade,
                    budget_overrides=overrides,
                )
            finally:
                if span is not None:
                    self.telemetry.tracer.end(span)
            self.coordinator.observe(cell_id, len(members), decision)
            decisions.append(decision)
            if self.telemetry is not None:
                registry = self.telemetry.registry
                registry.counter(
                    "fleet_cell_selections_total",
                    "Selection rounds run by cell controllers.",
                    labels=("cell",),
                ).inc(cell=cell_id)
                registry.gauge(
                    "fleet_cell_cameras_selected",
                    "Cameras activated by each cell's latest selection.",
                    labels=("cell",),
                ).set(decision.num_active, cell=cell_id)
                registry.gauge(
                    "fleet_cell_budget_scale",
                    "Budget scale granted to each cell this interval.",
                    labels=("cell",),
                ).set(scales[cell_id], cell=cell_id)
        return self.coordinator.fold(decisions)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Per-cell controller state plus coordinator state, as exact
        JSON values (folded into the engine's run checkpoint)."""
        return {
            "layout": self.layout.to_dict(),
            "coordinator": self.coordinator.snapshot(),
            "leaders": dict(self.leaders),
            "coordination_joules": self.coordination_joules,
            "coordination_messages": self.coordination_messages,
            "cells": {
                cell_id: controller_state_to_dict(controller)
                for cell_id, controller in self.controllers.items()
            },
        }

    def restore(self, state: dict) -> None:
        self.coordinator.restore(state["coordinator"])
        self.leaders = dict(state["leaders"])
        self.coordination_joules = float(state["coordination_joules"])
        self.coordination_messages = int(state["coordination_messages"])
        for cell_id, controller_state in state["cells"].items():
            restore_controller_state(
                self.controllers[cell_id], controller_state
            )
