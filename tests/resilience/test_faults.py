"""Unit tests for deterministic fault injection (:mod:`repro.resilience.faults`)."""

import os

import pytest

from repro.errors import InjectedFault
from repro.resilience import FaultPlan, faults, install, rule
from repro.resilience.faults import ENV_VAR


def test_rule_builder_normalises_and_validates():
    r = rule("fabric.cell", "raise", keys=[3, "0,1"], attempts=[0, 1])
    assert r.keys == ("3", "0,1")
    assert r.attempts == (0, 1)
    with pytest.raises(ValueError, match="unknown fault action"):
        rule("fabric.cell", "explode")


def test_rule_matching_filters():
    r = rule("fabric.cell", "raise", keys=["0,1"], attempts=[0])
    assert r.matches("fabric.cell", "0,1", 0)
    assert not r.matches("fabric.cell", "0,1", 1)  # thief spared
    assert not r.matches("fabric.cell", "2,2", 0)  # other key
    assert not r.matches("chase.round", "0,1", 0)  # other site
    wildcard = rule("chase.round", "delay")
    assert wildcard.matches("chase.round", None, None)


def test_fire_without_plan_is_a_no_op():
    faults.fire("fabric.cell", key="0,0", attempt=0)


def test_raise_action_raises_injected_fault():
    install([rule("fabric.cell", "raise")])
    with pytest.raises(InjectedFault):
        faults.fire("fabric.cell", key="0,0", attempt=0)


def test_interrupt_action_simulates_ctrl_c():
    install([rule("fabric.cell", "interrupt")])
    with pytest.raises(KeyboardInterrupt):
        faults.fire("fabric.cell")


def test_kill_is_a_no_op_in_the_installing_process():
    # A kill rule matching in the driver itself must not take the test
    # harness down with it.
    install([rule("fabric.shard", "kill")])
    faults.fire("fabric.shard", key=0, attempt=0)  # still alive


def test_max_fires_caps_per_process():
    install([rule("fabric.cell", "raise", max_fires=1)])
    with pytest.raises(InjectedFault):
        faults.fire("fabric.cell")
    faults.fire("fabric.cell")  # disarmed


def test_probability_stream_is_deterministic():
    def outcomes(seed):
        plan = FaultPlan([rule("fabric.cell", "raise", probability=0.5)], seed=seed)
        return [
            plan.match("fabric.cell", None, None) is not None for _ in range(16)
        ]

    assert outcomes(7) == outcomes(7)
    assert True in outcomes(7) and False in outcomes(7)
    assert outcomes(7) != outcomes(8)  # the seed matters


def test_plan_round_trips_through_json():
    plan = FaultPlan(
        [rule("fabric.shard", "kill", keys=[1], attempts=[0], max_fires=2)],
        seed=42,
    )
    clone = FaultPlan.from_json(plan.as_json())
    assert clone.rules == plan.rules
    assert clone.seed == plan.seed
    assert clone.install_pid == plan.install_pid


def test_install_exports_to_environment_and_clear_removes():
    install([rule("fabric.cell", "raise")], seed=3)
    assert ENV_VAR in os.environ
    decoded = FaultPlan.from_json(os.environ[ENV_VAR])
    assert decoded.rules[0].site == "fabric.cell"
    faults.clear()
    assert ENV_VAR not in os.environ


def test_worker_lazily_decodes_plan_from_environment(monkeypatch):
    # Simulate a freshly spawned worker: module globals reset, env set.
    plan = FaultPlan([rule("chase.round", "raise")], seed=0, install_pid=0)
    monkeypatch.setenv(ENV_VAR, plan.as_json())
    monkeypatch.setattr(faults, "_plan", None)
    monkeypatch.setattr(faults, "_env_checked", False)
    active = faults.active_plan()
    assert active is not None
    assert active.rules[0].site == "chase.round"
    assert active.install_pid == 0


def test_fired_faults_are_counted_and_recorded():
    from repro.obs import events, metrics

    events.drain_incidents()  # start clean
    before = metrics.registry().snapshot().get("resilience.faults_injected", 0)
    install([rule("fabric.cell", "delay", delay=0.0)])
    faults.fire("fabric.cell", key="1,2", attempt=1)
    after = metrics.registry().snapshot()["resilience.faults_injected"]
    assert after == before + 1
    incidents = events.drain_incidents()
    assert any(
        e["type"] == "fault" and e["site"] == "fabric.cell" and e["key"] == "1,2"
        for e in incidents
    )
