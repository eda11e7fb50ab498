"""Deterministic, seeded fault injection for resilience tests.

Production code calls :func:`fire` at named *sites*: ``chase.round``
(each chase round), the scan fabric's ``fabric.shard``, ``fabric.cell``
and ``fabric.lease.heartbeat``, the merge's ``merge.shard`` and
``merge.record``, and ``telemetry.frame``.  With no plan installed a fire
is a cached no-op; with a plan, rules decide whether the site kills the
process, raises, sleeps, or simulates Ctrl-C.  Everything is
deterministic: rules match on site, stringified key, and attempt number —
no wall clocks, and randomness (``probability < 1``) draws from a
per-rule :class:`random.Random` seeded from the plan seed, so the same
call sequence always fires the same faults.

Cross-process propagation rides on :data:`ENV_VAR`: :func:`install`
serialises the plan to JSON in ``os.environ``, which child processes
(fabric workers started by a test or a shell) inherit and lazily decode
on their first :func:`fire`.  The installing process is recorded in the
plan; ``kill`` rules never terminate it — a test that kills the driver
would prove nothing.

Every fault that fires increments ``resilience.faults_injected`` and
records a ``fault`` incident event (:mod:`repro.obs.events`); faults fired
inside a worker that then dies are necessarily lost with it, but their
effect is visible in the fabric's lease steals (``fabric.shards.stolen``).
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import InjectedFault, LeaseExpired
from repro.obs import events as _events
from repro.obs import metrics as _metrics

ENV_VAR = "REPRO_FAULTS"

_ACTIONS = ("raise", "kill", "delay", "interrupt", "lease_expire", "kill_merge")
_KILL_EXIT_CODE = 86  # distinctive, so a surprise worker death is greppable
_KILL_MERGE_EXIT_CODE = 87  # a merge process killed mid-write, ditto


class FaultRule(NamedTuple):
    """One site-matching rule of a fault plan.

    ``keys``/``attempts`` of None match everything; keys are compared as
    strings (callers pass whatever identifies the unit of work — a shard
    index, an ``"i,j"`` cell).  ``max_fires`` caps fires *per process*; the
    attempt filter is the cross-process lever — the fabric passes a
    shard's lease generation, so a rule with ``attempts=(0,)`` kills every
    first owner and spares every thief.
    """

    site: str
    action: str
    keys: Optional[Tuple[str, ...]] = None
    attempts: Optional[Tuple[int, ...]] = None
    delay: float = 0.0
    probability: float = 1.0
    max_fires: Optional[int] = None

    def matches(self, site: str, key: Optional[str], attempt: Optional[int]) -> bool:
        if site != self.site:
            return False
        if self.keys is not None and key not in self.keys:
            return False
        if self.attempts is not None and attempt not in self.attempts:
            return False
        return True


def rule(
    site: str,
    action: str,
    keys: Optional[Sequence[object]] = None,
    attempts: Optional[Sequence[int]] = None,
    delay: float = 0.0,
    probability: float = 1.0,
    max_fires: Optional[int] = None,
) -> FaultRule:
    """Build a :class:`FaultRule`, normalising keys to strings."""
    if action not in _ACTIONS:
        raise ValueError(f"unknown fault action {action!r} (one of {_ACTIONS})")
    return FaultRule(
        site=site,
        action=action,
        keys=None if keys is None else tuple(str(k) for k in keys),
        attempts=None if attempts is None else tuple(int(a) for a in attempts),
        delay=float(delay),
        probability=float(probability),
        max_fires=max_fires,
    )


class FaultPlan:
    """A seeded set of fault rules plus per-process fire bookkeeping."""

    def __init__(
        self,
        rules: Sequence[FaultRule],
        seed: int = 0,
        install_pid: Optional[int] = None,
    ) -> None:
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.seed = int(seed)
        self.install_pid = os.getpid() if install_pid is None else install_pid
        self._fires: Dict[int, int] = {}
        self._rngs: Dict[int, random.Random] = {}

    def _rng(self, index: int) -> random.Random:
        rng = self._rngs.get(index)
        if rng is None:
            rng = self._rngs[index] = random.Random(
                f"{self.seed}:{index}:{self.rules[index].site}"
            )
        return rng

    def match(
        self, site: str, key: Optional[str], attempt: Optional[int]
    ) -> Optional[FaultRule]:
        """The first armed rule matching this fire, fire-count updated."""
        for index, candidate in enumerate(self.rules):
            if not candidate.matches(site, key, attempt):
                continue
            fired = self._fires.get(index, 0)
            if candidate.max_fires is not None and fired >= candidate.max_fires:
                continue
            if (
                candidate.probability < 1.0
                and self._rng(index).random() >= candidate.probability
            ):
                # A skipped probabilistic draw still consumes the stream,
                # keeping the sequence deterministic.
                continue
            self._fires[index] = fired + 1
            return candidate
        return None

    def as_json(self) -> str:
        """The plan as a JSON string (for :data:`ENV_VAR`)."""
        return json.dumps(
            {
                "seed": self.seed,
                "install_pid": self.install_pid,
                "rules": [
                    {
                        "site": r.site,
                        "action": r.action,
                        "keys": None if r.keys is None else list(r.keys),
                        "attempts": None if r.attempts is None else list(r.attempts),
                        "delay": r.delay,
                        "probability": r.probability,
                        "max_fires": r.max_fires,
                    }
                    for r in self.rules
                ],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, payload: str) -> "FaultPlan":
        data = json.loads(payload)
        rules = [
            FaultRule(
                site=r["site"],
                action=r["action"],
                keys=None if r["keys"] is None else tuple(r["keys"]),
                attempts=None if r["attempts"] is None else tuple(r["attempts"]),
                delay=r["delay"],
                probability=r["probability"],
                max_fires=r["max_fires"],
            )
            for r in data["rules"]
        ]
        return cls(rules, seed=data["seed"], install_pid=data["install_pid"])


_plan: Optional[FaultPlan] = None
_env_checked: bool = False


def install(plan_or_rules, seed: int = 0) -> FaultPlan:
    """Install a fault plan process-wide and export it to child processes."""
    global _plan, _env_checked
    plan = (
        plan_or_rules
        if isinstance(plan_or_rules, FaultPlan)
        else FaultPlan(plan_or_rules, seed=seed)
    )
    _plan = plan
    _env_checked = True
    os.environ[ENV_VAR] = plan.as_json()
    return plan


def clear() -> None:
    """Remove the installed plan (and the child-process env export)."""
    global _plan, _env_checked
    _plan = None
    _env_checked = True
    os.environ.pop(ENV_VAR, None)


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, lazily decoded from the environment once."""
    global _plan, _env_checked
    if _plan is None and not _env_checked:
        _env_checked = True
        payload = os.environ.get(ENV_VAR)
        if payload:
            _plan = FaultPlan.from_json(payload)
    return _plan


def fire(site: str, key: object = None, attempt: Optional[int] = None) -> None:
    """Fault-injection hook: no-op without a matching armed rule.

    Actions: ``delay`` sleeps ``rule.delay`` seconds (then returns, so a
    deadline poll right after observes the elapsed time); ``raise`` raises
    :class:`InjectedFault`; ``interrupt`` raises ``KeyboardInterrupt``
    (simulated Ctrl-C); ``kill`` terminates the process with
    ``os._exit`` — the closest stand-in for an OOM kill — except in the
    installing process itself, where it degrades to a no-op.

    Two fabric-specific actions (see ``docs/RESILIENCE.md`` §"Sharded
    scans"): ``lease_expire`` raises :class:`~repro.errors.LeaseExpired`,
    simulating a heartbeat that discovers the shard lease was reclaimed —
    the fabric worker abandons the shard mid-scan and another owner
    resumes it from its journal.  ``kill_merge`` is a ``kill`` that
    *ignores* the installing-process guard: a merge drill targets the
    top-level ``merge-journals`` process itself, so arm it only against a
    subprocess you intend to lose (exit code 87, distinct from worker
    kills).

    The telemetry stream has its own site: ``telemetry.frame`` fires
    just before each heartbeat frame is written (key = owner name,
    attempt = frame sequence number), so chaos plans can kill a worker
    between metric capture and the durable write — the torn-frame case
    the fleet readers must tolerate.
    """
    plan = active_plan()
    if plan is None:
        return
    matched = plan.match(site, None if key is None else str(key), attempt)
    if matched is None:
        return
    _metrics.registry().counter("resilience.faults_injected").inc()
    _events.record_incident(
        _events.fault_event(
            site=site,
            action=matched.action,
            key=None if key is None else str(key),
            attempt=attempt,
        )
    )
    if matched.action == "delay":
        time.sleep(matched.delay)
    elif matched.action == "raise":
        raise InjectedFault(f"injected fault at {site!r} (key={key!r})")
    elif matched.action == "interrupt":
        raise KeyboardInterrupt(f"injected interrupt at {site!r}")
    elif matched.action == "lease_expire":
        raise LeaseExpired(f"injected lease expiry at {site!r} (key={key!r})")
    elif matched.action == "kill_merge":
        os._exit(_KILL_MERGE_EXIT_CODE)
    elif matched.action == "kill":
        if os.getpid() == plan.install_pid:
            return  # never kill the driver; a dead test harness proves nothing
        os._exit(_KILL_EXIT_CODE)
