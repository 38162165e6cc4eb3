"""Fleet tier: Scout Master routing over 100+ team Scouts (Appendix C).

The paper's Appendix C sketches a *Scout Master* that composes many
per-team Scouts into one global incident router; ROADMAP item 1 asks
for that at fleet scale.  This module is the serving layer for it:

* **Roster generation.**  :func:`build_fleet_roster` replicates the
  simulation's 12-team universe (:func:`~repro.simulation.teams.
  default_teams`) across regions — ``PhyNet-r00``, ``Storage-r03``, …
  — producing 50–200 region-qualified team Scouts whose dependency
  edges mirror the base graph within each region.  Per-team accuracy
  and confidence spread (Appendix D's ``P`` and ``β``) draw from a
  seeded generator, so a roster is a pure function of ``(n_teams,
  seed)``.
* **Master policy.**  :class:`MasterPolicy` wraps the Appendix C
  strawman (:class:`~repro.simulation.scout_master.ScoutMaster`) in
  the three fleet-scale refinements: cross-team confidence
  *calibration* (a reliability curve from
  :mod:`repro.analysis.calibration` maps each Scout's raw confidence
  to its observed bucket accuracy, so a chronically over-confident
  team stops outranking a well-calibrated one), *top-k candidate
  ranking*, and a deterministic *re-route chain* — when the top
  candidate bounces the incident or its breaker is open, the router
  walks the ranked chain instead of giving up (DeepTriage's
  transfer-path framing).
* **Sharded multi-process serving.**  Scouts are partitioned into a
  fixed number of shards; scoring fans out one task per (shard,
  incident-chunk) over a ``ProcessPoolExecutor`` so the fleet escapes
  the GIL.  A task is one array kernel over the shard's Scouts and the
  chunk's incidents, and returns its verdicts, confidences, attempts
  and ok flags as columns; the parent composes chunk *k* while later
  chunks still score.  Each server owns its shard context; pool
  workers receive a copy once and open the roster's signal matrix as
  a **read-only memmap** — the parent materializes it once on disk and
  workers never re-pickle or rebuild it.  Tasks are *pure*: a task's
  result is a function of the task alone, so decisions, decision logs,
  and the Prometheus exposition are byte-identical across worker
  counts and across process-pool vs. in-process execution.
* **Per-Scout resilience, parent-side.**  The existing
  :class:`~.breaker.CircuitBreaker` machinery guards each fleet Scout
  exactly as :class:`~.manager.IncidentManager` guards its Scouts, and
  retry budgets follow :class:`~.retry.RetryPolicy` semantics
  (``max_attempts`` bounded, deterministic).  Breaker state lives in
  the parent and is advanced in arrival order — process workers are
  stateless by design, because pool scheduling must never influence
  breaker transitions.

Determinism contract: under a
:class:`~repro.monitoring.faults.FakeClock`, the same roster seed and
incident trace produce a byte-identical decision log and exposition for
``workers ∈ {1, 2, 4, …}``, pool or no pool.  Every stochastic draw is
a counter-free hash of ``(seed, team, incident_id, purpose)`` — no
shared RNG stream exists to depend on scheduling.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import tempfile
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property, partial
from multiprocessing import get_context

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..analysis.calibration import ReliabilityBucket, reliability_curve
from ..incidents.incident import Incident
from ..obs import catalog
from ..simulation.scout_master import ScoutAnswer, ScoutMaster
from ..simulation.teams import Team, TeamRegistry, default_teams
from .breaker import BreakerPolicy, BreakerState, CircuitBreaker

__all__ = [
    "FleetScoutSpec",
    "FleetRoster",
    "FleetDecision",
    "MasterPolicy",
    "FleetServer",
    "build_fleet_roster",
]

# Columns in the per-team signal matrix (the memmap-backed monitoring
# shard each worker slices per incident).
_SIGNAL_COLS = 256
# Window of signal columns pooled per (team, incident) scoring.
_SIGNAL_WINDOW = 32


@dataclass(frozen=True)
class FleetScoutSpec:
    """One region-qualified team Scout (Appendix D's ``P``/``β`` model)."""

    team: str
    base: str
    region: int
    accuracy: float
    beta: float


@dataclass(frozen=True)
class FleetRoster:
    """A generated fleet: registry + per-team Scout specs.

    ``specs`` is sorted by team name; ``seed`` is the generation seed
    (it also seeds every per-incident draw the fleet makes).
    """

    registry: TeamRegistry
    specs: tuple[FleetScoutSpec, ...]
    seed: int

    @property
    def teams(self) -> list[str]:
        return [spec.team for spec in self.specs]

    @cached_property
    def _regions(self) -> dict[str, list[str]]:
        regions: dict[str, list[str]] = {}
        for spec in self.specs:
            regions.setdefault(spec.base, []).append(spec.team)
        return regions

    def regions_of(self, base: str) -> list[str]:
        """Region-qualified names carrying one base team, sorted."""
        return list(self._regions.get(base, ()))

    def assign(self, base: str, incident_id: int) -> str:
        """The region-qualified truth team for one incident.

        The simulation's ground truth lives in the 12-team base
        universe; the fleet spreads incidents across its regional
        copies deterministically by incident id.
        """
        names = self._regions.get(base)
        if not names:
            return base
        return names[incident_id % len(names)]

    @staticmethod
    def base_of(team: str) -> str:
        """Strip the region qualifier (``PhyNet-r03`` → ``PhyNet``)."""
        return team.rsplit("-r", 1)[0]


def build_fleet_roster(n_teams: int = 120, seed: int = 0) -> FleetRoster:
    """Generate an ``n_teams``-strong fleet from the simulation roster.

    The 12-team universe replicates across ``ceil(n_teams / 12)``
    regions in the base registry's canonical (sorted) order; dependency
    edges stay within a region, mirroring the base graph.  Teams beyond
    ``n_teams`` in the (region, base) sequence are trimmed and dangling
    dependency edges dropped with them.
    """
    if n_teams < 1:
        raise ValueError("n_teams must be >= 1")
    base = default_teams()
    base_names = base.names  # sorted — the canonical region layout
    n_regions = math.ceil(n_teams / len(base_names))
    kept: list[tuple[str, str, int]] = []  # (qualified, base, region)
    for region in range(n_regions):
        for name in base_names:
            if len(kept) >= n_teams:
                break
            kept.append((f"{name}-r{region:02d}", name, region))
    kept_names = {qualified for qualified, _, _ in kept}

    registry = TeamRegistry()
    for qualified, name, region in kept:
        team = base[name]
        deps = tuple(
            f"{dep}-r{region:02d}"
            for dep in team.depends_on
            if f"{dep}-r{region:02d}" in kept_names
        )
        registry.add(
            Team(
                qualified,
                depends_on=deps,
                internal=team.internal,
                symptoms=team.symptoms,
            )
        )
    registry.validate()

    # Appendix D parameters per Scout, in sorted-team order so the
    # draw sequence is a pure function of (n_teams, seed).
    rng = np.random.default_rng(seed)
    specs = []
    for qualified in sorted(kept_names):
        base_name, region = qualified.rsplit("-r", 1)
        specs.append(
            FleetScoutSpec(
                team=qualified,
                base=base_name,
                region=int(region),
                accuracy=float(rng.uniform(0.93, 0.99)),
                beta=float(rng.uniform(0.05, 0.30)),
            )
        )
    return FleetRoster(registry=registry, specs=tuple(specs), seed=seed)


# -- deterministic draws ------------------------------------------------------

_U64 = struct.Struct(">Q")


def _draw(key: str) -> float:
    """A uniform [0, 1) draw addressed by content, not by stream order.

    Every stochastic decision the fleet makes draws through here, keyed
    on what the draw is *for* — ``f"{seed}|{purpose}|{team}|{incident}"``
    plus the attempt for retries — so there is no shared RNG whose
    stream order could couple results to scheduling or worker count.
    """
    return _U64.unpack_from(hashlib.sha256(key.encode()).digest())[0] / 2.0**64


def _draws(prefix: str, suffixes: list[bytes]) -> np.ndarray:
    """:func:`_draw` of every key ``prefix + suffix``, as an array.

    The hashed bytes are exactly the keys' bytes; the prefix is hashed
    once and copied per key, and the leading 8 digest bytes of every
    key convert to floats in one pass (big-endian ``uint64`` to
    ``float64`` rounds like Python's ``int / float``).
    """
    head = hashlib.sha256(prefix.encode())
    digests = []
    for suffix in suffixes:
        h = head.copy()
        h.update(suffix)
        digests.append(h.digest())
    return np.frombuffer(b"".join(digests), dtype=">u8")[::4] / 2.0**64


# -- the scoring kernel -------------------------------------------------------


@dataclass(frozen=True)
class _Shard:
    """One shard's Scouts as columns, in roster-row order."""

    rows: np.ndarray  # roster rows (signal-matrix rows) of the shard
    teams: tuple[str, ...]
    accuracy: np.ndarray
    beta: np.ndarray
    broken: np.ndarray  # bool: hard-down Scouts


def _signals(ctx: dict) -> np.ndarray:
    """The context's read-only signal memmap, opened on first use."""
    signals = ctx["signals"]
    if signals is None:
        signals = ctx["signals"] = np.load(ctx["signal_path"], mmap_mode="r")
    return signals


def _score_chunk(
    ctx: dict,
    shard_id: int,
    ids: tuple[int, ...],
    truths: tuple[str, ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Score one shard's Scouts over one incident chunk.

    Returns ``(ok, verdict, confidence, attempts)``, each shaped
    ``(len(ids), shard size)`` with columns in the shard's roster order.
    ``ok`` is False where every retry attempt failed; ``verdict`` is
    meaningful where ``ok`` (False elsewhere), and ``confidence`` where
    ``ok & verdict`` — the only cells the Master ranks and calibration
    fits on — and 0.0 elsewhere.  Pure: output depends only on the
    context and the arguments.  The optional ``io_stall_s`` models the network-bound
    monitoring fetch a real fleet pays once per chunk — real wall time
    (the overlap process workers buy) that never touches the results.
    """
    stall = ctx["io_stall_s"]
    if stall:
        # Real wall time is the point: the stall models the
        # network-bound fetch that process workers overlap, and it
        # never reaches any result or logged value.
        time.sleep(stall)  # scoutlint: disable=naked-clock
    shard: _Shard = ctx["shards"][shard_id]
    seed = ctx["seed"]
    failure_rate = ctx["failure_rate"]
    max_attempts = ctx["max_attempts"]
    n, m = len(ids), len(shard.teams)

    # Draw-key suffixes, shared by every team of the task.
    keys = [str(incident_id).encode() for incident_id in ids]

    # Transient-failure model with RetryPolicy semantics: attempt k has
    # its own content-addressed draw, so a retry genuinely re-rolls.
    # Draws are never negative, so only a positive rate can fail one.
    ok = np.ones((n, m), dtype=bool)
    attempts = np.ones((n, m), dtype=np.int64)
    ok[:, shard.broken] = False
    attempts[:, shard.broken] = max_attempts
    live = np.flatnonzero(~shard.broken).tolist()
    if failure_rate > 0.0:
        for j in live:
            prefix = f"{seed}|fail|{shard.teams[j]}|"
            failing = np.arange(n)
            for attempt in range(max_attempts):
                if not failing.size:
                    break
                tail = f"|{attempt}".encode()
                draws = _draws(prefix, [keys[i] + tail for i in failing])
                passed = draws >= failure_rate
                attempts[failing[passed], j] = attempt + 1
                failing = failing[~passed]
            ok[failing, j] = False
            attempts[failing, j] = max_attempts

    acc = np.zeros((n, m))
    for j in live:
        acc[:, j] = _draws(f"{seed}|acc|{shard.teams[j]}|", keys)

    column = {team: j for j, team in enumerate(shard.teams)}
    truth = np.zeros((n, m), dtype=bool)
    for i, team in enumerate(truths):
        j = column.get(team)
        if j is not None:
            truth[i, j] = True
    correct = acc < shard.accuracy
    verdict = (truth == correct) & ok

    # Only a yes-answer's confidence is ever read, so the Appendix D
    # confidence is computed for the yes cells alone; every other cell
    # reports 0.0, as a failed call does.  Cells run team-major, so
    # each team's "conf" key prefix is hashed once.
    confidence = np.zeros((n, m))
    cols, rows = np.nonzero(verdict.T)
    if not cols.size:
        return ok, verdict, confidence, attempts
    said_yes, firsts = np.unique(cols, return_index=True)
    spread = np.concatenate([
        _draws(f"{seed}|conf|{shard.teams[j]}|", [keys[i] for i in run.tolist()])
        for j, run in zip(said_yes.tolist(), np.split(rows, firsts[1:]))
    ])

    # The monitoring-shard read: each yes cell's window of its team's
    # signal row, gathered as one contiguous 32-float row per cell and
    # reduced along it (equal, bit for bit, to a per-pair
    # window.mean() + std()).
    starts = np.array(
        [incident_id % (_SIGNAL_COLS - _SIGNAL_WINDOW) for incident_id in ids]
    )
    windows = sliding_window_view(_signals(ctx), _SIGNAL_WINDOW, axis=1)[
        shard.rows[cols], starts[rows]
    ]
    stat = windows.mean(axis=1) + windows.std(axis=1)

    # The signal window perturbs the confidence inside its Appendix D
    # band — the memmap is load-bearing, not decorative.
    u = (spread + stat % 1.0) % 1.0
    beta = shard.beta[cols]
    raw = np.where(correct[rows, cols], 0.8 - beta * u, 0.5 + beta * u)
    confidence[rows, cols] = [round(c, 9) for c in raw.tolist()]
    return ok, verdict, confidence, attempts


# -- worker-process plumbing --------------------------------------------------

# A pool worker's context: the shards, the draw knobs and the lazily
# opened read-only memmap.  Each pool belongs to one server, so a worker
# process holds exactly one context, installed once by the executor
# initializer; tasks carry only the shard id and the incident chunk.
# In-process scoring never reads it — each server scores against its
# own context.
_WORKER_CTX: dict = {}


def _fleet_worker_init(payload: dict) -> None:
    """Executor initializer: install the server's context in this worker."""
    _WORKER_CTX.clear()
    _WORKER_CTX.update(payload, signals=None)


def _pooled_score_chunk(
    shard_id: int, ids: tuple[int, ...], truths: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    return _score_chunk(_WORKER_CTX, shard_id, ids, truths)


# -- the Master policy --------------------------------------------------------


def _calibrate(
    curve: tuple[ReliabilityBucket, ...], confidence: float
) -> float:
    """Raw confidence → its bucket's observed accuracy on ``curve``."""
    for bucket in curve:
        if bucket.lower <= confidence <= bucket.upper:
            return bucket.accuracy
    return confidence


# Fields of one decision's fixed-width record in _DecisionBlock.rows.
_SUGGESTED, _REROUTES, _YES, _ERRORS, _CAND_END, _CHAIN_END, _OPEN_END = range(7)
_RECORD = 7


class _DecisionBlock:
    """The decisions of one composed chunk, stored as columns.

    The fleet keeps every decision it makes, so what a decision costs
    to keep is what its columns cost: one fixed-width record in
    ``rows`` (suggested roster row + 1 or 0, reroutes, yes-answers,
    errors, and the end offsets of its candidate, chain and
    breaker-open runs), its candidates' roster rows and raw
    confidences, and its chain and breaker-open roster rows.  The
    calibrated confidence of a candidate is recomputed from ``curve``,
    the reliability curve the chunk was ranked under.
    """

    __slots__ = (
        "teams", "curve", "ids", "truths", "rows",
        "cand_teams", "cand_conf", "chain", "gated",
    )

    def __init__(self, teams, curve, ids, truths, rows, cand_teams,
                 cand_conf, chain, gated) -> None:
        self.teams = teams
        self.curve = curve
        try:
            self.ids = array("q", ids)
        except OverflowError:  # ids beyond int64 stay Python ints
            self.ids = tuple(ids)
        self.truths = truths
        self.rows = _narrow(rows)
        self.cand_teams = _narrow(cand_teams)
        self.cand_conf = array("d", cand_conf)
        self.chain = _narrow(chain)
        self.gated = _narrow(gated)


def _narrow(values: list[int]) -> array:
    """The narrowest unsigned array that holds ``values``."""
    return array("H" if max(values, default=0) <= 0xFFFF else "I", values)


class FleetDecision:
    """One fleet routing decision, with its full re-route chain.

    ``candidates`` is the calibration-ranked top-k ``(team, confidence,
    calibrated)``; ``chain`` is the deterministic re-route order
    actually walked (strawman pick first); ``reroutes`` counts the
    chain entries that bounced or were breaker-skipped before
    ``suggested_team`` accepted.  ``suggested_team`` is None when the
    fleet fell back to the legacy routing process.

    A decision is a read-only view of its row in the columns of the
    chunk that composed it (:class:`_DecisionBlock`); equality, hashing
    and ``repr`` go by the field values.
    """

    __slots__ = ("_block", "_i")

    def __init__(self, block: _DecisionBlock, index: int) -> None:
        self._block = block
        self._i = index

    def _field(self, field: int) -> int:
        return self._block.rows[_RECORD * self._i + field]

    def _run(self, end_field: int) -> slice:
        start = self._field(end_field - _RECORD) if self._i else 0
        return slice(start, self._field(end_field))

    @property
    def incident_id(self) -> int:
        return self._block.ids[self._i]

    @property
    def truth_team(self) -> str:
        return self._block.truths[self._i]

    @property
    def suggested_team(self) -> str | None:
        row = self._field(_SUGGESTED)
        return self._block.teams[row - 1] if row else None

    @property
    def candidates(self) -> tuple[tuple[str, float, float], ...]:
        block = self._block
        run = self._run(_CAND_END)
        return tuple(
            (block.teams[row], conf, _calibrate(block.curve, conf))
            for row, conf in zip(block.cand_teams[run], block.cand_conf[run])
        )

    @property
    def chain(self) -> tuple[str, ...]:
        teams = self._block.teams
        return tuple(teams[row] for row in self._block.chain[self._run(_CHAIN_END)])

    @property
    def reroutes(self) -> int:
        return self._field(_REROUTES)

    @property
    def answers_yes(self) -> int:
        return self._field(_YES)

    @property
    def errors(self) -> int:
        return self._field(_ERRORS)

    @property
    def breaker_open(self) -> tuple[str, ...]:
        teams = self._block.teams
        return tuple(teams[row] for row in self._block.gated[self._run(_OPEN_END)])

    def _values(self) -> tuple:
        return (
            self.incident_id, self.truth_team, self.suggested_team,
            self.candidates, self.chain, self.reroutes, self.answers_yes,
            self.errors, self.breaker_open,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, FleetDecision):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        names = (
            "incident_id", "truth_team", "suggested_team", "candidates",
            "chain", "reroutes", "answers_yes", "errors", "breaker_open",
        )
        body = ", ".join(
            f"{name}={value!r}" for name, value in zip(names, self._values())
        )
        return f"FleetDecision({body})"

    def to_record(self) -> dict:
        """A JSON-friendly, key-sorted record for the decision log."""
        return {
            "incident_id": self.incident_id,
            "truth_team": self.truth_team,
            "suggested_team": self.suggested_team,
            "candidates": [
                [team, round(conf, 6), round(cal, 6)]
                for team, conf, cal in self.candidates
            ],
            "chain": list(self.chain),
            "reroutes": self.reroutes,
            "answers_yes": self.answers_yes,
            "errors": self.errors,
            "breaker_open": list(self.breaker_open),
        }


class MasterPolicy:
    """Calibrated top-k ranking over the Appendix C strawman.

    The strawman's pick (dependency-preferred) heads the re-route
    chain; the remaining chain entries are the other yes-answers ranked
    by *calibrated* confidence — each raw confidence mapped to the
    observed accuracy of its reliability bucket, so ranking compares
    what a confidence has historically *meant* rather than the number
    itself.  Until :meth:`fit` runs, calibrated == raw.
    """

    def __init__(
        self,
        registry: TeamRegistry,
        confidence_floor: float = 0.5,
        top_k: int = 3,
    ) -> None:
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        self.master = ScoutMaster(registry, confidence_floor=confidence_floor)
        self.top_k = top_k
        self.curve: tuple[ReliabilityBucket, ...] = ()

    def fit(self, confidences, correct, n_buckets: int = 6) -> None:
        """Build the cross-team reliability curve from a labeled trace."""
        self.curve = tuple(
            reliability_curve(confidences, correct, n_buckets=n_buckets)
        )

    def calibrated(self, confidence: float) -> float:
        """Raw confidence → its bucket's observed accuracy."""
        return _calibrate(self.curve, confidence)

    def rank(
        self, answers: list[ScoutAnswer]
    ) -> tuple[tuple[tuple[str, float, float], ...], tuple[str, ...]]:
        """(top-k candidates, full re-route chain) for one incident."""
        floor = self.master.confidence_floor
        yes = [
            a
            for a in answers
            if a.responsible is True and a.confidence >= floor
        ]
        ranked = sorted(
            (
                (a.team, a.confidence, self.calibrated(a.confidence))
                for a in yes
            ),
            key=lambda item: (-item[2], -item[1], item[0]),
        )
        candidates = tuple(ranked[: self.top_k])
        chain: list[str] = []
        strawman = self.master.route(answers)
        if strawman is not None:
            chain.append(strawman)
        for team, _, _ in ranked:
            if team not in chain:
                chain.append(team)
        return candidates, tuple(chain)


# -- the fleet server ---------------------------------------------------------


def _at_rest(breaker: CircuitBreaker) -> bool:
    """Closed with no failures: a successful call leaves it unchanged."""
    return (
        breaker.state is BreakerState.CLOSED
        and breaker.consecutive_failures == 0
    )


class FleetServer:
    """Sharded, process-pooled serving for one fleet roster.

    Parameters
    ----------
    roster:
        A :func:`build_fleet_roster` result (or hand-built equivalent).
    workers:
        Concurrent scoring tasks.  ``1`` serves in-process; ``> 1``
        with ``use_processes=True`` fans tasks over a process pool.
    use_processes:
        Score on a ``ProcessPoolExecutor`` (fork context when the
        platform offers it).  Results are byte-identical either way —
        the pool is a throughput knob, never a semantics knob.
    shard_count:
        Scout shards (tasks per incident chunk).  Fixed independently
        of ``workers`` so the task set — and therefore every log and
        metric — does not change when the pool grows.
    chunk_size:
        Incidents per scoring task.
    top_k / confidence_floor:
        Master-policy knobs (see :class:`MasterPolicy`).
    breaker / max_attempts:
        Per-Scout resilience: one :class:`CircuitBreaker` per team on
        the injected clock, and RetryPolicy-style bounded attempts for
        the transient-failure model.
    failure_rate / broken_teams:
        Deterministic fault injection: per-attempt transient failure
        probability, and teams whose Scout is hard-down (their breaker
        opens and stays open modulo half-open probes).
    wrong_accept:
        Probability a *wrong* team accepts an incident instead of
        bouncing it down the re-route chain (the truth team always
        accepts).
    io_stall_s:
        Simulated per-chunk monitoring-fetch stall (real wall time in
        the worker, zero effect on results) — the latency the process
        pool exists to overlap.
    clock / shard_dir:
        Injectable time source; where the signal memmap lives (a
        private temp dir by default, cleaned up on :meth:`close`).
    """

    def __init__(
        self,
        roster: FleetRoster,
        workers: int = 1,
        use_processes: bool = False,
        shard_count: int = 8,
        chunk_size: int = 64,
        top_k: int = 3,
        confidence_floor: float = 0.5,
        breaker: BreakerPolicy | None = None,
        max_attempts: int = 2,
        failure_rate: float = 0.0,
        broken_teams: tuple[str, ...] = (),
        wrong_accept: float = 0.35,
        io_stall_s: float = 0.0,
        clock=None,
        obs=None,
        shard_dir: str | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= failure_rate < 1.0:
            raise ValueError("failure_rate must be in [0, 1)")
        unknown = sorted(set(broken_teams) - set(roster.teams))
        if unknown:
            raise ValueError(f"broken_teams not in roster: {unknown}")
        self.roster = roster
        self.workers = workers
        self.use_processes = use_processes
        self.shard_count = min(shard_count, len(roster.specs))
        self.chunk_size = chunk_size
        self.max_attempts = max_attempts
        self.failure_rate = failure_rate
        self.broken_teams = frozenset(broken_teams)
        self.wrong_accept = wrong_accept
        self.io_stall_s = io_stall_s
        self._clock = clock if clock is not None else time.perf_counter
        if obs is None:
            from ..obs import Observability

            obs = Observability(clock=self._clock)
        self.obs = obs
        self.policy = MasterPolicy(
            roster.registry, confidence_floor=confidence_floor, top_k=top_k
        )
        self.breakers = {
            spec.team: CircuitBreaker(
                breaker or BreakerPolicy(), clock=self._clock
            )
            for spec in roster.specs
        }
        self.decisions: list[FleetDecision] = []
        self._pool: ProcessPoolExecutor | None = None
        self._own_dir: tempfile.TemporaryDirectory | None = None
        if shard_dir is None:
            self._own_dir = tempfile.TemporaryDirectory(prefix="fleet-")
            shard_dir = self._own_dir.name
        self.shard_dir = shard_dir
        self._signal_path = os.path.join(
            self.shard_dir, f"fleet_signals_{self._token()}.npy"
        )
        self._ensure_signals()
        self._teams = tuple(roster.teams)  # sorted: roster row order
        self._row = {team: row for row, team in enumerate(self._teams)}
        # Round-robin shard layout over the sorted roster: shard i
        # holds every (row % shard_count == i) Scout.
        self._shard_rows = [
            np.arange(i, len(self._teams), self.shard_count)
            for i in range(self.shard_count)
        ]
        # Calibration samples have always been listed shard by shard
        # within an incident; the reliability curve's float means are
        # order-sensitive, so that order is kept.
        self._shard_major = np.concatenate(self._shard_rows)
        self._init_metrics()
        # This server's own scoring context (in-process scoring reads
        # it directly; pool workers receive a copy at start-up).
        self._ctx: dict | None = dict(self._worker_payload(), signals=None)

    # -- setup -------------------------------------------------------------

    def _token(self) -> str:
        material = "|".join(
            (
                str(self.roster.seed),
                str(len(self.roster.specs)),
                *self.roster.teams,
                f"{self.failure_rate}",
                str(self.max_attempts),
                ",".join(sorted(self.broken_teams)),
            )
        )
        return hashlib.sha256(material.encode()).hexdigest()[:16]

    def _ensure_signals(self) -> None:
        """Materialize the signal matrix once; workers memmap it."""
        if os.path.exists(self._signal_path):
            return
        rng = np.random.default_rng(self.roster.seed)
        signals = rng.standard_normal((len(self.roster.specs), _SIGNAL_COLS))
        tmp = self._signal_path + ".tmp"
        with open(tmp, "wb") as fh:
            np.save(fh, signals)
        os.replace(tmp, self._signal_path)

    def _shard(self, rows: np.ndarray) -> _Shard:
        members = [self.roster.specs[row] for row in rows]
        return _Shard(
            rows=rows,
            teams=tuple(spec.team for spec in members),
            accuracy=np.array([spec.accuracy for spec in members]),
            beta=np.array([spec.beta for spec in members]),
            broken=np.array(
                [spec.team in self.broken_teams for spec in members],
                dtype=bool,
            ),
        )

    def _worker_payload(self) -> dict:
        return {
            "shards": [self._shard(rows) for rows in self._shard_rows],
            "seed": self.roster.seed,
            "failure_rate": self.failure_rate,
            "max_attempts": self.max_attempts,
            "signal_path": self._signal_path,
            "io_stall_s": self.io_stall_s,
        }

    def _init_metrics(self) -> None:
        metrics = self.obs.metrics
        metrics.gauge(catalog.FLEET_TEAMS).set(len(self.roster.specs))
        metrics.gauge(catalog.FLEET_SHARDS).set(self.shard_count)
        self._m_incidents = metrics.counter(
            catalog.FLEET_INCIDENTS_TOTAL
        ).bind()
        decisions = metrics.counter(catalog.FLEET_DECISIONS_TOTAL)
        self._m_decisions = {
            result: decisions.bind(result=result)
            for result in ("suggested", "legacy_fallback")
        }
        self._m_reroutes = metrics.counter(catalog.FLEET_REROUTES_TOTAL)
        answers = metrics.counter(catalog.FLEET_SCOUT_ANSWERS_TOTAL)
        self._m_answers = {
            status: answers.bind(status=status)
            for status in ("breaker_open", "retry", "error", "ok")
        }
        self._m_breakers = metrics.gauge(catalog.FLEET_BREAKERS_OPEN)
        self._m_latency = metrics.histogram(
            catalog.FLEET_ROUTE_LATENCY_SECONDS
        )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        # Drop the scoring context and its memmap before the signal
        # file goes away with the private directory.
        self._ctx = None
        if self._own_dir is not None:
            self._own_dir.cleanup()
            self._own_dir = None

    def __enter__(self) -> "FleetServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            try:
                ctx = get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                ctx = get_context("spawn")
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=ctx,
                initializer=_fleet_worker_init,
                initargs=(self._worker_payload(),),
            )
        return self._pool

    # -- scoring -----------------------------------------------------------

    def _truth(self, incident: Incident) -> str:
        return self.roster.assign(
            incident.responsible_team, incident.incident_id
        )

    def _dispatch(self, incidents: list[Incident]) -> list[tuple]:
        """Cut incidents into chunks and start every scoring task.

        Returns ``(ids, truths, pending)`` per chunk, where
        ``pending`` holds one zero-argument callable per shard that
        yields that task's columns.  On a pool every task is submitted
        here, so later chunks score while the parent composes earlier
        ones; in process the callables run the kernel when called.
        The task list — (shard, chunk) pairs over a fixed shard layout
        and a fixed chunk size — is identical for every worker count;
        only scheduling differs, and tasks are pure.
        """
        ctx = self._ctx
        if ctx is None:
            raise RuntimeError("FleetServer is closed")
        pool = (
            self._ensure_pool()
            if self.use_processes and self.workers > 1
            else None
        )
        dispatched = []
        for first in range(0, len(incidents), self.chunk_size):
            chunk = incidents[first:first + self.chunk_size]
            ids = tuple(incident.incident_id for incident in chunk)
            truths = tuple(self._truth(incident) for incident in chunk)
            if pool is not None:
                pending = [
                    pool.submit(
                        _pooled_score_chunk, shard_id, ids, truths
                    ).result
                    for shard_id in range(self.shard_count)
                ]
            else:
                pending = [
                    partial(_score_chunk, ctx, shard_id, ids, truths)
                    for shard_id in range(self.shard_count)
                ]
            dispatched.append((ids, truths, pending))
        return dispatched

    def _score(self, pending) -> tuple[np.ndarray, ...]:
        """One chunk's ``(ok, verdict, confidence, attempts)`` columns.

        Waits for (or, in process, runs) the chunk's shard tasks and
        places each task's columns at its Scouts' roster rows.
        """
        parts = [task() for task in pending]
        n = len(parts[0][0])
        out = tuple(
            np.empty((n, len(self._teams)), dtype=column.dtype)
            for column in parts[0]
        )
        for rows, part in zip(self._shard_rows, parts):
            for full, column in zip(out, part):
                full[:, rows] = column
        return out

    # -- composition -------------------------------------------------------

    def _compose(
        self, ids: tuple[int, ...], truths: tuple[str, ...], scored
    ) -> list[FleetDecision]:
        """Breaker-gate each incident's answers and run the Master policy.

        Runs in arrival order on the parent — breaker transitions are a
        serial fold over (incident, team), untouched by pool scheduling.
        A breaker at rest (closed, no failures) that sees a successful
        call folds to itself, so only the teams whose breaker is not at
        rest, or whose call failed, are folded one by one.
        """
        ok, verdict, confidence, attempts = scored
        teams = self._teams
        breakers = [self.breakers[team] for team in teams]
        unsettled = {
            j for j, breaker in enumerate(breakers) if not _at_rest(breaker)
        }
        failed = [np.flatnonzero(row).tolist() for row in ~ok]
        yes_cols = [np.flatnonzero(row).tolist() for row in ok & verdict]
        ok_total = ok.sum(axis=1).tolist()
        retry_total = (attempts - 1).sum(axis=1).tolist()
        ok_rows = ok.tolist()
        attempt_rows = attempts.tolist()
        m_answers = self._m_answers
        row_of = self._row
        curve = self.policy.curve
        # The chunk's decision columns (see _DecisionBlock).
        rows: list[int] = []
        cand_teams: list[int] = []
        cand_conf: list[float] = []
        chain_rows: list[int] = []
        gated_rows: list[int] = []
        for i, incident_id in enumerate(ids):
            ok_row = ok_rows[i]
            blocked: list[int] = []
            errors = 0
            for j in sorted(unsettled.union(failed[i])):
                breaker = breakers[j]
                if not breaker.allow():
                    blocked.append(j)
                    continue
                if ok_row[j]:
                    breaker.record_success()
                else:
                    breaker.record_failure()
                    errors += 1
                if _at_rest(breaker):
                    unsettled.discard(j)
                else:
                    unsettled.add(j)
            retries = retry_total[i] - sum(
                attempt_rows[i][j] - 1 for j in blocked
            )
            oks = ok_total[i] - sum(1 for j in blocked if ok_row[j])
            for status, count in (
                ("breaker_open", len(blocked)),
                ("retry", retries),
                ("error", errors),
                ("ok", oks),
            ):
                if count:
                    m_answers[status].inc(count)

            answers = [
                ScoutAnswer(teams[j], True, float(confidence[i, j]))
                for j in yes_cols[i]
                if j not in blocked
            ]
            candidates, chain = self.policy.rank(answers)
            suggested, reroutes = self._walk(chain, truths[i], incident_id)

            self._m_incidents.inc()
            if reroutes:
                self._m_reroutes.inc(reroutes)
            self._m_decisions[
                "suggested" if suggested else "legacy_fallback"
            ].inc()
            # Breakers at rest are closed, so only unsettled ones can
            # be open.
            self._m_breakers.set(
                sum(
                    1
                    for j in sorted(unsettled)
                    if breakers[j].state is BreakerState.OPEN
                )
            )
            for team, conf, _ in candidates:
                cand_teams.append(row_of[team])
                cand_conf.append(conf)
            chain_rows.extend(row_of[team] for team in chain)
            gated_rows.extend(blocked)
            rows += (
                row_of[suggested] + 1 if suggested else 0,
                reroutes,
                len(answers),
                errors,
                len(cand_teams),
                len(chain_rows),
                len(gated_rows),
            )
        block = _DecisionBlock(
            teams, curve, ids, truths, rows,
            cand_teams, cand_conf, chain_rows, gated_rows,
        )
        return [FleetDecision(block, i) for i in range(len(ids))]

    def _walk(
        self, chain: tuple[str, ...], truth: str, incident_id: int
    ) -> tuple[str | None, int]:
        """Walk the re-route chain: ``(suggested team or None, reroutes)``."""
        reroutes = 0
        for team in chain:
            if self.breakers[team].state is BreakerState.OPEN:
                reroutes += 1
                continue
            if team == truth:
                return team, reroutes
            key = f"{self.roster.seed}|accept|{team}|{incident_id}"
            if _draw(key) < self.wrong_accept:
                return team, reroutes
            reroutes += 1  # the candidate bounced: walk the chain
        return None, reroutes

    # -- serving -----------------------------------------------------------

    def route_trace(self, incidents) -> list[FleetDecision]:
        """Route a batch of incidents; decisions come back in order.

        Chunk *k* is composed as soon as its tasks return, while later
        chunks are still scoring on the pool.
        """
        incidents = list(incidents)
        if not incidents:
            return []
        started = self._clock()
        decisions: list[FleetDecision] = []
        for ids, truths, pending in self._dispatch(incidents):
            decisions.extend(self._compose(ids, truths, self._score(pending)))
        self._m_latency.observe(self._clock() - started)
        self.decisions.extend(decisions)
        return decisions

    def calibrate(self, incidents) -> int:
        """Fit the Master policy's reliability curve on a labeled trace.

        Scores the calibration incidents (no breakers, no decisions,
        no metrics) and fits confidence → observed accuracy across the
        whole fleet.  Returns the number of (answer, label) samples.
        """
        incidents = list(incidents)
        if not incidents:
            return 0
        order = self._shard_major
        confidences: list[np.ndarray] = []
        correct: list[np.ndarray] = []
        for _, truths, pending in self._dispatch(incidents):
            ok, verdict, confidence, _ = self._score(pending)
            yes = (ok & verdict)[:, order]
            truth_rows = np.array([self._row.get(t, -1) for t in truths])
            confidences.append(confidence[:, order][yes])
            correct.append((order == truth_rows[:, None])[yes])
        samples = np.concatenate(confidences)
        if samples.size:
            self.policy.fit(samples, np.concatenate(correct))
        return int(samples.size)

    # -- read-outs ---------------------------------------------------------

    def decision_records(self) -> list[dict]:
        """JSON-friendly decision log (stable order and keys)."""
        return [decision.to_record() for decision in self.decisions]

    def accuracy(self) -> float:
        """Fraction of routed incidents suggested to the truth team."""
        if not self.decisions:
            return 0.0
        hits = sum(
            1
            for d in self.decisions
            if d.suggested_team == d.truth_team
        )
        return hits / len(self.decisions)

    def summary(self) -> dict:
        """Plain-data roll-up for the CLI and the bench."""
        fallbacks = sum(
            1 for d in self.decisions if d.suggested_team is None
        )
        return {
            "teams": len(self.roster.specs),
            "shards": self.shard_count,
            "workers": self.workers,
            "incidents": len(self.decisions),
            "accuracy": round(self.accuracy(), 4),
            "reroutes": sum(d.reroutes for d in self.decisions),
            "legacy_fallbacks": fallbacks,
            "breakers_open": sum(
                1
                for b in self.breakers.values()
                if b.state is BreakerState.OPEN
            ),
        }
