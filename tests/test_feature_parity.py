"""Default feature path parity: the builder against the per-device oracle.

``tests/oracles.py`` keeps the per-device feature path as
``OracleFeatureBuilder`` (a ``TimeSeries`` per device, ``vstack``
normalization, ``concatenate`` pooling, per-device count dicts) and
``oracle_cpd_signals``.  Over generated incidents, look-back times
(including windows reaching before the monitoring epoch), injected
effects, deactivated datasets and duplicate devices, the builder's
feature vectors and CPD+ signal vectors must equal the oracle's byte for
byte, for PhyNet and the four starter Scouts.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import team_scout_configs
from repro.core import ComponentExtractor, FeatureBuilder
from repro.core.cpd_plus import CPDPlus
from repro.core.extraction import ExtractedComponents
from repro.datacenter import ComponentKind
from repro.monitoring import FailureEffect, FaultPlan, FaultyStore
from repro.monitoring.base import DataKind
from repro.monitoring.faults import TransientMonitoringError
from repro.monitoring.store import _event_bins
from tests.oracles import OracleFeatureBuilder, oracle_cpd_signals

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class _Team:
    """One Scout config's builder, oracle, CPD+ and extractor."""

    def __init__(self, config, sim) -> None:
        self.builder = FeatureBuilder(config, sim.topology, sim.store)
        self.oracle = OracleFeatureBuilder(config, sim.topology, sim.store)
        self.cpd = CPDPlus(self.builder)
        self.extractor = ComponentExtractor(config, sim.topology)

    def check(self, extracted, t) -> None:
        self.builder.clear_cache()
        self.oracle.clear_cache()
        got = self.builder.features(extracted, t)
        want = self.oracle.features(extracted, t)
        assert got.tobytes() == want.tobytes()
        got_signals, got_triggers = self.cpd.signals(extracted, t)
        want_signals, want_triggers = oracle_cpd_signals(
            self.cpd, self.oracle, extracted, t
        )
        assert got_signals.tobytes() == want_signals.tobytes()
        assert got_triggers == want_triggers


@pytest.fixture(scope="module")
def teams(sim, framework):
    configs = [framework.config] + [
        config for _, config in sorted(team_scout_configs().items())
    ]
    return [_Team(config, sim) for config in configs]


@pytest.fixture(scope="module")
def scoped(teams, incidents):
    """(team index, extracted components, incident time) triples."""
    out = []
    for index, team in enumerate(teams):
        for incident in incidents[:60]:
            extracted = team.extractor.extract(incident.text)
            if not extracted.is_empty:
                out.append((index, extracted, incident.created_at))
    return out


def test_recorded_incidents_match_oracle(teams, scoped):
    for index, extracted, t in scoped:
        teams[index].check(extracted, t)


def _effects_for(store, extracted, draw_float, modes):
    """One effect per drawn mode on the incident's first devices."""
    effects = []
    devices = [c.name for c in extracted.all]
    for name in store.dataset_names:
        schema = store.schema(name)
        targets = [
            c.name for c in extracted.all if schema.covers(c.kind)
        ] or devices
        for mode, (start, length, magnitude) in modes:
            is_event = schema.kind is DataKind.EVENT
            if is_event != (mode == "burst"):
                continue
            start = draw_float(start)
            effects.append(FailureEffect(
                name, targets[0], start, start + length,
                mode=mode, magnitude=magnitude,
                event_type=(
                    sorted(schema.events.rates)[0] if is_event else None
                ),
                rate=magnitude * 10.0 if is_event else 0.0,
            ))
    return effects


_modes = st.lists(
    st.tuples(
        st.sampled_from(["shift", "scale", "spike", "burst"]),
        st.tuples(
            # Effect start relative to t: straddling the window start
            # (t - T), the window end (t), inside, or wholly outside.
            st.floats(-40000.0, 4000.0),
            st.floats(0.0, 20000.0),
            st.floats(0.5, 8.0),
        ),
    ),
    max_size=4,
)


@_SETTINGS
@given(
    pick=st.integers(0, 10**6),
    shift=st.one_of(
        st.just(0.0), st.floats(-7200.0, 7200.0), st.just("epoch")
    ),
    modes=_modes,
    deactivate=st.one_of(st.none(), st.integers(0, 10**6)),
    duplicate=st.booleans(),
)
def test_generated_scenarios_match_oracle(
    sim, teams, scoped, monkeypatch, pick, shift, modes, deactivate, duplicate
):
    index, extracted, t = scoped[pick % len(scoped)]
    team = teams[index]
    if shift == "epoch":
        # The look-back window (and its reference) reach before t = 0.
        t = 0.4 * team.builder.config.lookback
    else:
        t += shift
    store = sim.store
    snapshot = store.snapshot_effects()
    inactive = None
    if deactivate is not None:
        locators = sorted({ref.locator for ref in team.builder.config.monitoring})
        inactive = locators[deactivate % len(locators)]
    if duplicate:
        observables = FeatureBuilder._observables

        def doubled(self, component, kinds):
            members = observables(self, component, kinds)
            return members + members[:2]

        monkeypatch.setattr(FeatureBuilder, "_observables", doubled)
    try:
        for effect in _effects_for(
            store, extracted, lambda offset: t + offset, modes
        ):
            store.inject(effect)
        if inactive is not None:
            store.deactivate(inactive)
        team.check(extracted, t)
    finally:
        store.restore_effects(snapshot)
        if inactive is not None:
            store.activate(inactive)
        monkeypatch.undo()


# -- matrix store queries against the scalar queries ---------------------------


@pytest.fixture(scope="module")
def devices(sim):
    out = []
    for kind in ComponentKind:
        out.extend(sim.topology.components(kind)[:6])
    return out


_windows = st.one_of(
    # Ordinary windows, windows inside one sample (no grid point) and
    # windows reaching before the epoch.
    st.tuples(st.floats(0.0, 5e6), st.floats(0.0, 20000.0)),
    st.tuples(st.floats(0.0, 5e6), st.floats(0.0, 50.0)),
    st.tuples(st.floats(-30000.0, 3000.0), st.floats(0.0, 30000.0)),
)


@_SETTINGS
@given(
    data=st.data(),
    window=_windows,
    effects=st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.floats(-20000.0, 20000.0),
            st.floats(0.0, 15000.0),
            st.floats(-3.0, 8.0),
        ),
        max_size=5,
    ),
    inactive=st.booleans(),
)
def test_matrix_queries_match_scalar(
    sim, devices, data, window, effects, inactive
):
    store = sim.store
    name = data.draw(st.sampled_from(store.dataset_names))
    schema = store.schema(name)
    is_event = schema.kind is DataKind.EVENT
    picked = data.draw(
        st.lists(st.sampled_from(devices), min_size=1, max_size=10)
    )
    picked += picked[:2]  # duplicate devices
    t0, length = window
    t1 = t0 + length
    covered = [d for d in picked if schema.covers(d.kind)] or picked
    snapshot = store.snapshot_effects()
    try:
        for pick, offset, span, magnitude in effects:
            target = covered[pick % len(covered)].name
            if is_event:
                types = sorted(schema.events.rates) + ["injected"]
                effect = FailureEffect(
                    name, target, t0 + offset, t0 + offset + span,
                    mode="burst", event_type=types[pick % len(types)],
                    rate=abs(magnitude) * 20.0,
                )
            else:
                effect = FailureEffect(
                    name, target, t0 + offset, t0 + offset + span,
                    mode=("shift", "scale", "spike")[pick % 3],
                    magnitude=magnitude,
                )
            store.inject(effect)
        if inactive:
            store.deactivate(name)
        if is_event:
            positions, types, counts = store.query_event_type_counts_matrix(
                name, picked, t0, t1
            )
            assert counts.shape == (len(positions), len(types))
            scalar = [
                store.query_event_type_counts(name, d, t0, t1) for d in picked
            ]
            schema_types = sorted(schema.events.rates)
            assert list(types[: len(schema_types)]) == schema_types
            # The scalar query lists the quiet schema types (as zeros)
            # exactly when the window spans an event bin.
            first, last = _event_bins(t0, t1)
            listed = set(schema_types) if last >= first else set()
        else:
            positions, timestamps, values = store.query_series_matrix(
                name, picked, t0, t1
            )
            assert values.shape == (len(positions), len(timestamps))
            scalar = [store.query_series(name, d, t0, t1) for d in picked]
        assert positions.tolist() == [
            i for i, want in enumerate(scalar) if want is not None
        ]
        for row, i in enumerate(positions.tolist()):
            want = scalar[i]
            if is_event:
                assert set(want) <= set(types)
                got = dict(zip(types, counts[row].tolist()))
                assert got == {t: want.get(t, 0) for t in types}
                assert set(want) == listed | {t for t, n in got.items() if n}
            else:
                assert timestamps.tobytes() == want.timestamps.tobytes()
                assert values[row].tobytes() == want.values.tobytes()
    finally:
        store.restore_effects(snapshot)
        store.activate(name)


# -- the per-call pull plan -----------------------------------------------------

_GRID = 300.0  # every time-series dataset samples on this grid


class _RecordingStore(FaultyStore):
    """A fault-free ``FaultyStore`` logging ``(kind, dataset, t0, t1)``
    per matrix pull."""

    def __init__(self, inner) -> None:
        super().__init__(inner, FaultPlan())
        self.pulls: list[tuple[str, str, float, float]] = []

    def query_series_matrix(self, dataset, components, t0, t1):
        self.pulls.append(("series", dataset, t0, t1))
        return super().query_series_matrix(dataset, components, t0, t1)

    def query_event_type_counts_matrix(self, dataset, components, t0, t1):
        self.pulls.append(("event_counts", dataset, t0, t1))
        return super().query_event_type_counts_matrix(
            dataset, components, t0, t1
        )


def _twice_reached(sim, builder, pick: int) -> ExtractedComponents:
    """A cluster, its DC, and one switch and one server the cluster
    observes, so each leaf is reached through two or three components."""
    clusters = sim.topology.components(ComponentKind.CLUSTER)
    cluster = clusters[pick % len(clusters)]
    mentioned = [cluster, sim.topology.container(cluster.name, ComponentKind.DC)]
    for kind in (ComponentKind.SWITCH, ComponentKind.SERVER):
        observed = builder._observables(cluster, frozenset({kind}))
        mentioned.append(observed[(pick // 7) % len(observed)])
    return ExtractedComponents(mentioned=mentioned)


def _check_call_orders(sim, team, extracted, t) -> None:
    """Vectors, CPD+ signals and triggers equal the oracle's whichever
    read opens the plan: features then CPD+ (a dataset build), CPD+
    alone (the unsupervised route), and CPD+ then features (the plan
    widens a window-only pull to the reference)."""
    team.oracle.clear_cache()
    want = team.oracle.features(extracted, t).tobytes()
    want_signals, want_triggers = oracle_cpd_signals(
        team.cpd, team.oracle, extracted, t
    )
    for order in (("features", "cpd"), ("cpd",), ("cpd", "features")):
        team.builder.clear_cache()
        for step in order:
            if step == "features":
                assert team.builder.features(extracted, t).tobytes() == want
            else:
                signals, triggers = team.cpd.signals(extracted, t)
                assert signals.tobytes() == want_signals.tobytes()
                assert triggers == want_triggers


@_SETTINGS
@given(
    pick=st.integers(0, 10**6),
    # t - T in grid steps: reaching before the epoch (reference clamped,
    # or the look-back window itself), or anywhere in the history.
    steps=st.one_of(st.integers(-20, 80), st.integers(80, 34000)),
    off_grid=st.one_of(st.just(0.0), st.floats(1.0, _GRID - 1.0)),
    straddle=st.lists(
        st.tuples(
            st.sampled_from(["shift", "scale", "spike", "burst"]),
            st.tuples(
                st.floats(0.0, 3 * _GRID),  # starts this far before t - T
                st.floats(0.0, 6 * _GRID),
                st.floats(0.5, 8.0),
            ),
        ),
        max_size=3,
    ),
    deactivate=st.one_of(st.none(), st.integers(0, 10**6)),
)
def test_pull_plan_matches_oracle(
    sim, teams, pick, steps, off_grid, straddle, deactivate
):
    team = teams[pick % len(teams)]
    T = team.builder.config.lookback
    t = T + steps * _GRID + off_grid
    extracted = _twice_reached(sim, team.builder, pick)
    store = sim.store
    snapshot = store.snapshot_effects()
    modes = [
        (mode, (-T - before, length, magnitude))
        for mode, (before, length, magnitude) in straddle
    ]
    inactive = None
    if deactivate is not None:
        locators = sorted({ref.locator for ref in team.builder.config.monitoring})
        inactive = locators[deactivate % len(locators)]
    try:
        for effect in _effects_for(
            store, extracted, lambda offset: t + offset, modes
        ):
            store.inject(effect)
        if inactive is not None:
            store.deactivate(inactive)
        _check_call_orders(sim, team, extracted, t)
    finally:
        store.restore_effects(snapshot)
        if inactive is not None:
            store.activate(inactive)


def test_one_pull_per_locator_and_cpd_pulls_no_reference(sim, teams, scoped):
    for index, extracted, t in scoped[::3]:
        team = teams[index]
        config = team.builder.config
        T = config.lookback
        ref_start = t - T - config.reference_multiple * T
        recorder = _RecordingStore(sim.store)
        builder = FeatureBuilder(config, sim.topology, recorder)
        cpd = CPDPlus(builder)
        builder.features(extracted, t)
        pulled = [(kind, dataset) for kind, dataset, _, _ in recorder.pulls]
        assert len(pulled) == len(set(pulled))  # one pull per locator
        assert all(
            (t0, t1) == ((ref_start, t) if kind == "series" else (t - T, t))
            for kind, _, t0, t1 in recorder.pulls
        )
        # CPD+ after a feature build reads the plan's pulls.
        cpd.signals(extracted, t)
        assert [(k, d) for k, d, _, _ in recorder.pulls] == pulled
        # A CPD+-only call pulls the look-back window alone, once.
        builder.clear_cache()
        del recorder.pulls[:]
        cpd.signals(extracted, t)
        assert sorted((k, d) for k, d, _, _ in recorder.pulls) == sorted(pulled)
        assert all((t0, t1) == (t - T, t) for _, _, t0, t1 in recorder.pulls)


def test_a_retry_reissues_only_the_failed_pull(sim, teams, scoped):
    index, extracted, t = scoped[0]
    config = teams[index].builder.config
    recorder = _RecordingStore(sim.store)
    FeatureBuilder(config, sim.topology, recorder).features(extracted, t)
    assert len(recorder.pulls) >= 3
    faulty = FaultyStore(sim.store, FaultPlan(fail_queries=frozenset({3})))
    builder = FeatureBuilder(config, sim.topology, faulty)
    with pytest.raises(TransientMonitoringError):
        builder.features(extracted, t)
    vector = builder.features(extracted, t)  # what a retry does
    assert faulty.queries == len(recorder.pulls) + 1
    assert vector.tobytes() == teams[index].oracle.features(extracted, t).tobytes()
