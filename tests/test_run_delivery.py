"""Run-length delivery vs the per-tick oracle, over random arrival patterns.

:meth:`Simulation.run` hands each owner its quiet stretches as one run
(:meth:`repro.fleet.Deployment.receive_run`) and feeds ground truth in bulk at
observation boundaries; :func:`repro.testing.legacy.run_legacy` steps every
owner at every tick and rescans for ground truth.  For random workloads --
empty, sparse, dense and saturated streams, one to three streams with two
owners sharing a table, horizons past the Laplace block size, every strategy
plus DP-ANT with held comparison noise, flush on and off, query intervals
that do not divide the timer period, and kill/resume from a durable store
mid-run -- both must agree on everything observable: the ``RunResult``, the
aggregate and per-owner ``(t, |γ|)`` transcripts, the accountant ledgers,
each strategy's next Laplace draw after the run, and the number of arrivals
the engine delivered.
"""

from __future__ import annotations

import tempfile
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.core.strategies import registry
from repro.core.strategies.dp_ant import DPANTStrategy
from repro.core.strategies.flush import FlushPolicy
from repro.edb.leakage import update_pattern_observables
from repro.edb.records import Record, Schema
from repro.engine import Engine
from repro.query.ast import CountQuery, GroupByCountQuery
from repro.query.predicates import RangePredicate
from repro.simulation import simulator
from repro.simulation.runner import make_backend
from repro.simulation.simulator import Simulation, SimulationConfig
from repro.testing.legacy import run_legacy
from repro.workload.stream import GrowingDatabase

#: The five paper strategies plus DP-ANT with held comparison noise (not
#: reachable through ``make_strategy``; swapped in below).
STRATEGIES = ("sur", "oto", "set", "dp-timer", "dp-ant", "dp-ant-held")


def _stream(table: str, horizon: int, density: float, seed: int, initial: int):
    rng = np.random.default_rng(seed)
    updates: list[Record | None] = [None] * horizon
    for t in range(1, horizon + 1):
        if density >= 1.0 or rng.random() < density:
            updates[t - 1] = Record(
                values={"k": t % 5, "v": t % 23}, arrival_time=t, table=table
            )
    initial_records = [
        Record(values={"k": i % 5, "v": i}, arrival_time=0, table=table)
        for i in range(initial)
    ]
    return GrowingDatabase(table=table, initial=initial_records, updates=updates)


@st.composite
def cases(draw):
    horizon = draw(st.integers(min_value=1, max_value=700))
    n_streams = draw(st.integers(min_value=1, max_value=3))
    shared = n_streams >= 2 and draw(st.booleans())
    workloads = {}
    for index in range(n_streams):
        table = "T0" if shared and index < 2 else f"T{index}"
        density = draw(st.sampled_from((0.0, 0.03, 0.3, 0.8, 1.0)))
        workloads[f"{table}#{index}"] = _stream(
            table,
            horizon,
            density,
            seed=draw(st.integers(min_value=0, max_value=2**16)),
            initial=draw(st.integers(min_value=0, max_value=4)),
        )
    flush = draw(
        st.sampled_from(
            (
                FlushPolicy.disabled(),
                FlushPolicy(interval=97, size=3),
                FlushPolicy(interval=250, size=8),
            )
        )
    )
    config = SimulationConfig(
        strategy=draw(st.sampled_from(STRATEGIES)),
        epsilon=draw(st.sampled_from((0.3, 1.0, 4.0))),
        timer_period=draw(st.integers(min_value=1, max_value=45)),
        theta=draw(st.integers(min_value=0, max_value=12)),
        flush=flush,
        query_interval=draw(st.sampled_from((0, 7, 25, 37, 120))),
        horizon=draw(
            st.one_of(st.none(), st.integers(min_value=1, max_value=horizon))
        ),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )
    backend = draw(st.sampled_from(("oblidb", "crypte")))
    kill_after = draw(st.integers(min_value=1, max_value=4))
    return workloads, config, backend, kill_after


def _queries(workloads):
    tables = sorted({w.table for w in workloads.values()})
    queries = []
    for table in tables:
        queries.append(
            CountQuery(
                table=table, predicate=RangePredicate("v", 3, 15), label=f"count-{table}"
            )
        )
        queries.append(
            GroupByCountQuery(table=table, group_attribute="k", label=f"group-{table}")
        )
    return queries


def _make_strategy_for(held: bool):
    original = registry.make_strategy

    def make(name, dummy_factory, rng=None, epsilon=0.5, period=30, theta=15,
             flush=None, **kw):
        if held:
            return DPANTStrategy(
                dummy_factory,
                epsilon=epsilon,
                theta=theta,
                flush=flush,
                rng=rng,
                resample_comparison_noise=False,
            )
        return original(
            name, dummy_factory, rng=rng, epsilon=epsilon, period=period,
            theta=theta, flush=flush, **kw,
        )

    return make


class _Observed:
    """Everything a run leaves behind, captured at ``_finalize``."""

    def __init__(self) -> None:
        self.stats = []
        self.state = None

    def patches(self, held: bool):
        observed = self
        finalize = Simulation._finalize
        engine_run = Engine.run

        def capture_finalize(simulation, ctx):
            result = finalize(simulation, ctx)
            observed.state = {
                "transcript": update_pattern_observables(ctx.edb.update_history),
                "owners": {
                    name: (
                        owner.update_pattern.as_tuples(),
                        owner.strategy.accountant.spends,
                        owner.strategy.received_total,
                        [r.record_id for r in owner.strategy.cache.peek_all()],
                        [r.record_id for r in owner.logical_database],
                        # Drawn last: the next Laplace variate of the stream.
                        owner.strategy._noise.standard(),
                    )
                    for name, owner in ctx.owners.items()
                },
            }
            return result

        def capture_run(engine):
            stats = engine_run(engine)
            observed.stats.append(stats)
            return stats

        return (
            mock.patch.object(Simulation, "_finalize", capture_finalize),
            mock.patch.object(Engine, "run", capture_run),
            mock.patch.object(simulator, "make_strategy", _make_strategy_for(held)),
        )


def _run(workloads, config, backend, held, legacy=False, persist_dir=None):
    observed = _Observed()
    patches = observed.patches(held)
    with patches[0], patches[1], patches[2]:
        simulation = Simulation(
            make_backend(backend, seed=5),
            workloads,
            _queries(workloads),
            config,
            schemas={name: Schema(w.table, ("k", "v")) for name, w in workloads.items()},
        )
        result = run_legacy(simulation) if legacy else simulation.run(persist_dir=persist_dir)
    return result, observed


def _arrivals(workloads, horizon, after=0):
    return sum(
        1
        for w in workloads.values()
        for t, _ in w.arrivals()
        if after < t <= horizon
    )


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(cases())
def test_run_delivery_matches_per_tick_oracle(case):
    workloads, config, backend, kill_after = case
    held = config.strategy == "dp-ant-held"
    if held:
        config = config.with_overrides(strategy="dp-ant")
    horizon = config.horizon or max(w.horizon for w in workloads.values())

    expected, oracle = _run(workloads, config, backend, held, legacy=True)
    result, engine = _run(workloads, config, backend, held)

    assert result == expected
    assert engine.state == oracle.state
    assert engine.stats[-1].arrivals_delivered == _arrivals(workloads, horizon)

    # Kill mid-run after the ``kill_after``-th durable snapshot, then resume.
    interval = config.query_interval
    if not interval or kill_after * interval >= horizon:
        return
    event("killed and resumed")
    persist = Simulation._persist
    calls = [0]

    class _Killed(RuntimeError):
        pass

    def crashing(simulation, time, ctx, store):
        persist(simulation, time, ctx, store)
        calls[0] += 1
        if calls[0] == kill_after:
            raise _Killed()

    with tempfile.TemporaryDirectory() as directory:
        with mock.patch.object(Simulation, "_persist", crashing):
            try:
                _run(workloads, config, backend, held, persist_dir=directory)
            except _Killed:
                pass
            else:
                raise AssertionError("the run finished before the injected kill")
        resumed, after = _run(workloads, config, backend, held, persist_dir=directory)
    assert resumed == expected
    assert after.state == oracle.state
    assert after.stats[-1].arrivals_delivered == _arrivals(
        workloads, horizon, after=kill_after * interval
    )


def test_query_less_dense_stream_matches_oracle():
    """Without queries a run may span the whole horizon: every strategy must
    still agree with the per-tick oracle across many pulled chunks."""
    workloads = {"T0#0": _stream("T0", 3000, 0.8, seed=11, initial=2)}
    for strategy in STRATEGIES:
        held = strategy == "dp-ant-held"
        config = SimulationConfig(
            strategy="dp-ant" if held else strategy,
            epsilon=1.0,
            timer_period=37,
            theta=6,
            flush=FlushPolicy(interval=250, size=8),
            query_interval=0,
            seed=4,
        )
        expected, oracle = _run(workloads, config, "oblidb", held, legacy=True)
        result, engine = _run(workloads, config, "oblidb", held)
        assert result == expected, strategy
        assert engine.state == oracle.state, strategy
        assert engine.stats[-1].arrivals_delivered == _arrivals(workloads, 3000)


def test_settled_truth_keeps_per_arrival_order():
    """Bulk ground truth merges a shared table's members in (time, member) order.

    Two owners of one table: member 0 absorbs its arrivals as a run, member 1
    ticks them one by one.  The maintained group-by answer must acquire its
    groups in the order per-arrival ingestion saw them, not member by member.
    """
    from repro.core.strategies.registry import make_strategy
    from repro.edb.oblidb import ObliDB
    from repro.edb.records import SchemaDummyFactory
    from repro.fleet import Deployment
    from repro.query.incremental import IncrementalTruth

    schema = Schema("T", ("k",))
    query = GroupByCountQuery(table="T", group_attribute="k", label="groups")
    truth = IncrementalTruth()
    truth.register(query)
    deployment = Deployment(ObliDB(rng=np.random.default_rng(0)), truth_source=truth)
    for name in ("T#0", "T#1"):
        strategy = make_strategy(
            "oto", SchemaDummyFactory(schema), rng=np.random.default_rng(1)
        )
        deployment.add_owner(name, schema, strategy)
    deployment.start()

    def record(key, time):
        return Record(values={"k": key}, arrival_time=time, table="T")

    run = [record("a", 1), record("b", 3)]
    assert deployment.receive_run("T#0", 10, [1, 3], run) == 10
    deployment.receive("T#1", 2, record("c", 2))
    deployment.receive("T#1", 3, record("d", 3))
    assert list(truth.answer(query)) == []  # nothing ingested before settling
    deployment.settle_truth()
    assert list(truth.answer(query)) == ["a", "c", "b", "d"]
