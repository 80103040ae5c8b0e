"""Unit tests for the vector runtime: lowering, the bit-exact
vectorized rng, sweep outcomes and the numpy-optional gate."""

import random

import pytest

from repro.errors import CompileError, EclError, EngineUnavailable
from repro.farm.jobs import StimulusSpec
from repro.pipeline import Pipeline
from repro.runtime.vector import (NUMPY_AVAILABLE, VectorCode, compile_vector,
                                  require_numpy)

np = pytest.importorskip("numpy")

# Skipping the whole file when numpy is genuinely absent keeps the
# no-numpy CI leg green; the gate itself is tested via monkeypatch.
assert NUMPY_AVAILABLE

COUNTER = """
module counter (input pure tick, input pure clear, output int value)
{
    int n;
    n = 0;
    while (1) {
        await (tick | clear);
        present (clear) { n = 0; } else { n = n + 1; }
        emit_v (value, n);
    }
}
"""

DIVIDER = """
module divider (input int x, input int y, output int q, output int r)
{
    while (1) {
        await (x);
        emit_v (q, x / ((y & 7) + 1));
        emit_v (r, x % ((y & 3) + 1));
    }
}
"""


def handle_for(source, module):
    return Pipeline().compile_text(source, filename=module).module(module)


def vector_reactor(handle):
    return handle.reactor(engine="vector")


# -- lowering ----------------------------------------------------------


def test_vector_code_is_plain_data():
    handle = handle_for(COUNTER, "counter")
    vcode = compile_vector(handle.efsm(), handle.native_code())
    assert isinstance(vcode, VectorCode)
    assert vcode.module == "counter"
    assert vcode.state_count == handle.efsm().state_count
    # The bundle is numpy-free codegen: source text, no bound arrays.
    assert "def " in vcode.source


def test_pipeline_vector_stage_caches():
    handle = handle_for(COUNTER, "counter")
    assert handle.vector_code() is handle.vector_code()


def test_vector_reactor_rejects_counter_overrides():
    handle = handle_for(COUNTER, "counter")
    with pytest.raises(CompileError):
        handle.reactor(engine="vector", counter=object())


# -- the vectorized rng ------------------------------------------------


def test_vrandom_matches_cpython_lockstep():
    from repro.runtime.vector.vrandom import VecRandom

    seeds = [0, 1, 7, 255, 2**31, 2**32 - 1, 2**32 + 1, 2**64 - 1,
             0x9F86D081884C7D65]
    vr = VecRandom(seeds)
    refs = [random.Random(seed) for seed in seeds]
    rows = np.arange(len(seeds))
    script = [("random",), ("randint", 0, 255), ("randint", 1, 1),
              ("randint", -7, 6), ("randint", 0, 2**31 - 1), ("random",),
              ("randint", 5, 1000)]
    for round_no in range(120):
        op = script[round_no % len(script)]
        if op[0] == "random":
            assert list(vr.random(rows)) == [ref.random() for ref in refs]
        else:
            got = vr.randint(rows, op[1], op[2])
            assert list(got) == [ref.randint(op[1], op[2]) for ref in refs]


def test_vrandom_subset_rows_stay_independent():
    from repro.runtime.vector.vrandom import VecRandom

    seeds = [11, 22, 33, 44]
    vr = VecRandom(seeds)
    refs = [random.Random(seed) for seed in seeds]
    evens, odds = np.array([0, 2]), np.array([1, 3])
    for round_no in range(150):
        rows = evens if round_no % 3 else odds
        got = vr.randint(rows, 0, 250)
        assert list(got) == [refs[i].randint(0, 250) for i in rows]


# -- run_specs ---------------------------------------------------------


def test_run_specs_matches_scalar_native():
    from repro.engines import derive_spec_seed, get_engine
    from repro.farm.jobs import SimJob

    handle = handle_for(COUNTER, "counter")
    reactor = vector_reactor(handle)
    spec = StimulusSpec.random(length=25)
    outcome = reactor.run_specs(spec, n_instances=9, records=True)
    assert len(outcome.instants) == 9
    job = SimJob(design="c", module="counter", engine="native", stimulus=spec)
    for lane in range(9):
        assert outcome.errors[lane] is None
        scalar = get_engine("native").build(lambda name: handle, job)
        instants = spec.materialize(
            scalar.input_alphabet(), derive_spec_seed(spec, lane))
        records = [scalar.step(instant) for instant in instants]
        assert outcome.records[lane] == records


def test_run_specs_deterministic_and_seeded():
    handle = handle_for(COUNTER, "counter")
    reactor = vector_reactor(handle)
    spec = StimulusSpec.random(length=30, salt=5)
    first = reactor.run_specs(spec, n_instances=6, records=True)
    second = reactor.run_specs(spec, n_instances=6, records=True)
    assert first.records == second.records
    assert first.instants == second.instants
    # Explicit seeds override the derived ones.
    swapped = reactor.run_specs(spec, seeds=[1, 2], records=True)
    again = reactor.run_specs(spec, seeds=[2, 1], records=True)
    assert swapped.records[0] == again.records[1]
    assert swapped.records[1] == again.records[0]


def test_run_specs_division_faults_stay_per_lane():
    handle = handle_for(DIVIDER, "divider")
    reactor = vector_reactor(handle)
    # y & 7 + 1 can never be zero, so no faults — but drive a spec
    # whose lanes diverge in content and confirm error slots stay None.
    spec = StimulusSpec.random(length=20, present_prob=0.9)
    outcome = reactor.run_specs(spec, n_instances=16, coverage=True)
    assert outcome.errors == [None] * 16
    assert len(outcome.coverage) == 16


def test_run_specs_raw_coverage_matches_maps():
    handle = handle_for(COUNTER, "counter")
    reactor = vector_reactor(handle)
    spec = StimulusSpec.random(length=40)
    mapped = reactor.run_specs(spec, n_instances=8, coverage=True)
    raw = reactor.run_specs(spec, n_instances=8, coverage="raw")
    assert raw.coverage is None
    states, transitions, emits = raw.raw_coverage
    assert states.shape[0] == 8
    for lane in range(8):
        cov = mapped.coverage[lane]
        assert states[lane].tobytes() == bytes(cov.states)
        assert transitions[lane].tobytes() == bytes(cov.transitions)
        assert emits[lane].tobytes() == bytes(cov.emits)


def test_run_specs_empty_sweep():
    handle = handle_for(COUNTER, "counter")
    reactor = vector_reactor(handle)
    outcome = reactor.run_specs(StimulusSpec.random(length=4), seeds=[])
    assert len(outcome.instants) == 0


def test_run_specs_rejects_explicit_specs():
    handle = handle_for(COUNTER, "counter")
    reactor = vector_reactor(handle)
    spec = StimulusSpec.explicit([{"tick": None}])
    with pytest.raises(EclError):
        reactor.run_specs(spec, n_instances=2)


# -- the numpy-optional gate ------------------------------------------


def test_require_numpy_gate(monkeypatch):
    import repro.runtime.vector as vec

    monkeypatch.setattr(vec, "NUMPY_AVAILABLE", False)
    monkeypatch.setattr(vec, "_NUMPY_ERROR", "No module named 'numpy'")
    with pytest.raises(EngineUnavailable) as caught:
        require_numpy("vector")
    assert caught.value.engine == "vector"
    with pytest.raises(EngineUnavailable):
        vec.VectorReactor  # PEP 562 surface is gated too


def test_vector_engine_unavailable_without_numpy(monkeypatch):
    import repro.runtime.vector as vec

    from repro.engines import get_engine

    monkeypatch.setattr(vec, "NUMPY_AVAILABLE", False)
    monkeypatch.setattr(vec, "_NUMPY_ERROR", "No module named 'numpy'")
    engine = get_engine("vector")
    assert engine.available() is False
    with pytest.raises(EngineUnavailable):
        engine.require()
    # Every other engine keeps working.
    assert get_engine("native").available() is True
    handle = handle_for(COUNTER, "counter")
    outcome = get_engine("native").run_spec(
        handle, StimulusSpec.random(length=8), n_instances=2)
    assert outcome.errors == [None, None]


def test_farm_vector_jobs_error_rows_without_numpy(monkeypatch):
    import repro.runtime.vector as vec

    from repro.farm import SimJob, SimulationFarm

    monkeypatch.setattr(vec, "NUMPY_AVAILABLE", False)
    monkeypatch.setattr(vec, "_NUMPY_ERROR", "No module named 'numpy'")
    farm = SimulationFarm({"c": COUNTER}, workers=1)
    report = farm.run([
        SimJob(design="c", module="counter", engine="vector",
               stimulus=StimulusSpec.random(length=6)),
        SimJob(design="c", module="counter", engine="native",
               stimulus=StimulusSpec.random(length=6), index=1),
    ])
    statuses = {row.engine: row.status for row in report.results}
    assert statuses["vector"] == "error"
    assert "numpy" in report.results[0].error
    assert statuses["native"] in ("ok", "terminated")
