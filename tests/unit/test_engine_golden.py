"""Golden digests of what every engine observably produces.

The engine layer (the :mod:`repro.engines` registry, its per-job
adapters and the farm worker that drives them) is plumbing: reshaping
it must never change one byte a caller sees.  Each entry below digests
(sha256 of sorted-key JSON) one of:

* a stable result row of one fixed inline ``WorkerState.run_jobs`` batch
  with a trace ledger — ``SimResult.to_dict(volatile=False)``, trace
  digests included.  The batch covers interp, efsm, native, vector and
  equivalence jobs, rtos jobs under every task engine on a single
  module and on the 3-task protocol-stack partition, random and
  explicit stimuli, coverage collection and one temporal property;
* one engine's ``Engine.run_spec`` outcome: per-lane instants,
  termination, emitted-event counts, errors, records and coverage
  payloads;
* one engine's ``Engine.run_trace`` records.

Vector entries are skipped without numpy.  Run
``python tests/unit/test_engine_golden.py`` to print the current table
when an observable engine change is intended.
"""

import hashlib
import json
import tempfile

import pytest

from repro.designs import PROTOCOL_STACK_ECL
from repro.engines import adapter_names, get_engine
from repro.farm import SimJob, StimulusSpec, WorkerState
from repro.pipeline import Pipeline
from repro.runtime.vector import NUMPY_AVAILABLE
from repro.verify.props import never, present, value

ECHO = """
module echo (input pure ping, output pure pong)
{
    while (1) { await (ping); emit (pong); }
}
"""

ONCE = """
module once (input pure go, output pure done)
{
    await (go);
    emit (done);
}
"""

COUNTER = """
module counter (input pure tick, input unsigned char load,
                output int total)
{
    int n;
    n = 0;
    while (1) {
        await (tick | load);
        present (load) { n = load; } else { n = n + 1; }
        emit_v (total, n);
    }
}
"""

DESIGNS = {"echo": ECHO, "once": ONCE, "counter": COUNTER,
           "stack": PROTOCOL_STACK_ECL}

STACK_TASKS = (
    ("assemble", "assemble", 3, (("outpkt", "packet"),)),
    ("prochdr", "prochdr", 2, (("inpkt", "packet"),)),
    ("checkcrc", "checkcrc", 1, (("inpkt", "packet"),)),
)

EXPLICIT = [{"tick": None}, {}, {"load": 7}, {"tick": None, "load": 3},
            {"tick": None}, {}, {"load": 250}]

ONCE_TRACE = [{}, {"go": None}, {"go": None}, {}]

PROPERTY = never(value("total") > 100)


def digest(payload):
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def batch_jobs():
    """The fixed batch: ``(label, job)`` pairs."""
    jobs = []

    def add(label, **fields):
        jobs.append((label, SimJob(index=len(jobs), **fields)))

    random12 = StimulusSpec.random(length=12, salt=4)
    explicit = StimulusSpec.explicit(EXPLICIT)
    for engine in ("interp", "efsm", "native", "vector", "equivalence"):
        for lane in range(2):
            add("%s/counter/random#%d" % (engine, lane), design="counter",
                module="counter", engine=engine, stimulus=random12,
                collect_coverage=True, properties=(PROPERTY,))
        add("%s/counter/explicit" % engine, design="counter",
            module="counter", engine=engine, stimulus=explicit, horizon=9)
        add("%s/once/random" % engine, design="once", module="once",
            engine=engine, stimulus=StimulusSpec.random(length=10),
            collect_coverage=True)
        add("%s/echo/vcd" % engine, design="echo", module="echo",
            engine=engine, stimulus=StimulusSpec.random(length=6),
            record_vcd=True)
    for task_engine in ("", "efsm", "native", "interp"):
        add("rtos[%s]/counter" % task_engine, design="counter",
            module="counter", engine="rtos", stimulus=random12,
            task_engine=task_engine, collect_coverage=True,
            properties=(PROPERTY,))
        add("rtos[%s]/counter/explicit" % task_engine, design="counter",
            module="counter", engine="rtos", stimulus=explicit,
            task_engine=task_engine)
        add("rtos[%s]/stack" % task_engine, design="stack",
            module="toplevel", engine="rtos",
            stimulus=StimulusSpec.random(length=24, salt=1),
            tasks=STACK_TASKS, task_engine=task_engine,
            collect_coverage=True,
            properties=(never(present("packet")),))
    return jobs


def batch_table():
    labelled = batch_jobs()
    with tempfile.TemporaryDirectory() as ledger:
        state = WorkerState(DESIGNS, ledger_root=ledger)
        results = state.run_jobs([job for _label, job in labelled])
    return {
        "batch/%s" % label: digest(result.to_dict(volatile=False))
        for (label, _job), result in zip(labelled, results)
    }


def _payload(coverage):
    return None if coverage is None else coverage.as_payload()


def spec_outcome(outcome):
    return {
        "instants": list(outcome.instants),
        "terminated": [bool(flag) for flag in outcome.terminated],
        "emitted_events": [int(count) for count in outcome.emitted_events],
        "errors": list(outcome.errors),
        "records": outcome.records,
        "coverage": (None if outcome.coverage is None
                     else [_payload(cov) for cov in outcome.coverage]),
    }


def engine_table(names):
    build = {label: Pipeline().compile_text(text, filename=label)
             for label, text in DESIGNS.items() if label != "stack"}
    counter = build["counter"].module("counter")
    once = build["once"].module("once")
    table = {}
    for name in names:
        engine = get_engine(name)
        cases = {
            "counter/coverage": lambda: engine.run_spec(
                counter, StimulusSpec.random(length=10, salt=2),
                n_instances=3, coverage=True),
            "counter/budget": lambda: engine.run_spec(
                counter, StimulusSpec.random(length=5), n_instances=2,
                budget=8),
            "counter/no-records": lambda: engine.run_spec(
                counter, StimulusSpec.random(length=9), n_instances=2,
                records=False),
            "once/seeds": lambda: engine.run_spec(
                once, StimulusSpec.random(length=8), seeds=[5, 6, 7],
                coverage=True),
        }
        for case, run in cases.items():
            table["run_spec/%s/%s" % (name, case)] = digest(
                spec_outcome(run()))
        table["run_trace/%s/counter" % name] = digest(
            engine.run_trace(counter, EXPLICIT))
        table["run_trace/%s/once" % name] = digest(
            engine.run_trace(once, ONCE_TRACE))
    return table


def current_table():
    table = batch_table()
    table.update(engine_table(adapter_names()))
    return table


# ----------------------------------------------------------------------


#: Recorded before the farm's job adapters moved into repro.engines.
GOLDEN = {
    'batch/interp/counter/random#0':
        'd818a91394b5451d09e1e912b4f0b76f',
    'batch/interp/counter/random#1':
        'fa9e173998eb23a699dd032be794b6b9',
    'batch/interp/counter/explicit':
        'f982615d1de000966ff697572b144a39',
    'batch/interp/once/random':
        'c29c54fcf3cfa607bab7fbb2c9f89aeb',
    'batch/interp/echo/vcd':
        '8d0251530809efba4862369cd2d08dfe',
    'batch/efsm/counter/random#0':
        '69ff316ba422d2eaf762476dc29f6d7c',
    'batch/efsm/counter/random#1':
        '177af9fdc2da49f7625e2f4de72678c0',
    'batch/efsm/counter/explicit':
        'db0e17bfc10d0508ff4a3f991bbd1a4c',
    'batch/efsm/once/random':
        '55c30caa05db4ba8b44095c66f670d8c',
    'batch/efsm/echo/vcd':
        '742722cf65d2d0350a7a44bac7c0fd33',
    'batch/native/counter/random#0':
        '68803abf21ae23d414270ed4bee12570',
    'batch/native/counter/random#1':
        '00ddc900af3f7c1a2f3c888929101bf2',
    'batch/native/counter/explicit':
        'd31b23cea4b6a8dac63c765187ec6cb9',
    'batch/native/once/random':
        'f2c3943fc300ad50529fbb6ade909bcc',
    'batch/native/echo/vcd':
        'feb5c5ced92372c3d1aace922989afbb',
    'batch/vector/counter/random#0':
        '8b64ca055f37afe85dc2c19bffb2b341',
    'batch/vector/counter/random#1':
        'e52df879cc01f92d4b9c78e952efadb7',
    'batch/vector/counter/explicit':
        '356ab6351eb18c62a858c621ec709fee',
    'batch/vector/once/random':
        '932d0ec88ae886234ff3503895e3e02f',
    'batch/vector/echo/vcd':
        'c922596efbf9ffbd95d096f9d23ae396',
    'batch/equivalence/counter/random#0':
        'e626cbc13ead3b4654294168416e431a',
    'batch/equivalence/counter/random#1':
        '8e65b1d94fb194ab69eac900077aedca',
    'batch/equivalence/counter/explicit':
        '23b15395d831bb38ee75ee4928603617',
    'batch/equivalence/once/random':
        '7b306264a46379ccf78dea234b24c202',
    'batch/equivalence/echo/vcd':
        'aad6128e95e919d3122267d9ac672259',
    'batch/rtos[]/counter':
        '73409c1039a525a7040a42f7e5f87062',
    'batch/rtos[]/counter/explicit':
        '11bbd35d84ab01d8775ac1823b55c712',
    'batch/rtos[]/stack':
        'ec964699f611397b204e00d4d7f1f034',
    'batch/rtos[efsm]/counter':
        '548321e29d00e604a08dea20dbc0ce97',
    'batch/rtos[efsm]/counter/explicit':
        '6f70a75bff981bd769cc904c8d6d3434',
    'batch/rtos[efsm]/stack':
        'cf7fd03e24a295fe634099f625fe506f',
    'batch/rtos[native]/counter':
        'cb3b656123b0a5672791d2465fe3b78a',
    'batch/rtos[native]/counter/explicit':
        '5048287b9329a473d9765f99e9ada436',
    'batch/rtos[native]/stack':
        '1a09b1e077f826c2678007630cd97d9b',
    'batch/rtos[interp]/counter':
        '76ad8634e29ac4d3cc27150189ab3d5d',
    'batch/rtos[interp]/counter/explicit':
        'c760fb880f9ae07e97755f0cc9b768bf',
    'batch/rtos[interp]/stack':
        'c735606d5f8a93145d464d69f5f2377f',
    'run_spec/efsm/counter/coverage':
        'cce635492440f87f760077d8f8d00558',
    'run_spec/efsm/counter/budget':
        '35d70bee250f78e92181578a6c8b0af4',
    'run_spec/efsm/counter/no-records':
        '7dc951486af44b7c842a3d625e032c66',
    'run_spec/efsm/once/seeds':
        'e7106dffe0414f4059b987081a0bc670',
    'run_trace/efsm/counter':
        '7b46c511ba0bc72e0ade00a18dbf36ea',
    'run_trace/efsm/once':
        '6d428b4db7f37908a87d43aff37396ba',
    'run_spec/interp/counter/coverage':
        '72b529fca04831639a98e7b31eb7988f',
    'run_spec/interp/counter/budget':
        '35d70bee250f78e92181578a6c8b0af4',
    'run_spec/interp/counter/no-records':
        '7dc951486af44b7c842a3d625e032c66',
    'run_spec/interp/once/seeds':
        '4eca6482f48955881db58afca58151a6',
    'run_trace/interp/counter':
        '7b46c511ba0bc72e0ade00a18dbf36ea',
    'run_trace/interp/once':
        '6d428b4db7f37908a87d43aff37396ba',
    'run_spec/native/counter/coverage':
        'cce635492440f87f760077d8f8d00558',
    'run_spec/native/counter/budget':
        '35d70bee250f78e92181578a6c8b0af4',
    'run_spec/native/counter/no-records':
        '7dc951486af44b7c842a3d625e032c66',
    'run_spec/native/once/seeds':
        'e7106dffe0414f4059b987081a0bc670',
    'run_trace/native/counter':
        '7b46c511ba0bc72e0ade00a18dbf36ea',
    'run_trace/native/once':
        '6d428b4db7f37908a87d43aff37396ba',
    'run_spec/rtos/counter/coverage':
        'c81639fdbac25ffc7b5c4807e3e67d32',
    'run_spec/rtos/counter/budget':
        '4d4f6e79299590761ffd7d8d069a0590',
    'run_spec/rtos/counter/no-records':
        '661e273ac0ffe3aaca06baba526ec13f',
    'run_spec/rtos/once/seeds':
        '80a8c9c963f6448ac596a90627027496',
    'run_trace/rtos/counter':
        'b5c6fdc909b3b4c4217d76193e868a04',
    'run_trace/rtos/once':
        '6d428b4db7f37908a87d43aff37396ba',
    'run_spec/vector/counter/coverage':
        'cce635492440f87f760077d8f8d00558',
    'run_spec/vector/counter/budget':
        '35d70bee250f78e92181578a6c8b0af4',
    'run_spec/vector/counter/no-records':
        '7dc951486af44b7c842a3d625e032c66',
    'run_spec/vector/once/seeds':
        'e7106dffe0414f4059b987081a0bc670',
    'run_trace/vector/counter':
        '7b46c511ba0bc72e0ade00a18dbf36ea',
    'run_trace/vector/once':
        '6d428b4db7f37908a87d43aff37396ba',
}


def _is_vector(label):
    return "vector" in label.split("/")[:2]


def _runnable(label):
    return NUMPY_AVAILABLE or not _is_vector(label)


@pytest.fixture(scope="module")
def table():
    # Without numpy the vector engine cannot run: its entries are left
    # out (vector jobs in the batch become error rows, not digested).
    table = batch_table()
    table.update(engine_table(
        [name for name in adapter_names()
         if NUMPY_AVAILABLE or name != "vector"]))
    return {label: value for label, value in table.items()
            if _runnable(label)}


def test_every_case_has_a_golden_entry(table):
    assert sorted(table) == sorted(filter(_runnable, GOLDEN))


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_engine_output_is_unchanged(table, label):
    if not _runnable(label):
        pytest.skip("vector engine needs numpy")
    assert table[label] == GOLDEN[label]


if __name__ == "__main__":
    for label, value in current_table().items():
        print("    %r:\n        %r," % (label, value))
