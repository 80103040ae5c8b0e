"""Cross-task-engine equivalence of the simulated RTOS.

The multi-task extension of the three-engine property suite: for any
random stimulus, the ``rtos`` farm engine must produce the identical
trace **and** identical kernel statistics whether its tasks run the
compiled-automaton walker (``efsm``), the closure-compiled native
reactors (``native``, slot-indexed fast dispatch) or the reference
interpreter (``interp``) — on multi-task partitions of both Table 1
designs and on the flat product machines (single-task wrap of the
synchronous composition).

Kernel statistics equality is the strong claim: the batched
run-to-completion cascade must schedule, context-switch, post and
self-trigger *identically* regardless of what executes inside a task,
and the slot-indexed carriers must lose exactly the events the classic
event-flag/mailbox services would lose (overwrite semantics included).
"""

import pytest

from repro.designs import AUDIO_BUFFER_ECL, PROTOCOL_STACK_ECL
from repro.engines import get_engine
from repro.farm import SimJob, StimulusSpec, WorkerState

STACK_TASKS = (
    ("assemble", "assemble", 3, (("outpkt", "packet"),)),
    ("prochdr", "prochdr", 2, (("inpkt", "packet"),)),
    ("checkcrc", "checkcrc", 1, (("inpkt", "packet"),)),
)

BUFFER_TASKS = (
    ("sampler", "sampler", 3),
    ("drain", "drain_ctrl", 2),
    ("fifo", "fifo_ctrl", 1),
)

#: (design label, flat module, partition tasks)
PARTITIONS = {
    "stack": ("toplevel", STACK_TASKS),
    "buffer": ("audio_buffer", BUFFER_TASKS),
}

TASK_ENGINES = ("efsm", "native", "interp")


@pytest.fixture(scope="module")
def state():
    return WorkerState({
        "stack": PROTOCOL_STACK_ECL,
        "buffer": AUDIO_BUFFER_ECL,
    })


def run_rtos(state, design, module, tasks, task_engine, salt, length=24):
    job = SimJob(
        design=design,
        module=module,
        engine="rtos",
        stimulus=StimulusSpec.random(length=length, salt=salt),
        index=salt,
        tasks=tasks,
        task_engine=task_engine,
    )
    engine = get_engine("rtos").build(state.handles(design), job)
    # Seed the stimulus from the *efsm* job identity so every task
    # engine replays the identical instants (task_engine enters the
    # job id by design — it must not change the drawn trace here).
    reference = SimJob(
        design=design,
        module=module,
        engine="rtos",
        stimulus=job.stimulus,
        index=salt,
        tasks=tasks,
    )
    stimulus = job.stimulus.materialize(
        engine.input_alphabet(), reference.seed)
    records = [engine.step(instant) for instant in stimulus]
    stats = engine.kernel_stats()
    per_task = {
        task.name: (task.dispatch_count, task.lost_events())
        for task in engine.kernel.tasks
    }
    return records, stats, per_task, engine


@pytest.mark.parametrize("design", sorted(PARTITIONS))
class TestPartitionedTaskEngines:
    @pytest.mark.parametrize("salt", [0, 1, 2, 3])
    def test_partition_traces_and_stats_agree(self, state, design, salt):
        module, tasks = PARTITIONS[design]
        reference = None
        for task_engine in TASK_ENGINES:
            outcome = run_rtos(state, design, module, tasks,
                               task_engine, salt)
            if reference is None:
                reference = outcome
                continue
            ref_records, ref_stats, ref_tasks, _ = reference
            records, stats, per_task, _ = outcome
            assert records == ref_records, \
                "trace diverged under task engine %r" % task_engine
            assert stats == ref_stats, \
                "kernel stats diverged under task engine %r" % task_engine
            assert per_task == ref_tasks

    @pytest.mark.parametrize("salt", [0, 5])
    def test_flat_product_machine_agrees(self, state, design, salt):
        """The flat product machine (single task wrapping the
        synchronous composition) under every task engine."""
        module, _tasks = PARTITIONS[design]
        outcomes = [
            run_rtos(state, design, module, (), task_engine, salt)
            for task_engine in TASK_ENGINES
        ]
        for other in outcomes[1:]:
            assert other[0] == outcomes[0][0]
            assert other[1] == outcomes[0][1]

    def test_native_tasks_use_fast_path(self, state, design, salt=0):
        module, tasks = PARTITIONS[design]
        _r, _s, _t, engine = run_rtos(state, design, module, tasks,
                                      "native", salt)
        assert all(task.uses_native_path for task in engine.kernel.tasks)
        _r, _s, _t, engine = run_rtos(state, design, module, tasks,
                                      "efsm", salt)
        assert not any(task.uses_native_path for task in engine.kernel.tasks)


class TestLostEventSemantics:
    """Slot-indexed carriers must lose exactly what mailboxes lose."""

    DESIGN = """
module slowpoke (input pure go, input int data, output int total)
{
    int acc;
    acc = 0;
    while (1) {
        await (go);
        acc = acc + data;
        emit_v (total, acc);
    }
}
"""

    def _engine(self, task_engine):
        state = WorkerState({"d": self.DESIGN})
        job = SimJob(design="d", module="slowpoke", engine="rtos",
                     stimulus=StimulusSpec.explicit([]), index=0,
                     task_engine=task_engine)
        return get_engine("rtos").build(state.handles("d"), job)

    @pytest.mark.parametrize("task_engine", TASK_ENGINES)
    def test_mailbox_overwrite_counts_lost(self, task_engine):
        engine = self._engine(task_engine)
        kernel = engine.kernel
        task = kernel.tasks[0]
        # Two values before any dispatch: the first is overwritten.
        task.deliver("data", 7)
        task.deliver("data", 9)
        # Two pure events: the second is lost (latched flag).
        task.deliver("go", None)
        task.deliver("go", None)
        out = kernel.run_until_idle()
        assert out == {"total": 9}
        assert task.lost_events() == 2
        assert kernel.total_lost_events() == 2
        view = task.carrier("data")
        assert view.post_count == 2 and view.lost_count == 1

    @pytest.mark.parametrize("task_engine", ["efsm", "native"])
    def test_value_none_is_presence_only(self, task_engine):
        engine = self._engine(task_engine)
        kernel = engine.kernel
        kernel.post_input("data", 5)
        kernel.post_input("go")
        assert kernel.run_until_idle() == {"total": 5}
        # A bare presence on the valued input keeps the old value.
        kernel.post_input("data")
        kernel.post_input("go")
        assert kernel.run_until_idle() == {"total": 10}
