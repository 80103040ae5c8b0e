"""Golden digests of phase 2 (EFSM construction and optimisation).

Phase 2 is performance-sensitive code whose output must never drift: the
automaton's shape feeds every engine, the emitted files and the
content-addressed artifact cache.  Each entry below digests, for one
module:

* the state count and ``transition_table()`` of the raw and of the
  optimised EFSM;
* the ``repr`` of every state's reaction tree and kernel residue (raw and
  optimised);
* the bytes of the emitted ``c`` and ``native`` files.

The modules are every module of :mod:`repro.designs` plus a fixed-seed
set of generated modules (the grammar of
``tests/property/test_generated_modules.py``, drawn from
``random.Random``): one-thread modules and three-thread ``par`` modules.
Modules phase 2 rejects pin the exact error type and message instead.

The digests were recorded before the builder's exploration loop, the
SOS dispatch, kernel-term hashing and the optimiser's hash-consing were
rewritten for speed; a change that alters any automaton fails here.
Run ``python tests/unit/test_efsm_golden.py`` to print the current
table when an automaton change is intended.
"""

import hashlib
import random

import pytest

from repro import designs
from repro.ecl.module import KernelModule
from repro.efsm import build_efsm
from repro.errors import EclError
from repro.esterel import kernel as k
from repro.pipeline import Pipeline

INPUTS = ["i0", "i1", "i2"]


# ----------------------------------------------------------------------
# Generated modules


def _sig_expr(rng):
    a, b = rng.choice(INPUTS), rng.choice(INPUTS)
    return rng.choice([a, "~%s" % a, "%s & %s" % (a, b), "%s | %s" % (a, b)])


def _statement(rng, outputs, depth):
    """One well-formed reactive statement (loops always pause, only
    declared signals are referenced)."""
    choices = ["emit", "await", "awaitdelta", "halt"]
    if depth > 0:
        choices += ["present", "abort", "suspend", "seq", "loop", "ifvar"]
    kind = rng.choice(choices)
    if kind == "emit":
        return "emit (%s);" % rng.choice(outputs)
    if kind == "await":
        return "await (%s);" % _sig_expr(rng)
    if kind == "awaitdelta":
        return "await ();"
    if kind == "halt":
        return "halt ();"
    depth -= 1
    if kind == "present":
        return "present (%s) { %s } else { %s }" % (
            _sig_expr(rng), _statement(rng, outputs, depth),
            _statement(rng, outputs, depth))
    if kind == "abort":
        keyword = rng.choice(["abort", "weak_abort"])
        return "do { %s } %s (%s);" % (_statement(rng, outputs, depth),
                                       keyword, _sig_expr(rng))
    if kind == "suspend":
        return "do { %s } suspend (%s);" % (_statement(rng, outputs, depth),
                                            _sig_expr(rng))
    if kind == "seq":
        return "%s %s" % (_statement(rng, outputs, depth),
                          _statement(rng, outputs, depth))
    if kind == "loop":
        return "while (1) { %s await (%s); }" % (
            _statement(rng, outputs, depth), rng.choice(INPUTS))
    return "n = n + 1; if (n %% 3 == %d) { %s } else { %s }" % (
        rng.randrange(3), _statement(rng, outputs, depth),
        _statement(rng, outputs, depth))


def generated_source(seed, threads):
    """A module named ``gen``: ``threads`` looping threads (in ``par``
    when there are several), each a statement of depth 3 (depth 2 under
    ``par``) followed by an ``await``, writing its own two outputs."""
    rng = random.Random(seed)
    depth = 3 if threads == 1 else 2
    outputs = ["o%d" % index for index in range(2 * threads)]
    bodies = []
    for index in range(threads):
        mine = outputs[2 * index:2 * index + 2]
        bodies.append("while (1) { %s await (%s); }" % (
            _statement(rng, mine, depth), rng.choice(INPUTS)))
    body = bodies[0] if threads == 1 else \
        "par {\n        %s\n    }" % "\n        ".join(bodies)
    params = ", ".join(["input pure %s" % name for name in INPUTS]
                       + ["output pure %s" % name for name in outputs])
    return ("module gen (%s)\n{\n    int n;\n    n = 0;\n    %s\n}\n"
            % (params, body))


# ----------------------------------------------------------------------
# Digests


def _efsm_text(efsm):
    yield "states %d\n" % efsm.state_count
    yield "table %r\n" % (efsm.transition_table(),)
    for state in efsm.states:
        yield "state %d\n%r\n%r\n" % (state.index, state.reaction,
                                      state.residue)


def module_digest(handle):
    """sha256 over the raw and optimised automata and the emitted
    ``c`` + ``native`` files of one pipeline module."""
    digest = hashlib.sha256()
    for efsm in (handle.raw_efsm(), handle.efsm()):
        for text in _efsm_text(efsm):
            digest.update(text.encode())
    for backend in ("c", "native"):
        for filename, text in sorted(handle.emit(backend).items()):
            digest.update(("%s %s\n" % (backend, filename)).encode())
            digest.update(text.encode())
    return digest.hexdigest()[:32]


def outcome(handle):
    """The module's digest, or ``<ErrorType>: <message>`` if phase 2
    rejects it."""
    handle.kernel()
    try:
        return module_digest(handle)
    except EclError as error:
        return "%s: %s" % (type(error).__name__, error)


UNITS = {
    "stack": designs.PROTOCOL_STACK_ECL,
    "stack_figures": designs.PROTOCOL_STACK_FIGURES_ECL,
    "door": designs.DOOR_CTRL_ECL,
    "door_buggy": designs.DOOR_CTRL_BUGGY_ECL,
    "audio": designs.AUDIO_BUFFER_ECL,
}

#: (seed, threads) of the generated modules.
GENERATED = [(seed, 1) for seed in range(30)] + \
    [(seed, 3) for seed in range(100, 130)]

#: Modules phase 2 rejects, one per builder error.
REJECTING = {
    # A causality paradox once an input arrives.
    "paradox": (
        "module m (input pure s, output pure t) { signal pure p;"
        " while (1) { await(s); present (~p) emit(p); } }"),
    # The same paradox in the very first instant: no behaviour at all.
    "paradox_initial": (
        "module m (input pure s, output pure t) { signal pure p;"
        " present (~p) emit(p); halt(); }"),
    # Two coherent solutions, {p} and {q}, neither below the other.
    "incomparable": (
        "module m (input pure s, output pure t) { signal pure p, q;"
        " while (1) { await(s); present (p | q) { emit(t); }"
        " present (p) { emit(p); } else { emit(q); } } }"),
    # The status of p is fixed by an input tested after p.
    "local_after_input": (
        "module m (input pure s, input pure r, output pure t) {"
        " signal pure p; while (1) { await(s);"
        " present (p) { emit(t); } present (r) { emit(p); } } }"),
}


def unit_cases():
    for unit, text in UNITS.items():
        design = Pipeline().compile_text(text, filename=unit + ".ecl")
        for name in design.module_names:
            yield "%s/%s" % (unit, name), design.module(name)


def generated_cases():
    for seed, threads in GENERATED:
        design = Pipeline().compile_text(generated_source(seed, threads),
                                         filename="gen.ecl")
        yield "gen%d/t%d" % (seed, threads), design.module("gen")


def rejecting_cases():
    for label, text in REJECTING.items():
        design = Pipeline().compile_text(text, filename=label + ".ecl")
        yield "reject/" + label, design.module("m")


def instantaneous_loop_outcome():
    """A kernel loop whose body never pauses, built directly (the
    translator refuses to produce one)."""
    module = KernelModule(name="m", params=(), local_signals=(),
                          variables=(), body=k.Loop(k.Emit("t")))
    try:
        build_efsm(module)
    except EclError as error:
        return "%s: %s" % (type(error).__name__, error)
    return "accepted"


def current_table():
    table = {}
    for cases in (unit_cases, generated_cases, rejecting_cases):
        for label, handle in cases():
            table[label] = outcome(handle)
    table["reject/instantaneous_loop"] = instantaneous_loop_outcome()
    return table


# ----------------------------------------------------------------------


#: Recorded from the phase 2 implementation that predates the rewrite.
GOLDEN = {
    'stack/assemble':
        '146ed24bc845f9d83edeb799ebb44054',
    'stack/checkcrc':
        '057f155419b9a861be7309433594a1c4',
    'stack/prochdr':
        '9ce696f489a4f8e924454a417e86b1f8',
    'stack/toplevel':
        'caebcd121b7d948f0b1d1a362f1d49d5',
    'stack_figures/assemble':
        '35fbe3d4419e7e646ad0f109780e29d3',
    'stack_figures/checkcrc':
        'a3d55cd0343e97c532ce88ad3771e10b',
    'stack_figures/prochdr':
        '40c1bfe2d0585d250edef36ea2732e1e',
    'stack_figures/toplevel':
        'f872d2c17989de607141b4d8396e2796',
    'door/door_ctrl':
        '91427a28aa3fe7d36d874eeb641a5e94',
    'door/interlock':
        '1a76c991895160fb268d6ec0fce387d7',
    'door_buggy/door_ctrl':
        '5454af775566cf76d172b3a62529260d',
    'door_buggy/interlock':
        '1b13a53c0e75772175afb929416e1631',
    'audio/sampler':
        '70d2f354a321a2cd455f554972629559',
    'audio/fifo_ctrl':
        '54342f629d49d29a04572271540da614',
    'audio/drain_ctrl':
        '7ba73b939ec68e9a47f00f782f08ada9',
    'audio/audio_buffer':
        '23405dc4306d6b9555bb88a922909021',
    'gen0/t1':
        'fd4c2d767c212747c4f2a8692c08b165',
    'gen1/t1':
        'a6833f163640e88d36a7cda0363dd8cd',
    'gen2/t1':
        'b1277f3448611769d985bfdfd24d3386',
    'gen3/t1':
        'de480fd1fbb69e7182744bafbdd96f9b',
    'gen4/t1':
        '00d668eb05c4222b03d32b469f3076c6',
    'gen5/t1':
        'ecffc4a6d78261f003b0acbe602a0b38',
    'gen6/t1':
        'ad7ea5afb7b4d4d3021238bac13c6aca',
    'gen7/t1':
        'e672008177a144e68967fd97c27db68f',
    'gen8/t1':
        '00d668eb05c4222b03d32b469f3076c6',
    'gen9/t1':
        'b2486717150752319682b09896dc4894',
    'gen10/t1':
        'cc5b0c0d2b57ae1450882c6413ccc2b1',
    'gen11/t1':
        '607a44cc461037b0896fa333f564b359',
    'gen12/t1':
        'ae6b3b53e3d3b7e91047a918eca68467',
    'gen13/t1':
        '5b1549aa75fd13e36f77d15a1b770306',
    'gen14/t1':
        'cec3fdd9cb0ea1c7ed0fb455b3f8e0ee',
    'gen15/t1':
        '88f379026320348782cdbd540acf6792',
    'gen16/t1':
        '37bbccbb03cef29c461cceba1142372f',
    'gen17/t1':
        'a7c24c7d141c106d8c7f08a0711a013a',
    'gen18/t1':
        'abaebda0216d2d4a4d40e691f607dc74',
    'gen19/t1':
        'c10c231cd3fa706cc1b6720dd4b92bbb',
    'gen20/t1':
        'e701f621bf59d060ef53911daff899b9',
    'gen21/t1':
        'e701f621bf59d060ef53911daff899b9',
    'gen22/t1':
        'abaebda0216d2d4a4d40e691f607dc74',
    'gen23/t1':
        '0b8e547ad8bb6dd74566ea4a70f91ad5',
    'gen24/t1':
        'f530c6cd320698873ba000819a8cfcf9',
    'gen25/t1':
        'e62d46a087ece583862b9da1b7697b70',
    'gen26/t1':
        'de480fd1fbb69e7182744bafbdd96f9b',
    'gen27/t1':
        '3a58e7217a30ef8a757fc12ad833f671',
    'gen28/t1':
        '5a85c361ff27906fae322e581077f897',
    'gen29/t1':
        '80a72db6312a260b9a602e2ddd0ef869',
    'gen100/t3':
        '1be4b49d9e0616dc98ce12e97e0377ae',
    'gen101/t3':
        '067ee5dbbd2bebe253e9929221d0e532',
    'gen102/t3':
        'c7583e6de93503c9845bd51471a3b15a',
    'gen103/t3':
        'ea8ca1c24a7cb8feacf1190ed09e3880',
    'gen104/t3':
        '49ac61d93655d0d1b7ee9f50200ae786',
    'gen105/t3':
        '9650c7bd080a1c518bde127013034623',
    'gen106/t3':
        'b462a27fa00efc2799f8d5c6b30dfa4f',
    'gen107/t3':
        'de0ee1e14722a683805e3adfe30d7a54',
    'gen108/t3':
        '16de935bb6171ae1878d75ca6fa48262',
    'gen109/t3':
        '78f8b36f400be1eea2b80ee838a9cf67',
    'gen110/t3':
        'ff631133bc93373bb7d05389d77a1d82',
    'gen111/t3':
        '2508521afeaeef33a5af709ce88abede',
    'gen112/t3':
        'd76ffe55f50712e741349a73dae2c119',
    'gen113/t3':
        '9067f49788f9aa61667ad8e2feb0728d',
    'gen114/t3':
        'd06e80a9cde32378d15ddcfc6a4dad46',
    'gen115/t3':
        '31009c835f2d5d2f2fd9d3416c9fc144',
    'gen116/t3':
        'ea5858d736a6404ccb2f8e0e628fcbe9',
    'gen117/t3':
        '5f2ca0be56cbef3351e74d1fd1bd1089',
    'gen118/t3':
        'ce272daf59ed7b0a7c1abe9a92815fb6',
    'gen119/t3':
        '85dbaeddad602518203f7dde6e5479e1',
    'gen120/t3':
        '83acf93369b7ed39efe210481c9f8144',
    'gen121/t3':
        '7aee1d65b0b0b1c76ba9c78debdbcfe8',
    'gen122/t3':
        'df6d4fbdbbc43b4226fdd60607ef3181',
    'gen123/t3':
        '3b518fa4e8cdda8733366d071a3310af',
    'gen124/t3':
        'a0aa23ca9598b99bab7662595c9be771',
    'gen125/t3':
        '1c8af592fd2be9b2625fe829acca5de9',
    'gen126/t3':
        '102b37e62d8cd0cc5ac21b4c97e9db2a',
    'gen127/t3':
        '56a8b1c4588d1bd7e7d65f3ffe17a1d7',
    'gen128/t3':
        'e22f4ee765573858e4eeb8c29c2fd12c',
    'gen129/t3':
        '9f93e6065abbe244ca01e00416e76b71',
    'reject/paradox':
        'CausalityError: state 1 of module m: an input combination has no consistent behaviour',
    'reject/paradox_initial':
        'CausalityError: state 0 of module m has no causally consistent behaviour',
    'reject/incomparable':
        'NondeterminismError: state 1 of module m: incomparable signal assignments under the same inputs (decisions: s)',
    'reject/local_after_input':
        "NondeterminismError: state 1 of module m: local signal 'p' admits two consistent statuses",
    'reject/instantaneous_loop':
        'InstantaneousLoopError: loop body terminates without passing an instant boundary; the Esterel compiler rejects such loops (extract the loop as a data function or add await())',
}


@pytest.fixture(scope="module")
def table():
    return current_table()


def test_every_case_has_a_golden_entry(table):
    assert sorted(table) == sorted(GOLDEN)


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_phase2_output_is_unchanged(table, label):
    assert table[label] == GOLDEN[label]


if __name__ == "__main__":
    for label, value in current_table().items():
        print("    %r:\n        %r," % (label, value))
