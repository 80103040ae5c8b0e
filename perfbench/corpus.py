"""Seeded design corpus of the ``cold_compile`` workload.

Every entry is one ECL translation unit plus the reason it is in the
corpus.  Three kinds of entry:

* the paper's translation units (protocol stack, audio buffer, elevator
  door), verbatim;
* ``#define`` variants of them (a different ``MYADDR``, header size or
  FIFO depth), which change the source digest and, for the sizes, the
  automaton;
* reactive modules drawn from ``random.Random(seed)`` with the grammar
  of ``tests/property/test_generated_modules.py`` (loops always pause,
  only declared signals are referenced, one writer per output).  A
  ``light`` module is one sequential thread, so phase 2 (EFSM build and
  optimisation) is negligible next to start-up and the frontend; a
  ``heavy`` module runs several such threads under ``par``, so the
  automaton is their product and phase 2 dominates the build.

Each entry carries a ``klass`` ("light" or "heavy") fixed by how it was
made, never by a measurement, so the same seed always yields the same
classes.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import shutil
from dataclasses import dataclass

INPUTS = ["i0", "i1", "i2"]

#: Shape of the generated modules (the seed varies their content).
#: Light: one thread, in-process build of a few ms.  Heavy: the product
#: of three threads, whose EFSM build is ~0.2 s on a 2-core Xeon.
LIGHT_KINDS = ("emit", "present", "abort", "count", "suspend", "emit")
HEAVY_THREADS = 3
HEAVY_KINDS = ("present", "count", "suspend")


@dataclass(frozen=True)
class Entry:
    name: str
    text: str
    klass: str
    why: str


def paper_sources():
    from repro.designs import (AUDIO_BUFFER_ECL, DOOR_CTRL_ECL,
                               PROTOCOL_STACK_ECL)

    return {"stack": PROTOCOL_STACK_ECL, "audio": AUDIO_BUFFER_ECL,
            "door": DOOR_CTRL_ECL}


def redefine(text, name, value):
    """``text`` with ``#define name ...`` replaced by ``value``."""
    pattern = re.compile(r"^#define %s .*$" % re.escape(name), re.MULTILINE)
    replaced, count = pattern.subn("#define %s %s" % (name, value), text)
    if count != 1:
        raise ValueError("no single #define %s in the source" % name)
    return replaced


def stack_variant(text, myaddr):
    """The protocol stack answering to another address (what a serving
    tenant or a designer's edit produces: new digest, same automaton)."""
    return redefine(text, "MYADDR", "0x%02x" % myaddr)


def _guard(rng):
    """A one-literal signal expression (compound guards multiply the
    EFSM's decision trees and make phase 2 cost swing with the seed)."""
    name = rng.choice(INPUTS)
    return rng.choice([name, "~%s" % name])


def _step(rng, kind, outputs):
    """One thread step of the given ``kind``, with exactly one pause."""
    first, second = rng.sample(outputs, 2)
    if kind == "emit":
        return "await (%s); emit (%s);" % (_guard(rng), first)
    if kind == "present":
        return ("await (%s); present (%s) { emit (%s); } else { emit (%s); }"
                % (_guard(rng), _guard(rng), first, second))
    if kind == "abort":
        return ("do { await (%s); emit (%s); } %s (%s);"
                % (_guard(rng), first, rng.choice(["abort", "weak_abort"]),
                   _guard(rng)))
    if kind == "count":
        return ("n = n + 1; if (n %% 3 == %d) { emit (%s); } await (%s);"
                % (rng.randrange(3), first, _guard(rng)))
    if kind == "suspend":
        return "do { await (%s); emit (%s); } suspend (%s);" % (
            rng.choice(INPUTS), first, _guard(rng))
    raise ValueError("unknown step kind %r" % kind)


def generated_module(rng, name, threads, kinds):
    """One reactive module: ``threads`` looping threads in ``par`` (one
    thread needs no ``par``), each writing its own two outputs.  Every
    thread runs one step of each kind in ``kinds`` in a seeded order, so
    the automaton's size is fixed by the shape and the seed varies only
    the order, the guards and the emitted signals."""
    outputs = ["o%d" % k for k in range(2 * threads)]
    bodies = []
    for index in range(threads):
        mine = outputs[2 * index:2 * index + 2]
        order = list(kinds)
        rng.shuffle(order)
        body = " ".join(_step(rng, kind, mine) for kind in order)
        bodies.append("while (1) { %s }" % body)
    body = bodies[0] if threads == 1 else \
        "par {\n        %s\n    }" % "\n        ".join(bodies)
    params = ", ".join(["input pure %s" % s for s in INPUTS]
                       + ["output pure %s" % s for s in outputs])
    return ("module %s (%s)\n{\n    int n;\n    n = 0;\n    %s\n}\n"
            % (name, params, body))


def build_corpus(seed, light=8, heavy=2):
    """The corpus for ``seed``: the three paper units, three ``#define``
    variants and ``light`` + ``heavy`` generated modules.  Pure function
    of its arguments."""
    rng = random.Random(seed)
    papers = paper_sources()
    entries = [
        Entry("stack", papers["stack"], "heavy",
              "paper unit: protocol stack (Table 1), phase 2 of toplevel "
              "is a large share"),
        Entry("audio", papers["audio"], "heavy",
              "paper unit: audio buffer (Table 1), the largest phase 2 of "
              "the paper designs"),
        Entry("door", papers["door"], "light",
              "paper unit: elevator door, tiny automaton; start-up and "
              "frontend only"),
    ]
    myaddr = rng.randrange(0x41, 0xff)
    entries.append(Entry(
        "stack_myaddr", stack_variant(papers["stack"], myaddr), "heavy",
        "#define variant: MYADDR=0x%02x, same automaton under a new "
        "source digest" % myaddr))
    hdrsize = rng.choice([4, 5, 7, 8])
    entries.append(Entry(
        "stack_hdr%d" % hdrsize, redefine(papers["stack"], "HDRSIZE",
                                          str(hdrsize)), "heavy",
        "#define variant: HDRSIZE=%d changes the header loop and so the "
        "automaton" % hdrsize))
    depth = rng.choice([8, 12, 24, 32])
    entries.append(Entry(
        "audio_fifo%d" % depth,
        redefine(redefine(papers["audio"], "FIFODEPTH", str(depth)),
                 "HIGHWATER", str(depth * 3 // 4)), "heavy",
        "#define variant: FIFODEPTH=%d with HIGHWATER at 3/4" % depth))
    for index in range(light):
        name = "gen_light%d" % index
        entries.append(Entry(
            name, generated_module(rng, name, threads=1, kinds=LIGHT_KINDS),
            "light",
            "generated: one looping thread, phase 2 negligible"))
    for index in range(heavy):
        name = "gen_heavy%d" % index
        entries.append(Entry(
            name, generated_module(rng, name, threads=HEAVY_THREADS,
                                   kinds=HEAVY_KINDS), "heavy",
            "generated: %d threads of %d steps in par, phase 2 dominates"
            % (HEAVY_THREADS, len(HEAVY_KINDS))))
    return entries


def write_corpus(seed, folder):
    """Write the corpus for ``seed`` into ``folder`` (emptied first),
    with a ``corpus.json`` manifest, and run every module through the
    frontend (check, split, translate) so a broken entry fails here.
    Returns ``[(entry, path)]``."""
    from repro.pipeline import Pipeline

    shutil.rmtree(folder, ignore_errors=True)
    os.makedirs(folder)
    pipeline = Pipeline()
    corpus = []
    manifest = []
    for entry in build_corpus(seed):
        path = os.path.join(folder, entry.name + ".ecl")
        with open(path, "w") as handle:
            handle.write(entry.text)
        design = pipeline.compile_text(entry.text, filename=path)
        for module in design.module_names:
            handle = design.module(module)
            handle.check()
            handle.split_report()
            handle.kernel()
        corpus.append((entry, path))
        manifest.append({"name": entry.name, "class": entry.klass,
                         "why": entry.why,
                         "sha256": hashlib.sha256(
                             entry.text.encode()).hexdigest()})
    with open(os.path.join(folder, "corpus.json"), "w") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
    return corpus
