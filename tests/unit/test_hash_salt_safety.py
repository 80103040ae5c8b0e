"""Hash-salt safety of pickled kernel terms, automata and cached builds.

Kernel terms cache their hash on first use.  ``str`` hashes are salted
per process (``PYTHONHASHSEED``), so a cached hash that crossed a pickle
boundary would be wrong in the loading process: equal terms would hash
differently and dict lookups would miss.  The emitted native reactors
embed a pickle of the EFSM and the artifact cache persists pickles, so
both paths are exercised here across processes with different seeds.
"""

import os
import pickle
import re
import subprocess
import sys

from repro.designs import PROTOCOL_STACK_ECL
from repro.esterel import kernel as k
from repro.lang import ast

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")

#: Builds the same term and automaton in whichever process runs it.
_SETUP = """
from repro.designs import PROTOCOL_STACK_ECL
from repro.esterel import kernel as k
from repro.lang import ast
from repro.pipeline import Pipeline

def make_term():
    cond = ast.SigRef(name="s")
    return k.seq(k.Emit("t"), k.Loop(k.seq(k.Await(cond),
                                           k.Emit("t"), k.Pause())))

def make_efsm():
    design = Pipeline().compile_text(PROTOCOL_STACK_ECL)
    return design.module("prochdr").efsm()
"""

_WRITE = _SETUP + """
import pickle, sys
term, efsm = make_term(), make_efsm()
hashed = {term: 0}
hashed.update({state.residue: state.index for state in efsm.states})
with open(sys.argv[1], "wb") as handle:
    pickle.dump((term, efsm), handle)
"""

_READ = _SETUP + """
import pickle, sys
with open(sys.argv[1], "rb") as handle:
    term, efsm = pickle.load(handle)
fresh_term, fresh = make_term(), make_efsm()
assert hash(term) == hash(fresh_term)
assert {fresh_term: "hit"}[term] == "hit"
by_residue = {state.residue: state.index for state in fresh.states}
for state in efsm.states:
    assert hash(state.residue) == hash(fresh.states[state.index].residue)
    assert by_residue[state.residue] == state.index
print("ok %d" % len(efsm.states))
"""


def _run(script, seed, *args):
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True)


def test_cached_hash_never_pickled():
    term = k.seq(k.Emit("t"), k.Await(ast.SigRef(name="s")))
    hash(term)
    assert "_hash" in term.__dict__
    loaded = pickle.loads(pickle.dumps(term))
    assert "_hash" not in loaded.__dict__
    assert loaded == term and hash(loaded) == hash(term)


def test_empty_term_pickles_like_a_plain_object():
    fresh = k.Nothing()
    before = pickle.dumps(fresh)
    hash(fresh)
    assert pickle.dumps(fresh) == before
    assert pickle.loads(before).__dict__ == {}


def test_pickled_terms_and_efsm_hash_under_another_seed(tmp_path):
    blob = str(tmp_path / "terms.pkl")
    _run(_WRITE, 1, blob)
    done = _run(_READ, 2, blob)
    assert done.stdout.startswith("ok ")


def _build(seed, source, outdir, emit, cache_dir=None):
    command = [sys.executable, "-m", "repro.cli", "build", source,
               "--emit", emit, "-o", outdir]
    if cache_dir is not None:
        command += ["--cache-dir", cache_dir]
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=SRC)
    return subprocess.run(command, env=env, capture_output=True, text=True,
                          check=True).stdout


def _tree(folder):
    files = {}
    for name in sorted(os.listdir(folder)):
        with open(os.path.join(folder, name), "rb") as handle:
            files[name] = handle.read()
    return files


def test_persistent_cache_hit_across_seeds(tmp_path):
    source = str(tmp_path / "stack.ecl")
    with open(source, "w") as handle:
        handle.write(PROTOCOL_STACK_ECL)
    cache = str(tmp_path / "cache")
    _build(1, source, str(tmp_path / "cold"), "c,native", cache)
    # Seed 2 serves c/native from seed 1's cache and renders esterel
    # and dot from the unpickled kernel terms and automata.
    emit = "c,native,esterel,dot"
    warm = _build(2, source, str(tmp_path / "warm"), emit, cache)
    _build(3, source, str(tmp_path / "reference"), emit)
    # Exactly the two new emit stages miss in every module.
    counts = re.findall(r"(\d+)/(\d+) stages cached", warm)
    assert counts
    assert all(int(hit) == int(total) - 2 for hit, total in counts)
    assert _tree(str(tmp_path / "warm")) == \
        _tree(str(tmp_path / "reference"))
