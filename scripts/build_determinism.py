"""Check that ``eclc build`` output does not depend on the hash seed.

Python salts ``str`` hashes per process (``PYTHONHASHSEED``), so any
emitted byte that follows set or dict-of-hash order, or a hash value
itself, differs from one process to the next.  This script builds the
paper's translation units (protocol stack as run and as printed,
elevator door and its buggy variant, audio buffer) with every backend,
once per seed, each build in a fresh ``eclc build`` process on an
in-memory cache, and compares the output trees byte for byte.

Exit status 0 when every tree is identical to the first, 1 when a file
differs or is missing, 2 when a build fails.

Usage::

    PYTHONPATH=src python scripts/build_determinism.py [--seeds 1,2]
"""

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro import designs  # noqa: E402

EMIT = "c,native,py,verilog,vhdl,dot,esterel"

UNITS = {
    "stack": designs.PROTOCOL_STACK_ECL,
    "stack_figures": designs.PROTOCOL_STACK_FIGURES_ECL,
    "door": designs.DOOR_CTRL_ECL,
    "door_buggy": designs.DOOR_CTRL_BUGGY_ECL,
    "audio": designs.AUDIO_BUFFER_ECL,
}


def build_tree(workdir, seed):
    """Build every unit under ``PYTHONHASHSEED=seed`` into
    ``workdir/seed<seed>/<unit>/``; return the tree's root."""
    root = os.path.join(workdir, "seed%s" % seed)
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO, "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    for unit in UNITS:
        source = os.path.join(workdir, unit + ".ecl")
        command = [sys.executable, "-m", "repro.cli", "build", source,
                   "--emit", EMIT, "-o", os.path.join(root, unit)]
        done = subprocess.run(command, env=env, capture_output=True,
                              text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            raise SystemExit("build of %s failed under PYTHONHASHSEED=%s"
                             % (unit, seed))
    return root


def relative_files(root):
    found = []
    for folder, _dirs, files in os.walk(root):
        for name in files:
            found.append(os.path.relpath(os.path.join(folder, name), root))
    return sorted(found)


def compare(reference, other):
    """Relative paths that differ between the two trees (missing on
    either side, or different bytes)."""
    left, right = relative_files(reference), relative_files(other)
    differing = sorted(set(left) ^ set(right))
    for path in sorted(set(left) & set(right)):
        if not filecmp.cmp(os.path.join(reference, path),
                           os.path.join(other, path), shallow=False):
            differing.append(path)
    return left, differing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1,2",
                        help="comma-separated PYTHONHASHSEED values "
                             "(default: 1,2)")
    args = parser.parse_args(argv)
    seeds = [seed.strip() for seed in args.seeds.split(",") if seed.strip()]
    if len(seeds) < 2:
        parser.error("need at least two seeds to compare")
    with tempfile.TemporaryDirectory(prefix="ecl-determinism-") as workdir:
        for unit, text in UNITS.items():
            with open(os.path.join(workdir, unit + ".ecl"), "w") as handle:
                handle.write(text)
        trees = [build_tree(workdir, seed) for seed in seeds]
        status = 0
        for seed, tree in zip(seeds[1:], trees[1:]):
            files, differing = compare(trees[0], tree)
            if differing:
                status = 1
                print("PYTHONHASHSEED=%s vs %s: %d file(s) differ:"
                      % (seeds[0], seed, len(differing)))
                for path in differing:
                    print("  " + path)
            else:
                print("PYTHONHASHSEED=%s vs %s: %d files identical"
                      % (seeds[0], seed, len(files)))
    return status


if __name__ == "__main__":
    sys.exit(main())
