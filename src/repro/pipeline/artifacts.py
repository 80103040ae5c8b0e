"""Content-addressed artifacts: the currency of the staged pipeline.

Every stage of the compilation pipeline produces an :class:`Artifact` —
a typed payload tagged with an :class:`ArtifactKey` that names exactly
which computation produced it: the digest of the source text, the digest
of the compile options, the stage name, and (for per-module stages) the
module name.  Two compilations with the same key are guaranteed to
produce the same payload, which is what makes the persistent
:class:`repro.pipeline.cache.ArtifactCache` sound: a key is a proof of
equivalence, not a heuristic.
"""

from __future__ import annotations

import hashlib
import os
import re

from ..nodes import Frozen, Record, field

#: Bumped whenever the meaning of a stage payload changes, so persistent
#: caches from older layouts can never serve stale artifacts.
SCHEMA_VERSION = "1"

#: The preprocessor's own directive shape
#: (:data:`repro.lang.preprocessor._DIRECTIVE_RE`); kept in sync so the
#: digest scanner sees exactly the includes the preprocessor would.
_DIRECTIVE_RE = re.compile(r"^\s*#\s*(\w+)\s*(.*)$")

#: Recursion guard for pathological include chains.
_MAX_INCLUDE_DEPTH = 16


def digest_text(text):
    """Stable hex digest of a piece of source text."""
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.sha256(text).hexdigest()


def digest_design_inputs(text, filename="<string>", include_paths=(),
                         predefined=None):
    """Digest of *everything* the preprocessor+parser read for one
    translation unit: the text, the include-path list, the predefined
    macros, and the contents of every ``#include``-reachable file
    (resolved with the preprocessor's own search order, recursively).

    If an include cannot be resolved at digest time (missing file,
    include chain too deep), the design is declared *uncacheable*: a
    unique digest is returned so no artifact is ever shared — stale
    results are impossible, at worst caching is lost.
    """
    hasher = hashlib.sha256()
    hasher.update(text.encode("utf-8"))
    hasher.update(("\x1fpaths=%r" % (tuple(include_paths),))
                  .encode("utf-8"))
    hasher.update(("\x1fmacros=%r"
                   % sorted((predefined or {}).items()))
                  .encode("utf-8"))
    if not _hash_includes(text, filename, include_paths, hasher,
                          visited=set(), depth=0):
        import uuid

        return "uncacheable:" + uuid.uuid4().hex
    return hasher.hexdigest()


def _iter_include_args(text):
    """Arguments of every ``#include`` directive in ``text``, using the
    preprocessor's line handling: backslash continuations joined, the
    ``#  include`` spelling accepted, trailing comments stripped.
    Over-approximates on purpose (e.g. it also sees includes inside
    inactive ``#ifdef`` branches): extra inputs in the digest can only
    cause spurious invalidation, never staleness.
    """
    lines = text.split("\n")
    index = 0
    while index < len(lines):
        line = lines[index]
        while line.rstrip().endswith("\\") and index + 1 < len(lines):
            line = line.rstrip()[:-1] + " " + lines[index + 1]
            index += 1
        match = _DIRECTIVE_RE.match(line)
        if match and match.group(1) == "include":
            rest = re.sub(r"/\*.*?\*/", " ", match.group(2).strip())
            rest = re.sub(r"//.*", "", rest).strip()
            yield rest
        index += 1


def _hash_includes(text, filename, include_paths, hasher, visited,
                   depth):
    """Fold every resolvable include's path+content into ``hasher``;
    False when any include cannot be accounted for."""
    if depth > _MAX_INCLUDE_DEPTH:
        return False
    for rest in _iter_include_args(text):
        if len(rest) >= 2 and rest[0] in "\"<" and \
                rest[-1] == {"\"": "\"", "<": ">"}[rest[0]]:
            target = rest[1:-1]
        else:
            return False   # malformed; the preprocessor will error
        path = _resolve_include(target, filename, include_paths)
        if path is None:
            return False
        real = os.path.realpath(path)
        if real in visited:
            continue
        visited.add(real)
        try:
            with open(path) as handle:
                included = handle.read()
        except OSError:
            return False
        hasher.update(("\x1finclude=%s\x1f" % real).encode("utf-8"))
        hasher.update(included.encode("utf-8"))
        if not _hash_includes(included, path, include_paths, hasher,
                              visited, depth + 1):
            return False
    return True


def _resolve_include(target, filename, include_paths):
    """Mirror of the preprocessor's search order: directory of the
    including file, then the include paths, then the cwd."""
    search = list(include_paths)
    base = os.path.dirname(filename)
    if base:
        search.insert(0, base)
    search.append(".")
    for directory in search:
        path = os.path.join(directory, target)
        if os.path.isfile(path):
            return path
    return None


def digest_options(options):
    """Stable hex digest of a dataclass of compile options.

    Field order is canonicalised by name so the digest survives field
    reordering; the schema version and library version are mixed in so
    artifacts never cross incompatible releases.
    """
    from .. import __version__

    parts = ["schema=%s" % SCHEMA_VERSION, "version=%s" % __version__]
    for name in sorted(options._fields):
        parts.append("%s=%r" % (name, getattr(options, name)))
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


class ArtifactKey(Frozen):
    """Identity of one stage output: (source, options, stage, module)."""

    source: str            # digest of the translation unit's text
    options: str           # digest of the CompileOptions
    stage: str             # stage name, e.g. "translate" or "emit:c"
    module: str = ""       # module name; "" for design-level stages

    @property
    def reusable(self):
        """False for keys under a one-shot digest (unresolvable
        includes, adopted pre-parsed programs): they can never be hit
        again, so persisting them would only grow the disk cache."""
        return not self.source.startswith(("uncacheable:", "adopted:"))

    @property
    def cache_id(self):
        """Single hex id addressing this key in a content store."""
        text = "\x1f".join((self.source, self.options, self.stage,
                            self.module))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def __str__(self):
        scope = self.module or "<design>"
        return "%s/%s@%s" % (scope, self.stage, self.cache_id[:12])


class Artifact(Record):
    """One stage output: a typed payload under a content address."""

    key: ArtifactKey
    payload: object
    kind: str = ""               # "kernel", "efsm", "files", ...
    meta: dict = field(default_factory=dict)
    from_cache: bool = False

    def __repr__(self):
        return "Artifact(%s, kind=%r, from_cache=%r)" % (
            self.key, self.kind, self.from_cache)
