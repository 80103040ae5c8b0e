"""Structured build reports for batched pipeline compilations.

A :class:`BuildReport` is what :meth:`repro.pipeline.Pipeline.compile_design`
returns: one :class:`ModuleBuild` per module with stage-by-stage timings
(including which stages were artifact-cache hits), warnings, emitted
files, per-backend skips, and failures — the artifact-and-report
discipline verification flows build their tooling around.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from ..nodes import Record, field


class StageTiming(Record):
    """One stage execution inside one module's build."""

    stage: str
    seconds: float
    cache_hit: bool = False

    def __str__(self):
        marker = "cached" if self.cache_hit else "%.1f ms" % (
            self.seconds * 1e3)
        return "%s (%s)" % (self.stage, marker)


class ModuleBuild(Record):
    """Build outcome of one module."""

    module: str
    ok: bool = True
    error: Optional[str] = None
    warnings: List[str] = field(default_factory=list)
    #: backend name -> filenames that backend produced
    emitted: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: backend name -> reason the backend refused this module
    skipped: Dict[str, str] = field(default_factory=dict)
    #: filename -> file text, across all emitted backends
    files: Dict[str, str] = field(default_factory=dict)
    timings: List[StageTiming] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def cache_hits(self):
        return sum(1 for t in self.timings if t.cache_hit)

    @property
    def stages_run(self):
        return sum(1 for t in self.timings if not t.cache_hit)

    def summary_line(self):
        if not self.ok:
            return "%-12s FAILED: %s" % (self.module,
                                         (self.error or "").splitlines()[0])
        bits = ["%-12s ok" % self.module,
                "%6.1f ms" % (self.elapsed * 1e3),
                "%d/%d stages cached" % (self.cache_hits,
                                         len(self.timings))]
        if self.emitted:
            bits.append("emitted " + ",".join(sorted(self.emitted)))
        if self.skipped:
            bits.append("skipped " + ",".join(sorted(self.skipped)))
        if self.warnings:
            bits.append("%d warning(s)" % len(self.warnings))
        return "  ".join(bits)


class BuildReport(Record):
    """Outcome of one batched design compilation."""

    design: str                      # filename / label of the unit
    source_digest: str
    options_digest: str
    modules: List[ModuleBuild] = field(default_factory=list)
    elapsed: float = 0.0
    jobs: int = 1
    cache_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self):
        return all(m.ok for m in self.modules)

    @property
    def cache_hits(self):
        return sum(m.cache_hits for m in self.modules)

    @property
    def module_names(self):
        return [m.module for m in self.modules]

    def module(self, name):
        for build in self.modules:
            if build.module == name:
                return build
        raise KeyError(name)

    def files(self):
        """All emitted files across modules (filename -> text)."""
        merged = {}
        for build in self.modules:
            merged.update(build.files)
        return merged

    def write_files(self, outdir):
        """Write every emitted file under ``outdir``; returns paths."""
        os.makedirs(outdir, exist_ok=True)
        written = []
        for filename, text in sorted(self.files().items()):
            path = os.path.join(outdir, filename)
            with open(path, "w") as handle:
                handle.write(text)
            written.append(path)
        return written

    def summary(self):
        """Human-readable multi-line report."""
        lines = ["build %s: %d module(s), %.1f ms, %d job(s), "
                 "%d stage cache hit(s)%s"
                 % (self.design, len(self.modules), self.elapsed * 1e3,
                    self.jobs, self.cache_hits,
                    "" if self.ok else " — FAILURES")]
        for build in self.modules:
            lines.append("  " + build.summary_line())
            for warning in build.warnings:
                lines.append("    warning: %s" % warning)
            if not build.ok and build.error:
                for errline in build.error.splitlines()[1:]:
                    lines.append("    %s" % errline)
        return "\n".join(lines)
