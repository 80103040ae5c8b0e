"""Unit tests for the staged pipeline: stages, registry, cache, batch."""

import importlib.util
import threading

import pytest

from repro import designs
from repro.core import CompileOptions, EclCompiler
from repro.errors import CompileError
from repro.pipeline import (
    Artifact,
    ArtifactCache,
    ArtifactKey,
    Backend,
    BackendRegistry,
    DEFAULT_REGISTRY,
    Pipeline,
    digest_options,
    digest_text,
    stage_named,
)

ECHO = """
module echo (input pure ping, output pure pong)
{
    while (1) { await (ping); emit (pong); }
}
"""

SCALE = """
module scale (input int x, output int y)
{
    while (1) { await (x); emit_v (y, x * 2); }
}
"""

TWO_MODULES = ECHO + SCALE


class TestArtifacts:
    def test_digest_text_stable(self):
        assert digest_text("abc") == digest_text("abc")
        assert digest_text("abc") != digest_text("abd")

    def test_digest_options_sees_fields(self):
        base = digest_options(CompileOptions())
        assert base == digest_options(CompileOptions())
        assert base != digest_options(CompileOptions(optimize=False))

    def test_key_identity(self):
        key = ArtifactKey("s", "o", "translate", "m")
        assert key == ArtifactKey("s", "o", "translate", "m")
        assert key.cache_id != ArtifactKey("s", "o", "efsm", "m").cache_id

    def test_stage_named(self):
        assert stage_named("translate").kind == "kernel"
        assert stage_named("emit:c").kind == "files"
        with pytest.raises(CompileError):
            stage_named("launder")


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = DEFAULT_REGISTRY.names()
        for expected in ("c", "py", "vhdl", "verilog", "esterel", "dot"):
            assert expected in names

    def test_unknown_backend_is_compile_error(self):
        with pytest.raises(CompileError):
            DEFAULT_REGISTRY.get("gcc")

    def test_custom_registration(self):
        registry = BackendRegistry()
        @registry.backend("upper", requires=("source",))
        def emit_upper(build):
            return {build.name + ".txt": build.source.upper()}
        assert "upper" in registry
        pipe = Pipeline(registry=registry)
        files = pipe.compile_text(ECHO).module("echo").emit("upper")
        assert "MODULE ECHO" in files["echo.txt"]

    def test_bad_requires_rejected(self):
        registry = BackendRegistry()
        with pytest.raises(CompileError):
            registry.register(Backend("x", lambda b: {},
                                      requires=("efsm", "llvm-ir")))

    def test_hardware_flag(self):
        assert DEFAULT_REGISTRY.get("vhdl").hardware
        assert not DEFAULT_REGISTRY.get("c").hardware

    def test_custom_registry_inherits_its_entry_points(self):
        registry = BackendRegistry(
            entry_points={"c": "repro.codegen.c_backend",
                          "dot": "repro.codegen.dot_backend"})
        assert registry.names() == ["c", "dot"]
        with pytest.raises(CompileError):
            registry.get("vhdl")   # not among its entry points


class TestCache:
    def test_memory_roundtrip(self):
        cache = ArtifactCache.memory()
        key = ArtifactKey("s", "o", "translate", "m")
        assert cache.get(key) is None
        cache.put(key, {"k": 1}, kind="kernel")
        hit = cache.get(key)
        assert isinstance(hit, Artifact)
        assert hit.payload == {"k": 1} and hit.from_cache
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_persistent_survives_process_state(self, tmp_path):
        root = str(tmp_path / "cache")
        key = ArtifactKey("s", "o", "efsm", "m")
        ArtifactCache.persistent(root).put(key, [1, 2, 3])
        fresh = ArtifactCache.persistent(root)
        hit = fresh.get(key)
        assert hit is not None and hit.payload == [1, 2, 3]
        assert fresh.stats.disk_hits == 1

    def test_unpicklable_payload_degrades_gracefully(self, tmp_path):
        cache = ArtifactCache.persistent(str(tmp_path / "cache"))
        key = ArtifactKey("s", "o", "check", "m")
        cache.put(key, threading.Lock())   # not picklable
        assert cache.stats.store_errors == 1
        assert cache.get(key) is not None  # memory layer still serves it

    def test_clear(self, tmp_path):
        cache = ArtifactCache.persistent(str(tmp_path / "cache"))
        key = ArtifactKey("s", "o", "split", "m")
        cache.put(key, "payload")
        cache.clear()
        assert len(cache) == 0
        assert ArtifactCache.persistent(cache.root).get(key) is None


class TestModuleHandle:
    def test_stage_products(self):
        handle = Pipeline().compile_text(ECHO).module("echo")
        assert handle.kernel().name == "echo"
        assert handle.efsm().state_count >= 1
        assert handle.split_report().module_name == "echo"
        assert handle.check() == []

    def test_efsm_identity_and_optimize_variants(self):
        handle = Pipeline().compile_text(ECHO).module("echo")
        assert handle.efsm() is handle.efsm()
        assert handle.efsm(optimized=False) is handle.raw_efsm()

    def test_emit_matches_legacy_products(self):
        design = EclCompiler().compile_text(ECHO)
        module = design.module("echo")
        files = module.emit("c")
        bundle = module.c_code()
        assert files["echo.c"] == bundle.source
        assert files["echo.h"] == bundle.header
        assert module.emit("dot")["echo.dot"] == module.dot()
        glue = module.glue()
        assert module.emit("esterel")["echo.strl"] == glue.esterel_text

    def test_unknown_module_message(self):
        design = Pipeline().compile_text(ECHO)
        with pytest.raises(CompileError, match="no module named 'nope'"):
            design.module("nope").kernel()

    def test_reactor_engines(self):
        handle = Pipeline().compile_text(ECHO).module("echo")
        for engine in ("efsm", "interp"):
            out = handle.reactor(engine=engine).react(inputs=["ping"])
            out = handle.reactor(engine=engine).react(inputs=["ping"])
            assert out.emitted is not None
        with pytest.raises(CompileError):
            handle.reactor(engine="jit")

    def test_py_backend_emits_importable_module(self, tmp_path):
        files = Pipeline().compile_text(ECHO).module("echo").emit("py")
        path = tmp_path / "echo.py"
        path.write_text(files["echo.py"])
        spec = importlib.util.spec_from_file_location("echo_gen", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        reactor = module.reactor()
        reactor.react(inputs=["ping"])
        out = reactor.react(inputs=["ping"])
        assert "pong" in out.emitted


class TestCompileDesign:
    def test_batched_compile_of_paper_designs(self):
        pipe = Pipeline()
        for text, expected in (
                (designs.PROTOCOL_STACK_ECL,
                 {"assemble", "checkcrc", "prochdr", "toplevel"}),
                (designs.AUDIO_BUFFER_ECL,
                 {"sampler", "fifo_ctrl", "drain_ctrl", "audio_buffer"})):
            report = pipe.compile_design(text, emit=("c", "dot"), jobs=4)
            assert report.ok
            assert set(report.module_names) == expected
            for build in report.modules:
                assert build.emitted["c"]
                assert any(name.endswith(".dot") for name
                           in build.files)

    def test_hardware_backend_skips_data_modules(self):
        report = Pipeline().compile_design(
            designs.PROTOCOL_STACK_ECL, emit=("vhdl",))
        toplevel = report.module("toplevel")
        assert toplevel.ok and "vhdl" in toplevel.skipped

    def test_hardware_backend_emits_pure_module(self):
        report = Pipeline().compile_design(ECHO, emit=("vhdl", "verilog"))
        build = report.module("echo")
        assert build.emitted["vhdl"] == ("echo.vhd",)
        assert build.emitted["verilog"] == ("echo.v",)

    def test_module_failure_does_not_abort_batch(self):
        bad = ECHO + """
module broken (input pure go, output pure done)
{
    while (1) { await (go); emit (missing); }
}
"""
        report = Pipeline().compile_design(bad, emit=("c",))
        assert not report.ok
        assert report.module("echo").ok
        broken = report.module("broken")
        assert not broken.ok and "problem" in broken.error

    def test_write_files(self, tmp_path):
        report = Pipeline().compile_design(ECHO, emit=("c",))
        written = report.write_files(str(tmp_path))
        assert sorted(p.split("/")[-1] for p in written) == \
            ["echo.c", "echo.h"]
        assert (tmp_path / "echo.c").read_text() == \
            report.files()["echo.c"]

    def test_summary_mentions_modules(self):
        report = Pipeline().compile_design(TWO_MODULES, emit=("c",))
        text = report.summary()
        assert "echo" in text and "scale" in text

    def test_module_subset(self):
        report = Pipeline().compile_design(TWO_MODULES, emit=("c",),
                                           modules=["scale"])
        assert report.module_names == ["scale"]


class TestWarmCompile:
    def test_warm_recompile_is_all_cache_hits(self, tmp_path):
        root = str(tmp_path / "cache")
        cold = Pipeline(cache=ArtifactCache.persistent(root)) \
            .compile_design(TWO_MODULES, emit=("c", "dot"))
        assert cold.ok and cold.cache_hits == 0
        warm = Pipeline(cache=ArtifactCache.persistent(root)) \
            .compile_design(TWO_MODULES, emit=("c", "dot"))
        assert warm.ok
        for build in warm.modules:
            assert all(t.cache_hit for t in build.timings)
        assert warm.files() == cold.files()

    def test_warm_build_never_parses(self, tmp_path, monkeypatch):
        root = str(tmp_path / "cache")
        Pipeline(cache=ArtifactCache.persistent(root)) \
            .compile_design(ECHO, emit=("c",))

        def boom(*args, **kwargs):
            raise AssertionError("warm build hit the parser")
        import repro.pipeline.pipeline as pipeline_mod
        monkeypatch.setattr(pipeline_mod, "run_parse", boom)
        warm = Pipeline(cache=ArtifactCache.persistent(root)) \
            .compile_design(ECHO, emit=("c",))
        assert warm.ok and warm.module("echo").cache_hits > 0

    def test_option_change_invalidates(self, tmp_path):
        root = str(tmp_path / "cache")
        Pipeline(cache=ArtifactCache.persistent(root)) \
            .compile_design(ECHO, emit=("c",))
        other = Pipeline(CompileOptions(optimize=False),
                         cache=ArtifactCache.persistent(root)) \
            .compile_design(ECHO, emit=("c",))
        assert other.ok and other.cache_hits == 0

    def test_source_change_invalidates(self, tmp_path):
        root = str(tmp_path / "cache")
        Pipeline(cache=ArtifactCache.persistent(root)) \
            .compile_design(ECHO, emit=("c",))
        changed = Pipeline(cache=ArtifactCache.persistent(root)) \
            .compile_design(ECHO.replace("pong", "pung"), emit=("c",))
        assert changed.ok and changed.cache_hits == 0

    def test_included_file_change_invalidates(self, tmp_path):
        header = tmp_path / "gain.h"
        header.write_text("#define GAIN 2\n")
        source = '#include "gain.h"\n' + """
module amp (input int x, output int y)
{
    while (1) { await (x); emit_v (y, x * GAIN); }
}
"""
        root = str(tmp_path / "cache")
        paths = (str(tmp_path),)
        cold = Pipeline(cache=ArtifactCache.persistent(root)) \
            .compile_design(source, emit=("c",), include_paths=paths)
        assert cold.ok and "* 2" in cold.files()["amp.c"]
        header.write_text("#define GAIN 99\n")
        changed = Pipeline(cache=ArtifactCache.persistent(root)) \
            .compile_design(source, emit=("c",), include_paths=paths)
        assert changed.cache_hits == 0
        assert "* 99" in changed.files()["amp.c"]

    def test_predefined_macros_part_of_digest(self, tmp_path):
        source = """
module fixed (input pure go, output int level)
{
    while (1) { await (go); emit_v (level, LEVEL); }
}
"""
        root = str(tmp_path / "cache")
        # Warm runs touch only check + emit:c, both cache-served.
        for level, expect_hits in (("1", 0), ("2", 0), ("1", 2)):
            report = Pipeline(cache=ArtifactCache.persistent(root)) \
                .compile_design(source, emit=("c",),
                                predefined={"LEVEL": level})
            assert report.ok
            assert report.cache_hits == expect_hits

    def test_unresolvable_include_is_uncacheable_not_stale(self,
                                                          tmp_path):
        from repro.pipeline import digest_design_inputs
        source = '#include "missing.h"\nmodule m () {}'
        first = digest_design_inputs(source, include_paths=())
        second = digest_design_inputs(source, include_paths=())
        assert first.startswith("uncacheable:")
        assert first != second   # never shared, never stale

    def test_include_digest_matches_preprocessor_grammar(self, tmp_path):
        # Spellings the preprocessor accepts must all reach the digest:
        # no space after 'include', '#  include', trailing comments,
        # backslash-continued directive lines.
        header = tmp_path / "gain.h"
        header.write_text("#define GAIN 2\n")
        from repro.pipeline import digest_design_inputs
        spellings = [
            '#include"gain.h"\n',
            '#  include  "gain.h"\n',
            '#include "gain.h" /* tuning */\n',
            '#include "gain.h" // tuning\n',
            '#include \\\n"gain.h"\n',
        ]
        paths = (str(tmp_path),)
        before = [digest_design_inputs(s, include_paths=paths)
                  for s in spellings]
        header.write_text("#define GAIN 99\n")
        after = [digest_design_inputs(s, include_paths=paths)
                 for s in spellings]
        for spelling, old, new in zip(spellings, before, after):
            assert not old.startswith("uncacheable:"), spelling
            assert old != new, "edit invisible to digest: %r" % spelling

    def test_uncacheable_design_not_persisted_to_disk(self, tmp_path):
        root = tmp_path / "cache"
        cache = ArtifactCache.persistent(str(root))
        source = "#ifdef NEVER\n#include \"missing.h\"\n#endif\n" + ECHO
        report = Pipeline(cache=cache).compile_design(source, emit=("c",))
        assert report.ok   # the guarded include never fires
        assert report.source_digest.startswith("uncacheable:")
        persisted = [p for p in root.rglob("*.pkl")]
        assert persisted == []   # one-shot keys stay off disk

    def test_replaced_backend_invalidates_emit_artifacts(self, tmp_path):
        root = str(tmp_path / "cache")
        registry = BackendRegistry(
            entry_points={"dot": "repro.codegen.dot_backend"})
        warm_files = Pipeline(cache=ArtifactCache.persistent(root),
                              registry=registry) \
            .compile_design(ECHO, emit=("dot",)).files()
        assert warm_files["echo.dot"].startswith("digraph")

        replaced = BackendRegistry()
        @replaced.backend("dot", requires=("efsm",))
        def emit_custom(build):
            return {build.name + ".dot": "CUSTOM OUTPUT"}
        fresh = Pipeline(cache=ArtifactCache.persistent(root),
                         registry=replaced) \
            .compile_design(ECHO, emit=("dot",))
        assert fresh.files()["echo.dot"] == "CUSTOM OUTPUT"

    def test_option_mutation_after_construction_rekeys(self, tmp_path):
        pipe = Pipeline(cache=ArtifactCache.persistent(
            str(tmp_path / "cache")))
        first = pipe.compile_design(ECHO, emit=("c",))
        assert first.ok
        pipe.options.optimize = False
        second = pipe.compile_design(ECHO, emit=("c",))
        assert second.ok and second.cache_hits == 0

    def test_memory_layer_is_lru_bounded(self):
        cache = ArtifactCache.memory(max_memory_entries=2)
        keys = [ArtifactKey("s", "o", "check", "m%d" % i)
                for i in range(3)]
        for key in keys:
            cache.put(key, key.module)
        assert len(cache) == 2
        assert cache.get(keys[0]) is None     # evicted, LRU
        assert cache.get(keys[2]).payload == "m2"


class TestLegacyShim:
    def test_shim_shares_pipeline_cache(self):
        compiler = EclCompiler()
        first = compiler.compile_text(ECHO).module("echo").efsm()
        second = compiler.compile_text(ECHO).module("echo").efsm()
        assert first is second   # same source+options → same artifact

    def test_shim_strict_mode(self):
        unused = """
module quiet (input pure go, input pure unused, output pure done)
{
    while (1) { await (go); emit (done); }
}
"""
        design = EclCompiler(CompileOptions(strict=True)) \
            .compile_text(unused)
        with pytest.raises(CompileError):
            design.module("quiet")

    def test_options_and_pipeline_conflict_rejected(self):
        with pytest.raises(ValueError):
            EclCompiler(CompileOptions(optimize=False),
                        pipeline=Pipeline())

    def test_options_reassignment_writes_through(self):
        compiler = EclCompiler()
        compiler.options = CompileOptions(optimize=False)
        module = compiler.compile_text(ECHO).module("echo")
        assert module.efsm() is module.efsm(optimized=False)
        assert compiler.pipeline.options.optimize is False


class TestPartitionBundles:
    """DesignBuild.partition_bundle: the rtos engine's one-artifact bind."""

    TASKS = (
        ("assemble", "assemble", 3, (("outpkt", "packet"),)),
        ("prochdr", "prochdr", 2, (("inpkt", "packet"),)),
        ("checkcrc", "checkcrc", 1, (("inpkt", "packet"),)),
    )

    def test_bundle_contains_every_task(self):
        build = Pipeline().compile_text(designs.PROTOCOL_STACK_ECL,
                                        filename="stack.ecl")
        bundle = build.partition_bundle(self.TASKS)
        assert [task.name for task in bundle.tasks] == \
            ["assemble", "prochdr", "checkcrc"]
        for task in bundle.tasks:
            assert task.code is not None and task.efsm is not None
        assert bundle.tasks[0].bindings == (("outpkt", "packet"),)
        assert "assemble:assemble@3" in bundle.describe()

    def test_bundle_is_content_addressed(self):
        pipeline = Pipeline()
        build = pipeline.compile_text(designs.PROTOCOL_STACK_ECL,
                                      filename="stack.ecl")
        first = build.partition_bundle(self.TASKS)
        assert build.partition_bundle(self.TASKS) is first
        other = build.partition_bundle(self.TASKS[:2])
        assert other is not first

    def test_bundle_survives_persistent_cache(self, tmp_path):
        import pickle

        cache = ArtifactCache.persistent(str(tmp_path / "cache"))
        pipeline = Pipeline(cache=cache)
        build = pipeline.compile_text(designs.PROTOCOL_STACK_ECL,
                                      filename="stack.ecl")
        bundle = build.partition_bundle(self.TASKS)
        clone = pickle.loads(pickle.dumps(bundle))
        assert [t.module for t in clone.tasks] == \
            [t.module for t in bundle.tasks]
        # A second pipeline over the same cache serves the bundle from
        # disk without recompiling any stage.
        warm = Pipeline(cache=ArtifactCache.persistent(
            str(tmp_path / "cache")))
        warm_build = warm.compile_text(designs.PROTOCOL_STACK_ECL,
                                       filename="stack.ecl")
        warm_bundle = warm_build.partition_bundle(self.TASKS)
        assert warm.cache.stats.disk_hits >= 1
        assert [t.name for t in warm_bundle.tasks] == \
            [t.name for t in bundle.tasks]
