"""Public-API surface tests: every __all__ entry exists and imports,
and the ``repro.api`` facade surface is pinned explicitly."""

import dataclasses
import importlib
import json

import pytest

PACKAGES = [
    "repro",
    "repro.api",
    "repro.isa",
    "repro.lang",
    "repro.analysis",
    "repro.emulator",
    "repro.trace",
    "repro.uarch",
    "repro.core",
    "repro.workloads",
    "repro.harness",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_entries_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), package_name
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name}"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_is_sorted_and_unique(package_name):
    package = importlib.import_module(package_name)
    entries = list(package.__all__)
    assert len(entries) == len(set(entries)), package_name


def test_top_level_quickstart_symbols():
    """The README quickstart must keep working."""
    import repro

    trace = repro.workload("gzip").trace(max_instructions=2_000)
    base = repro.table2_config(16)
    svf = base.with_svf(mode="svf", ports=2)
    baseline = repro.simulate(trace, base)
    run = repro.simulate(trace, svf)
    assert run.speedup_over(baseline) > 0

    assert repro.StackValueFile(1024).num_entries == 128
    assert repro.StackCache(1024).num_lines == 32
    assert repro.__version__


def test_docstrings_on_public_classes():
    """Every public class/function carries a docstring."""
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        for name in package.__all__:
            obj = getattr(package, name)
            if callable(obj) and not isinstance(obj, (int, tuple, dict)):
                assert obj.__doc__, f"{package_name}.{name} lacks a docstring"


# ---------------------------------------------------------------------------
# The repro.api facade: the stability boundary is pinned explicitly.
# ---------------------------------------------------------------------------

FACADE_SURFACE = {
    "CertifyResult",
    "ChaosOptions",
    "ChaosResult",
    "CompileOptions",
    "EXPERIMENT_NAMES",
    "ExperimentResult",
    "MachineSpec",
    "ReportOptions",
    "RunResult",
    "SCHEMA_VERSION",
    "SweepOptions",
    "SweepResult",
    "UsageError",
    "certify",
    "certify_json",
    "chaos_check",
    "chaos_json",
    "characterize",
    "compile_source",
    "experiment",
    "generate_report",
    "lint",
    "lint_json",
    "load_suite",
    "predict",
    "run_workload",
    "simulate",
    "simulate_batch",
    "sweep",
    "sweep_json",
    "versioned",
}


def test_facade_surface_pinned():
    from repro import api

    assert set(api.__all__) == FACADE_SURFACE
    # The facade verbs are re-exported from the package root.
    import repro

    for name in ("CompileOptions", "MachineSpec", "RunResult",
                 "SCHEMA_VERSION", "compile_source", "run_workload",
                 "characterize", "simulate", "lint", "certify",
                 "experiment"):
        assert name in repro.__all__, name


def test_option_objects_are_frozen_with_stable_defaults():
    from repro import api

    options = api.CompileOptions()
    assert (options.fp_frames, options.promoted_locals,
            options.opt_level) == (True, 4, 0)
    spec = api.MachineSpec()
    assert (spec.width, spec.svf_mode) == (16, "none")
    with pytest.raises(dataclasses.FrozenInstanceError):
        options.opt_level = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.width = 4
    with pytest.raises(ValueError):
        api.CompileOptions(opt_level=7)


@pytest.mark.parametrize("timeout", [0, -1.0, float("nan")])
@pytest.mark.parametrize("name", ["SweepOptions", "ReportOptions",
                                  "ChaosOptions"])
def test_run_options_reject_non_positive_task_timeout(name, timeout):
    # Each class raises what its jobs check raises.
    from repro import api
    from repro.errors import UsageError

    error = UsageError if name == "SweepOptions" else ValueError
    with pytest.raises(error, match="task_timeout must be > 0"):
        getattr(api, name)(task_timeout=timeout)
    with pytest.raises(error, match="jobs must be >= 1"):
        getattr(api, name)(jobs=0)


def test_machine_spec_materializes_table2_config():
    from repro import api

    config = api.MachineSpec(width=8, svf_mode="svf", svf_ports=4,
                             svf_capacity=4096).config()
    assert config.decode_width == 8
    assert config.svf.mode == "svf"
    assert config.svf.ports == 4
    assert config.svf.capacity_bytes == 4096
    # No stack unit requested -> untouched baseline sub-config.
    assert api.MachineSpec(width=4).config().svf.mode == "none"


def test_compile_source_and_run_workload():
    from repro import api

    source = "int main() { int x; x = 41; return x + 1; }"
    program = api.compile_source(source)
    assert len(program) > 0
    asm = api.compile_source(source, emit="asm")
    assert "main" in asm
    with pytest.raises(ValueError):
        api.compile_source(source, emit="object")

    result = api.run_workload("mcf", max_instructions=20_000)
    assert result.workload == "mcf.inp"
    assert result.instructions == 20_000
    assert not result.halted


def test_simulate_accepts_spec_config_and_workload_name():
    import repro
    from repro import api

    trace = repro.workload("gzip").trace(max_instructions=2_000)
    by_spec = api.simulate(trace, api.MachineSpec())
    by_config = api.simulate(trace, repro.table2_config(16))
    assert by_spec.cycles == by_config.cycles
    by_name = api.simulate("gzip", max_instructions=2_000)
    assert by_name.cycles == by_spec.cycles


def test_simulate_takes_only_a_trace_or_a_workload_name():
    # A record list is neither: it is a TypeError naming the type, not
    # an AttributeError from deep inside the timing walk.
    import repro
    from repro import api

    from tests.trace_records import records

    trace = repro.workload("gzip").trace(max_instructions=200)
    rows = list(records(trace))
    expected = "a workload name or a ColumnarTrace, not list"
    with pytest.raises(TypeError, match=expected):
        api.simulate(rows)
    with pytest.raises(TypeError, match=expected):
        api.simulate_batch(rows, [api.MachineSpec()])


def test_lint_facade_and_versioned_json():
    from repro import api

    reports = api.lint("mcf")
    assert len(reports) == 1 and reports[0].ok
    payload = json.loads(api.lint_json(reports))
    assert payload["schema_version"] == api.SCHEMA_VERSION
    assert payload["ok"] is True

    program = api.compile_source(
        "int main() { int x; x = 1; return x; }"
    )
    assert api.lint(program)[0].ok


def test_experiment_facade_versioned_json():
    from repro import api

    # Unknown names are a usage error (CLI exit 2), not a crash.
    with pytest.raises(api.UsageError):
        api.experiment("fig99")
    result = api.experiment("table2")
    assert result.name == "table2"
    payload = json.loads(result.to_json())
    assert payload["schema_version"] == api.SCHEMA_VERSION
    assert payload["experiment"] == "table2"
    assert payload["text"] == result.render()


def test_every_json_envelope_is_versioned_with_kind():
    """lint/certify/experiment/sweep all share one envelope contract:
    ``schema_version`` (current) plus a ``kind`` discriminator."""
    from repro import api
    from repro.harness.sweep import SweepResult, SweepRow

    program = api.compile_source(
        "int main() { int x; x = 1; return x; }"
    )
    sweep_result = SweepResult(
        suite="round-trip", kind="timing", description="",
        window=1000, repetitions=1, workloads=("164.gzip",),
        factors=("svf_ports",),
        rows=(SweepRow(
            workload="164.gzip", opt_level=0, repetition=0,
            levels=(("svf_ports", 2),),
            metrics={"speedup": 1.0},
        ),),
    )
    envelopes = {
        "lint": api.lint_json(api.lint(program)),
        "certify": api.certify_json(api.certify(program)),
        "experiment": api.experiment("table2").to_json(),
        "sweep": api.sweep_json(sweep_result),
    }
    for kind, text in envelopes.items():
        payload = json.loads(text)
        assert payload["schema_version"] == api.SCHEMA_VERSION, kind
        assert payload["kind"] == kind, kind
    # The sweep run table round-trips byte-identically.
    assert json.loads(sweep_result.run_table_json()) == (
        sweep_result.run_table()
    )
