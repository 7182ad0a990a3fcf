"""The benchmark's tracer still finds every function it wraps.

bench/tracing.py wraps gammkit functions by module and name, and
bench/run.py marks a traced run incorrect when a command opens none of
the spans its per-layer metrics read. A refactor that renames or bypasses
a traced function fails here instead of in a benchmark run. Both files are
imported as they are, from bench/.
"""

import importlib
import os
import sys
from pathlib import Path

import pytest

from gammkit import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    """bench/run.py as a module. Importing it pins BLAS threads in
    os.environ and registers the modules run and tracing: all undone
    afterwards."""
    monkeypatch.syspath_prepend(str(BENCH))
    saved_env = dict(os.environ)
    saved_modules = {name: sys.modules.pop(name, None)
                     for name in ("run", "tracing")}
    try:
        yield importlib.import_module("run")
    finally:
        os.environ.clear()
        os.environ.update(saved_env)
        for name, module in saved_modules.items():
            sys.modules.pop(name, None)
            if module is not None:
                sys.modules[name] = module


def test_traced_fit_opens_every_span_the_benchmark_reads(bench, tmp_path):
    """fs-search's model on 4 x 60: the tracer installs without problems,
    and one traced fit opens every span that run.missing_spans asks of an
    fs-search command."""
    wl = bench.WORKLOADS["fs-search"]
    scen, spec = tmp_path / "s.scn", tmp_path / "m.spec"
    scen.write_text(bench.SCENARIO.format(subjects=4, trials=60))
    spec.write_text(bench.SPEC_HEAD + wl.spec)
    sim = tmp_path / "sim"
    assert cli.main(["simulate", "--spec", str(scen), "--out", str(sim),
                     "--seed", "1"]) == 0
    tracer = bench.Tracer()
    tracer.install()
    try:
        assert not tracer.problems
        rc = tracer.command("op", cli.main, [
            *wl.command, "--data", str(sim / "simulated.csv"),
            "--spec", str(spec), "--out", str(tmp_path / "fit")])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert not tracer.problems
    ops = [{"op": "op", "traced": True}]
    assert bench.missing_spans(tracer.summaries(), ops, wl, 0) == []


def _traced_permtest(bench, tmp_path, tag):
    """One traced one-permutation permtest of the permtest workload's pilot
    model on 4 x 150 (simulate seed 2, permutation seed 0): its span
    summary."""
    wl = bench.WORKLOADS["permtest"]
    scen, spec = tmp_path / "s.scn", tmp_path / "m.spec"
    scen.write_text(bench.SCENARIO.format(subjects=wl.subjects,
                                          trials=wl.trials))
    spec.write_text(bench.SPEC_HEAD + wl.spec)
    sim = tmp_path / "sim"
    if not sim.exists():
        assert cli.main(["simulate", "--spec", str(scen), "--out", str(sim),
                         "--seed", "2"]) == 0
    tracer = bench.Tracer()
    tracer.install()
    try:
        assert not tracer.problems
        rc = tracer.command(tag, cli.main, [
            *wl.command, "--data", str(sim / "simulated.csv"),
            "--spec", str(spec), "--out", str(tmp_path / tag),
            "--seed", "0"])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert not tracer.problems
    return tracer.summaries()[tag]


def test_traced_permtest_opens_every_span_and_repeats_its_counts(
        bench, tmp_path):
    """A traced permtest opens every span that run.missing_spans asks of a
    permtest command, and a second traced run of the same input makes as
    many reml_score calls: run.check_repeats compares those counts."""
    wl = bench.WORKLOADS["permtest"]
    first = _traced_permtest(bench, tmp_path, "op1")
    ops = [{"op": "op1", "traced": True}]
    assert bench.missing_spans({"op1": first}, ops, wl, 0) == []
    second = _traced_permtest(bench, tmp_path, "op2")
    calls = first["calls"]["fitting.reml_score"]
    assert calls == second["calls"]["fitting.reml_score"] > 0
