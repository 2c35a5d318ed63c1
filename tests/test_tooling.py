"""The benchmark's tracer wraps library names where they are looked up, and
its workloads call library names; a rename in the library must fail here, not
only in a benchmark run."""

import importlib.util
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy

from freqcert.certify import _shifted_loop
from freqcert.dynamics import run
from freqcert.gain import hinf_norm
from freqcert.operators import SectorParams, diagonal_quadratic
from freqcert.transfer import MethodSpec, rho_scale

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(stem):
    path = PERFBENCH / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(f"freqcert_bench_{stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load("tracer")


def test_tracer_installs_on_every_site_and_restores_them():
    tracer_mod = _load_tracer()
    sites = tracer_mod.SPAN_SITES + tracer_mod.COUNT_SITES
    before = {}
    for module_name, path, *_ in sites:
        owner, attr = tracer_mod._resolve(module_name, path)
        before[(module_name, path)] = owner.__dict__[attr]
    roots, solve = numpy.roots, numpy.linalg.solve

    tracer = tracer_mod.Tracer()
    try:
        tracer.install()  # raises KeyError when a traced name is no longer bound
        assert numpy.roots is not roots
        assert numpy.linalg.solve is not solve
    finally:
        tracer.remove()

    assert numpy.roots is roots
    assert numpy.linalg.solve is solve
    for (module_name, path), raw in before.items():
        owner, attr = tracer_mod._resolve(module_name, path)
        assert owner.__dict__[attr] is raw, path


def test_tracer_counter_hooks_read_real_calls():
    # the hooks read library names and result fields a traced run records
    tracer_mod = _load_tracer()
    _, shifted = _shifted_loop(MethodSpec("ogd", eta=0.1), SectorParams(0.5, 4.0))
    loop = rho_scale(shifted, 0.95)
    counters = tracer_mod._grid_points((loop,), {}, hinf_norm(loop))
    assert counters["gain.grid_points"] > 0

    traj = run(MethodSpec("gd", eta=0.2), diagonal_quadratic([0.5, 4.0]), [1.0, 1.0], 25)
    assert tracer_mod._steps((), {}, traj) == {"dynamics.steps": 25}


def test_workloads_build_and_one_op_of_each_kind_passes_its_check(tmp_path):
    workloads = _load("workloads")
    first = {}
    for name, build in workloads.WORKLOADS.items():
        for op in build(1, str(tmp_path / name)):
            first.setdefault(op.kind, op)
    assert sorted(first) == ["best_rate", "game", "max_learning_rate", "run", "sweep"]
    for op in first.values():
        assert op.check(op.call()) is None, op.label


def _load_tool(monkeypatch, stem):
    # the tools pin BLAS threads and put src/ (and perfbench/ or tests/) on
    # the path as they load; both are restored after the test
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = ROOT / "tools" / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(f"freqcert_{stem}", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_op_outputs_prints_every_op_and_exits_1_on_a_failed_check(monkeypatch, capsys):
    tool = _load_tool(monkeypatch, "op_outputs")

    def op(label, out):
        check = lambda got: None if got == 1.0 else "off"
        return SimpleNamespace(label=label, call=lambda: out, check=check)

    monkeypatch.setattr(tool, "SEEDS", (1,))
    ops = {"rate_search": [op("a", 1.0)], "step_sweep": [op("b", 1.0)], "simulate": [op("c", 1.0)]}
    built = {name: lambda seed, workdir, name=name: ops[name] for name in ops}
    monkeypatch.setattr(tool.workloads, "WORKLOADS", built)
    assert tool.main() == 0
    ops["step_sweep"] = [op("b", 0.5), op("d", 1.0)]
    assert tool.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-4:] == [
        "rate_search 1 0 a | 0x1.0000000000000p+0 | ok",
        "step_sweep 1 0 b | 0x1.0000000000000p-1 | off",
        "step_sweep 1 1 d | 0x1.0000000000000p+0 | ok",
        "simulate 1 0 c | 0x1.0000000000000p+0 | ok",
    ]


def test_search_outputs_prints_every_search_and_restores_the_probe(monkeypatch, capsys):
    tool = _load_tool(monkeypatch, "search_outputs")
    certify_mod = tool.certify_mod
    probe = certify_mod._certified_at
    monkeypatch.setattr(certify_mod, "_certified_at", probe)  # put back even if main does not
    monkeypatch.setattr(tool, "FAMILY_SEEDS", (1,))
    monkeypatch.setattr(tool, "GENERATED", 4)
    monkeypatch.setattr(tool, "TEMPLATES", 5)
    assert tool.main() == 0
    assert certify_mod._certified_at is probe
    lines = capsys.readouterr().out.splitlines()
    line = re.compile(r"(best_rate|max_learning_rate) (family1|generated|templates) (\d+) "
                      r"([a-z]+) \| (None|-?0x[0-9a-f.]+p[+-]\d+|raised .+) \| (\d+)")
    fields = [line.fullmatch(text).groups() for text in lines]
    searched = {(corpus, int(i)) for search, corpus, i, *_ in fields if search == "best_rate"}
    families = len(tool._family_corpus(1)) * len(tool.DELTAS)
    assert searched == {("family1", i) for i in range(families)} | {
        ("generated", i) for i in range(4)} | {("templates", i) for i in range(5)}
    assert fields[0][:4] == ("best_rate", "family1", "0", "gd")
    assert any(int(probes) > 0 for *_, probes in fields)


def test_ab_pairs_counts_wins_by_each_metrics_direction(monkeypatch):
    tool = _load_tool(monkeypatch, "ab_pairs")
    metrics = [("ops_per_s", "ops/s", "higher"), ("op_p50_ms", "ms", "lower")]
    assert [name for name, *_ in metrics] == [name for name, *_ in tool.end_to_end()][1:3]
    base = [{"ops_per_s": v, "op_p50_ms": 2.0} for v in (100.0, 102.0, 98.0, 101.0, 99.0)]
    change = [{"ops_per_s": v, "op_p50_ms": p} for v, p in
              ((110.0, 1.5), (111.0, 2.0), (97.0, 2.5), (112.0, 1.5), (109.0, 1.5))]
    rows = {row[0]: row for row in tool.summarize(base, change, metrics)}
    name, unit, bq, cq, ratio, wins, gain = rows["ops_per_s"]
    assert (unit, bq, cq, wins, gain) == ("ops/s", [99.0, 100.0, 101.0], [109.0, 110.0, 111.0], 4, False)
    assert ratio == 1.1
    *_, wins, gain = rows["op_p50_ms"]  # a tie counts for neither side
    assert (wins, gain) == (3, False)
    change[2]["ops_per_s"] = 108.0  # all five won, and 110 - 100 > the base's IQR of 2
    assert tool.summarize(base, change, metrics)[0][-2:] == (5, True)


def test_cli_outputs_prints_one_line_per_command_and_repeats_them(monkeypatch, capsys):
    tool = _load_tool(monkeypatch, "cli_outputs")
    assert tool.main() == 0
    first = capsys.readouterr().out.splitlines()
    assert tool.main() == 0
    assert capsys.readouterr().out.splitlines() == first
    simulations = len(tool.simulations())
    assert simulations == len(tool.METHODS) * len(tool.OPERATORS) + 3
    assert len(first) == simulations * len(tool.NOISE) + 5
    line = re.compile(r"(simulate|certify|sweep|nyquist|spectrum|equivalence) .+ "
                      r"\| exit [02] \| [0-9a-f]{64}")
    assert all(line.fullmatch(text) for text in first)
    diverging = [text for text in first if "gd-diverging.json" in text]
    assert len(diverging) == len(tool.NOISE) and len({t.split()[-1] for t in diverging}) > 1
