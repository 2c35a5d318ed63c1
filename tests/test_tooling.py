"""The benchmark's tracer wraps library names where they are looked up; a
rename in the library must fail here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

import numpy

from freqcert.certify import _shifted_loop
from freqcert.dynamics import run
from freqcert.gain import hinf_norm
from freqcert.operators import SectorParams, diagonal_quadratic
from freqcert.transfer import MethodSpec, rho_scale

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("freqcert_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
