#!/usr/bin/env python3
"""Every answer of ``best_rate`` and ``max_learning_rate`` on a fixed search
corpus, one line per search, with the number of probes it made.

Usage, from the root of a checkout:

    python3 tools/search_outputs.py > searches.txt

It imports freqcert from ``src/`` and the seeded family corpus
(``_family_corpus``) from ``tests/conftest.py`` of the checkout it sits in.
The corpus, all from fixed seeds:

- ``_family_corpus`` seeds 1-10 on the sector [0.5, 4] at delta 0, 0.02,
  0.04 and 0.1;
- 1500 generated hgd and general methods: 1-12 weights in [-1, 1], every
  other draw with some weights times 1e-12 to 1e-300, eta in [1e-3, 1], mu
  in [1e-3, 1]; half of them with L/mu up to 1e6 and delta up to 0.3, half
  with L/mu up to 100 and delta below mu/L, where more of them certify;
- 500 eta templates (gd, ogd, pegd, rgd and pp) on sectors with mu from
  1e-300 to 1e300, L/mu up to 100, delta below mu/L and eta up to 1/L.

Each line holds the search, the corpus and index, the method family, the
answer as ``float.hex`` (or None, or the exception it raised) and the probes
made, counted by wrapping ``certify._certified_at`` while ``main`` runs.
When the first two ``|``-separated columns of two checkouts compare equal
(``cut -d'|' -f1,2``, then ``cmp``), both return the same answers, bit for
bit, on every search; the last column compares their probe counts.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, as the benchmark runs; precedes numpy

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from conftest import _family_corpus  # noqa: E402
from freqcert.operators import SectorParams  # noqa: E402
from freqcert.transfer import MethodSpec  # noqa: E402

FAMILY_SEEDS = range(1, 11)
DELTAS = (0.0, 0.02, 0.04, 0.1)
GENERATED, TEMPLATES = 1500, 500
SEED = 2026

# the package re-exports the function certify under the module's name
certify_mod = importlib.import_module("freqcert.certify")


def _generated(rng, count):
    """``count`` ill-scaled hgd and general methods, each on its own sector."""
    for i in range(count):
        n = int(rng.integers(1, 13))
        a = rng.uniform(-1.0, 1.0, n)
        if i % 2:
            tiny = rng.random(n) < 0.5
            a[tiny] *= 10.0 ** rng.uniform(-300.0, -12.0, int(tiny.sum()))
        eta = float(10.0 ** rng.uniform(-3.0, 0.0))
        if (i // 2) % 2:
            method = MethodSpec("general", eta=eta, a=tuple(map(float, a)),
                                b=tuple(map(float, rng.dirichlet(np.ones(n)))))
        else:
            method = MethodSpec("hgd", eta=eta, a=tuple(map(float, a)))
        mu = float(10.0 ** rng.uniform(-3.0, 0.0))
        if (i // 4) % 2:
            L = mu * float(10.0 ** rng.uniform(0.01, 2.0))
            delta = float(rng.uniform(0.0, mu / L))
        else:
            L = mu * float(10.0 ** rng.uniform(0.01, 6.0))
            delta = float(rng.uniform(0.0, 0.3))
        yield method, SectorParams(mu, L, delta), False


def _templates(rng, count):
    """``count`` eta templates on sectors from 1e-300 to 1e300."""
    families = ("gd", "ogd", "pegd", "rgd", "pp")
    for i in range(count):
        mu = float(10.0 ** rng.uniform(-300.0, 300.0))
        L = mu * float(10.0 ** rng.uniform(0.01, 2.0))
        family = families[i % len(families)]
        method = MethodSpec(family, eta=float(rng.uniform(0.05, 1.0)) / L)
        yield method, SectorParams(mu, L, float(rng.uniform(0.0, mu / L))), family == "pp"


def corpus():
    """(corpus name, method, sector, allow_improper) of every search."""
    for seed in FAMILY_SEEDS:
        for delta in DELTAS:
            for method, allow in _family_corpus(seed):
                yield f"family{seed}", method, SectorParams(0.5, 4.0, delta), allow
    rng = np.random.default_rng(SEED)
    for method, sector, allow in _generated(rng, GENERATED):
        yield "generated", method, sector, allow
    for method, sector, allow in _templates(rng, TEMPLATES):
        yield "templates", method, sector, allow


def main() -> int:
    probes = []
    certified_at = certify_mod._certified_at

    def counted(*args):
        probes.append(None)
        return certified_at(*args)

    certify_mod._certified_at = counted
    try:
        index = {}
        for name, method, sector, allow in corpus():
            i = index[name] = index.get(name, -1) + 1
            for search in (certify_mod.best_rate, certify_mod.max_learning_rate):
                if search is certify_mod.max_learning_rate and method.eta is None:
                    continue
                probes.clear()
                try:
                    out = search(method, sector, allow_improper=allow)
                    answer = "None" if out is None else float.hex(out)
                except Exception as exc:  # recorded, so two checkouts compare it too
                    answer = f"raised {type(exc).__name__}: {exc}"
                print(f"{search.__name__} {name} {i} {method.family} | {answer} | {len(probes)}")
    finally:
        certify_mod._certified_at = certified_at  # later callers in the process probe uncounted
    return 0


if __name__ == "__main__":
    sys.exit(main())
