import argparse
import json

import numpy as np
import pytest

from freqcert import cli
from freqcert.cli import main
from freqcert.certify import CertificationResult
from freqcert.operators import (
    SectorParams,
    bilinear_operator,
    build_minmax_operator,
    diagonal_quadratic,
)
from freqcert.transfer import MethodSpec


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_certify_exit_codes_and_json(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "ok.json",
        {"method": {"family": "gd", "eta": 0.4444}, "sector": {"mu": 0.5, "L": 4}, "rho": 0.9},
    )
    assert main(["certify", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["certified"] is True
    # the emitted fields round-trip into the result type
    assert CertificationResult(**payload).certified

    cfg = _write(
        tmp_path,
        "low.json",
        {"method": {"family": "gd", "eta": 0.4444}, "sector": {"mu": 0.5, "L": 4}, "rho": 0.7},
    )
    assert main(["certify", "--config", cfg]) == 2
    assert json.loads(capsys.readouterr().out)["certified"] is False


def test_certify_schema_violations(tmp_path):
    cfg = _write(tmp_path, "missing.json", {"method": {"family": "gd", "eta": 0.1}, "rho": 0.9})
    assert main(["certify", "--config", cfg]) == 1
    cfg = _write(
        tmp_path,
        "unknown.json",
        {
            "method": {"family": "gd", "eta": 0.1},
            "sector": {"mu": 0.5, "L": 4},
            "rho": 0.9,
            "extra": 1,
        },
    )
    assert main(["certify", "--config", cfg]) == 1
    cfg = _write(
        tmp_path,
        "badmethod.json",
        {
            "method": {"family": "gd", "eta": 0.1, "beta": 2},
            "sector": {"mu": 0.5, "L": 4},
            "rho": 0.9,
        },
    )
    assert main(["certify", "--config", cfg]) == 1


def test_certify_rejects_non_finite_config_values(tmp_path, capsys):
    # JSON 1e999 parses to inf; the spec rejects it before any root finding
    path = tmp_path / "inf.json"
    path.write_text(
        '{"method": {"family": "hgd", "eta": 0.1, "a": [1e999]},'
        ' "sector": {"mu": 0.5, "L": 4}, "rho": 0.9}'
    )
    assert main(["certify", "--config", str(path)]) == 1
    assert "a must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "method, sector, rho, field",
    [
        ({"family": "gd", "eta": "0.4444"}, {"mu": 0.5, "L": 4}, 0.9, "eta"),
        ({"family": "gd", "eta": 0.4444}, {"mu": True, "L": 4}, 0.9, "mu"),
        ({"family": "gd", "eta": 0.4444}, {"mu": 0.5, "L": 4}, "0.9", "rho"),
        ({"family": "hgd", "eta": 0.1, "a": "12"}, {"mu": 0.5, "L": 4}, 0.9, "a"),
        ({"family": "gd", "eta": 10**400}, {"mu": 0.5, "L": 4}, 0.9, "eta"),
    ],
)
def test_certify_accepts_only_json_numbers(tmp_path, capsys, method, sector, rho, field):
    # strings, booleans, a string standing in for a list and an integer
    # beyond the float range exit with 1 instead of being coerced
    cfg = _write(tmp_path, "typed.json", {"method": method, "sector": sector, "rho": rho})
    assert main(["certify", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field} must be a JSON")


def test_simulate_accepts_only_json_numbers(tmp_path, capsys):
    base = {"method": {"family": "gd", "eta": 0.3}, "operator": {"kind": "scalar-noncvx"},
            "x0": [0.1]}
    bad = [
        ("x0", {**base, "x0": ["0.1"]}),
        ("noise_delta", {**base, "noise_delta": "0.05"}),
        ("spectrum", {**base, "operator": {"kind": "diagonal-quadratic", "spectrum": "45"}}),
    ]
    for field, payload in bad:
        cfg = _write(tmp_path, "sim.json", payload)
        out = tmp_path / "t.csv"
        assert main(["simulate", "--config", cfg, "--steps", "5", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {field} must be a JSON")


def test_certify_improper_flag(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "pp.json",
        {"method": {"family": "pp", "eta": 0.5}, "sector": {"mu": 0.5, "L": 4}, "rho": 0.9},
    )
    assert main(["certify", "--config", cfg]) == 2
    capsys.readouterr()
    assert main(["certify", "--config", cfg, "--allow-improper"]) == 0
    capsys.readouterr()
    # the flag does not outlive its call
    assert main(["certify", "--config", cfg]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag, code", [(True, 0), (False, 2), ("false", 1), (0, 1), (1, 1)])
def test_certify_config_flag_must_be_a_json_boolean(tmp_path, capsys, flag, code):
    cfg = _write(
        tmp_path,
        "pp.json",
        {
            "method": {"family": "pp", "eta": 0.5},
            "sector": {"mu": 0.5, "L": 4},
            "rho": 0.9,
            "allow_improper": flag,
        },
    )
    assert main(["certify", "--config", cfg]) == code
    if code == 1:
        assert "allow_improper must be true or false" in capsys.readouterr().err


def test_sweep_config_flag_must_be_a_json_boolean(tmp_path, capsys):
    out = tmp_path / "pp.csv"
    for flag, code in ((True, 0), ("false", 1), (0, 1)):
        cfg = _write(
            tmp_path,
            "pp.json",
            {
                "method": {"family": "pp", "eta": 0.5},
                "sector": {"mu": 0.5, "L": 4},
                "allow_improper": flag,
            },
        )
        args = ["sweep", "--config", cfg, "--eta-min", "0.5", "--eta-max", "1",
                "--eta-steps", "2", "--out", str(out)]
        assert main(args) == code, flag
        if code == 0:
            rows = out.read_text().strip().splitlines()[1:]
            assert len(rows) == 2 and "uncertified" not in out.read_text()
            out.unlink()
        else:
            assert "allow_improper must be true or false" in capsys.readouterr().err
            assert not out.exists()


def test_sweep_rows_and_determinism(tmp_path):
    cfg = _write(
        tmp_path,
        "sweep.json",
        {"method": {"family": "ogd", "eta": 0.1}, "sector": {"mu": 0.5, "L": 4}},
    )
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = [
        "sweep",
        "--config",
        cfg,
        "--eta-min",
        "0.0025",
        "--eta-max",
        "0.25",
        "--eta-steps",
        "12",
        "--out",
    ]
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = out1.read_text().strip().splitlines()
    assert rows[0] == "eta,best_rho"
    assert len(rows) == 13
    # stable region ends at 2/(3 L) = 1/6
    for row in rows[1:]:
        eta, verdict = row.split(",")
        if float(eta) < 1 / 6:
            assert verdict != "uncertified"
        else:
            assert verdict == "uncertified"


def _sweep_args(tmp_path, steps="2"):
    cfg = _write(
        tmp_path,
        "sweep.json",
        {"method": {"family": "gd", "eta": 0.1}, "sector": {"mu": 0.5, "L": 4}},
    )
    return ["sweep", "--config", cfg, "--eta-min", "0.1", "--eta-max", "0.2",
            "--eta-steps", steps, "--out", str(tmp_path / "out.csv")]


def test_usage_errors_exit_1(tmp_path, capsys):
    # argparse would exit 2, which this CLI keeps for "uncertified"
    assert main(["sweep", "--config", "x"]) == 1
    assert "the following arguments are required: --eta-min" in capsys.readouterr().err
    assert main(_sweep_args(tmp_path, steps="2.5")) == 1
    assert "argument --eta-steps: invalid int value: '2.5'" in capsys.readouterr().err
    assert main([]) == 1
    assert "usage: freqcert" in capsys.readouterr().err
    # a failed parse leaves nothing behind for the next call
    assert main(_sweep_args(tmp_path)) == 0
    assert len((tmp_path / "out.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
def test_help_exits_0(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: freqcert")


def test_main_builds_its_parser_once(tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()  # so that the first call below builds it
    assert main(_sweep_args(tmp_path)) == 0
    assert built
    built.clear()
    assert main(_sweep_args(tmp_path)) == 0
    assert main(["sweep", "--config", "x"]) == 1
    assert built == []


def test_sweep_rejects_empty_grid(tmp_path):
    cfg = _write(
        tmp_path,
        "sweep.json",
        {"method": {"family": "gd", "eta": 0.1}, "sector": {"mu": 0.5, "L": 4}},
    )
    out = tmp_path / "c.csv"
    assert (
        main(
            ["sweep", "--config", cfg, "--eta-min", "0.1", "--eta-max", "0.2",
             "--eta-steps", "0", "--out", str(out)]
        )
        == 1
    )


@pytest.mark.parametrize(
    "argv, method, message",
    [
        pytest.param(["sweep", "--eta-min", "0.1", "--eta-max", "0.2", "--eta-steps", "2"],
                     {"family": "gogd", "alpha": 0.1, "beta": 0.05},
                     "sweep requires a method family with an eta field", id="sweep-no-eta"),
        pytest.param(["sweep", "--eta-min", "0.2", "--eta-max", "0.1", "--eta-steps", "2"],
                     {"family": "gd", "eta": 0.1},
                     "need 0 < eta-min <= eta-max", id="sweep-eta-order"),
        pytest.param(["spectrum", "--s-min", "0.1", "--s-max", "1.0", "--points", "1"], None,
                     "need at least 2 points", id="spectrum-one-point"),
        pytest.param(["spectrum", "--s-min", "1.0", "--s-max", "1.0", "--points", "5"], None,
                     "need 0 < s-min < s-max", id="spectrum-empty-range"),
    ],
)
def test_grid_options_are_checked_before_any_output(tmp_path, capsys, argv, method, message):
    out = tmp_path / "out.csv"
    argv = argv + ["--out", str(out)]
    if method is not None:
        cfg = {"method": method, "sector": {"mu": 0.5, "L": 4}}
        argv += ["--config", _write(tmp_path, "c.json", cfg)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_simulate_reports_a_diverged_trajectory(tmp_path, capsys):
    # gd at eta = 1 on the spectrum [0.5, 4] multiplies x1 by -3 a step; the
    # rows up to the divergence are still written, and the run exits 0
    cfg = _write(tmp_path, "div.json", {
        "method": {"family": "gd", "eta": 1.0},
        "operator": {"kind": "diagonal-quadratic", "spectrum": [0.5, 4.0]},
        "x0": [1.0, 1.0],
    })
    out = tmp_path / "div.csv"
    assert main(["simulate", "--config", cfg, "--steps", "100", "--out", str(out)]) == 0
    assert capsys.readouterr().err == "trajectory diverged\n"
    assert 2 < len(out.read_text().splitlines()) < 102


def test_nyquist_marks_outside_samples(tmp_path):
    cfg = _write(
        tmp_path,
        "nyq.json",
        {"method": {"family": "ogd", "eta": 0.175}, "sector": {"mu": 0.5, "L": 4}},
    )
    out = tmp_path / "nyq.csv"
    assert main(["nyquist", "--config", cfg, "--points", "256", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "omega,re,im,inside_disk"
    flags = [int(r.rsplit(",", 1)[1]) for r in rows[1:]]
    assert 0 in flags  # eta = 0.7/L exits the disk
    radius = 2 / 3.5
    for row in rows[1:]:
        _, re, im, flag = row.split(",")
        assert (abs(complex(float(re), float(im))) < radius) == bool(int(flag))


def test_nyquist_reports_a_pole_on_the_unit_circle(tmp_path, capsys):
    # both loops keep a mode on the unit circle (z = 1, then z = -1), and a
    # 257-point grid over [-pi, pi] samples both
    methods = [
        {"family": "hgd", "eta": 0.2, "a": [1, -1]},
        {"family": "general", "eta": 0.1, "a": [1, 1], "b": [0, 1]},
    ]
    for i, method in enumerate(methods):
        cfg = _write(tmp_path, f"pole{i}.json", {"method": method, "sector": {"mu": 0.5, "L": 4}})
        out = tmp_path / f"pole{i}.csv"
        assert main(["nyquist", "--config", cfg, "--points", "257", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: evaluation at a pole")
        assert not out.exists()


def test_a_loop_beyond_the_float_range(tmp_path, capsys):
    # rho^-3 = 1e330 overflows: certify answers uncertified and says why,
    # nyquist has no samples to print
    cfg = _write(tmp_path, "tiny.json", {"method": {"family": "hgd", "eta": 0.2, "a": [1, 0, 0]},
                                         "sector": {"mu": 0.5, "L": 4}, "rho": 1e-110})
    assert main(["certify", "--config", cfg]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["diagnostics"] == "scaled loop leaves the float range at rho=1e-110"
    out = tmp_path / "tiny.csv"
    assert main(["nyquist", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: the loop scaled by rho=1e-110 leaves the float range\n"
    assert not out.exists()


def test_spectrum_brackets_the_alt_boundary(tmp_path):
    out = tmp_path / "spec.csv"
    assert (
        main(["spectrum", "--s-min", "0.01", "--s-max", "1.0", "--points", "200",
              "--out", str(out)])
        == 0
    )
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "s,alt_max_root,sim_max_root"
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    crossings = [
        (data[i, 0], data[i + 1, 0])
        for i in range(len(data) - 1)
        if data[i, 1] <= 1.0 < data[i + 1, 1]
    ]
    assert len(crossings) == 1
    lo, hi = crossings[0]
    assert lo <= 2 / 3 <= hi


# `freqcert spectrum --s-min 0.025 --s-max 1.2 --points 48`, digit for digit:
# the ogd factors equal the closed-form cubic and quartic bit for bit, so a
# change in how they are derived must not move any value
SPECTRUM_CSV = """\
s,alt_max_root,sim_max_root
0.025000000000000001,0.99937500024444537,0.99968725553842797
0.050000000000000003,0.99750001570322078,0.9987460731103327
0.075000000000000011,0.99437517998621205,0.99716748760282448
0.10000000000000001,0.99000102009379698,0.99493615300512428
0.125,0.98437893474594351,0.99202969626716742
0.14999999999999999,0.97751190813140121,0.98841772581660603
0.17500000000000002,0.969405503645969,0.98406038934603968
0.20000000000000001,0.96006919441876826,0.97890631293070374
0.22500000000000001,0.94951809681998767,0.97288965329439747
0.25,0.93777517559400836,0.96592582628906865
0.27500000000000002,0.92487397760931322,0.95790517652440477
0.30000000000000004,0.9108619141886638,0.94868329805051388
0.32500000000000007,0.89580403381872797,0.93806561808823663
0.35000000000000003,0.87978708941715988,0.92578151927284769
0.37500000000000006,0.86292349342685137,0.91143782776614712
0.40000000000000002,0.84535447602592451,0.89442719099991619
0.42500000000000004,0.827251467756557,0.87372269274714198
0.45000000000000007,0.8088145387770681,0.84731632061293061
0.47500000000000003,0.79026683133403985,0.81001540106343717
0.5,0.77184450634603863,0.70710679536622345
0.52500000000000002,0.75378282058127266,0.84813442992995602
0.55000000000000004,0.73630027523630914,0.92576544719630316
0.57500000000000007,0.71958374535556158,0.99387485624877114
0.60000000000000009,0.72682809503334678,1.0573528147419138
0.62500000000000011,0.82290375855616504,1.1180339887498951
0.65000000000000002,0.92665065141336744,1.1768307232094499
0.67500000000000004,1.0379088624937682,1.2342688336495322
0.70000000000000007,1.1564779081368537,1.2906808776685619
0.72500000000000009,1.2821383826238455,1.3462912017836257
0.75000000000000011,1.4146684351368097,1.4012585384440739
0.77500000000000002,1.5538549720606225,1.4556994004190371
0.80000000000000004,1.6995003585770438,1.5097018512751939
0.82500000000000007,1.8514257137034049,1.5633340627465246
0.85000000000000009,2.0094718626759986,1.616649870013213
0.87500000000000011,2.1734988186334614,1.6696925102934959
0.90000000000000002,2.3433844356570033,1.7224972160321828
0.92500000000000004,2.5190226696001572,1.7750930605197277
0.95000000000000007,2.7003217232835128,1.8275043009616501
0.97500000000000009,2.8872022387816192,1.8797513749619552
1,3.0795956234914375,1.9318516525781371
1.0249999999999999,3.2774425485812815,1.9838200125610597
1.05,3.4806916296233714,2.0356692898958406
1.075,3.6892982830859085,2.0874106276431297
1.0999999999999999,3.9032237442056505,2.1390537566057564
1.125,4.1224342284197704,2.1906072198614148
1.1499999999999999,4.3469002179619611,2.2420785546851212
1.175,4.5765958561418403,2.293474441187664
1.2,4.8114984334519511,2.3448008246997385
"""


def test_spectrum_csv_is_pinned(tmp_path):
    out = tmp_path / "spec.csv"
    args = ["spectrum", "--s-min", "0.025", "--s-max", "1.2", "--points", "48"]
    assert main(args + ["--out", str(out)]) == 0
    assert out.read_text() == SPECTRUM_CSV


def test_simulate_csv(tmp_path):
    cfg = _write(
        tmp_path,
        "sim.json",
        {
            "method": {"family": "ogd", "eta": 0.2},
            "operator": {"kind": "scalar-noncvx"},
            "x0": [0.1],
        },
    )
    out1 = tmp_path / "t1.csv"
    out2 = tmp_path / "t2.csv"
    base = ["simulate", "--config", cfg, "--steps", "100", "--seed", "3",
            "--noise-strategy", "random", "--out"]
    assert main(base + [str(out1)]) == 0
    assert main(base + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = out1.read_text().strip().splitlines()
    assert rows[0] == "k,distance"
    assert len(rows) == 102
    assert float(rows[-1].split(",")[1]) < 0.1


def test_simulate_per_coordinate_columns(tmp_path):
    cfg = _write(
        tmp_path,
        "sim2.json",
        {
            "method": {"family": "gd", "eta": 0.3},
            "operator": {"kind": "diagonal-quadratic", "spectrum": [0.5, 4.0]},
            "x0": [1.0, -1.0],
        },
    )
    out = tmp_path / "t3.csv"
    assert main(["simulate", "--config", cfg, "--steps", "10", "--per-coordinate",
                 "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "k,distance,x0,x1"
    assert len(rows[1].split(",")) == 4


def test_equivalence_verdicts(capsys):
    assert main(["equivalence", "--lhs", '{"family":"ogd","eta":0.1}',
                 "--rhs", '{"family":"rgd","eta":0.1}']) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["equal"] is True
    assert payload["lhs"]["den"] == [0.0, -1.0, 1.0]

    assert main(["equivalence", "--lhs", '{"family":"ogd","eta":0.1}',
                 "--rhs", '{"family":"gd","eta":0.1}']) == 0
    assert json.loads(capsys.readouterr().out)["equal"] is False


def test_equivalence_rejects_malformed_json():
    assert main(["equivalence", "--lhs", "{bad", "--rhs", '{"family":"gd","eta":0.1}']) == 1


CERTIFY_BASE = {"method": {"family": "gogd", "alpha": 0.1, "beta": 0.05},
                "sector": {"mu": 0.5, "L": 4}, "rho": 0.9}
SIMULATE_BASE = {"method": {"family": "gd", "eta": 0.3}, "x0": [0.5, 1.0]}
# one base operator config per kind, with the field it cannot do without
OPERATORS = [
    ({"kind": "diagonal-quadratic", "spectrum": [1.0, 2.0]}, "spectrum"),
    ({"kind": "scalar-noncvx"}, "kind"),
    ({"kind": "bilinear", "matrix": [[1.0]]}, "matrix"),
    ({"kind": "minmax-quadratic", "p": [[2.0]], "q": [[2.0]], "c": [[0.5]], "mu": 1.0}, "mu"),
]


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


def _schema_cases():
    def case(name, command, payload, message):
        return pytest.param(command, payload, message, id=name)

    cases = [
        case("config-missing", "certify", _without(CERTIFY_BASE, "rho"),
             "config requires fields ['rho']"),
        case("config-extra", "certify", {**CERTIFY_BASE, "extra": 1},
             "unknown config fields ['extra']"),
    ]
    for part, field in (("sector", "L"), ("method", "beta")):
        cases.append(case(f"{part}-missing", "certify",
                          {**CERTIFY_BASE, part: _without(CERTIFY_BASE[part], field)},
                          f"{part} requires fields ['{field}']"))
        cases.append(case(f"{part}-extra", "certify",
                          {**CERTIFY_BASE, part: {**CERTIFY_BASE[part], "extra": 1}},
                          f"unknown {part} fields ['extra']"))
    for operator, field in OPERATORS:
        kind = operator["kind"]
        cases.append(case(f"{kind}-missing", "simulate",
                          {**SIMULATE_BASE, "operator": _without(operator, field)},
                          f"operator requires fields ['{field}']"))
        cases.append(case(f"{kind}-extra", "simulate",
                          {**SIMULATE_BASE, "operator": {**operator, "extra": 1}},
                          "unknown operator fields ['extra']"))
    return cases


@pytest.mark.parametrize("command, payload, message", _schema_cases())
def test_missing_and_extra_fields_are_named(tmp_path, capsys, command, payload, message):
    # config, sector, method and every operator kind share one field check
    cfg = _write(tmp_path, "schema.json", payload)
    argv = [command, "--config", cfg]
    if command == "simulate":
        argv += ["--steps", "5", "--out", str(tmp_path / "t.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "field, payload",
    [
        ("spectrum", {"operator": {"kind": "diagonal-quadratic",
                                   "spectrum": [float("nan"), 2.0]}}),
        ("fixed_point", {"operator": {"kind": "diagonal-quadratic", "spectrum": [1.0, 2.0],
                                      "fixed_point": [float("inf"), 0]}}),
        ("x0", {"x0": [float("nan"), 1.0]}),
        ("noise_delta", {"noise_delta": float("inf")}),
        ("mu", {"operator": {"kind": "minmax-quadratic", "p": [[2.0]], "q": [[2.0]],
                             "c": [[0.5]], "mu": float("nan")}}),
    ],
)
def test_simulate_rejects_non_finite_numbers(tmp_path, capsys, field, payload):
    # json.load reads the NaN and Infinity literals that json.dumps writes here
    cfg = _write(tmp_path, "nonfinite.json", {
        **SIMULATE_BASE, "operator": {"kind": "diagonal-quadratic", "spectrum": [1.0, 2.0]},
        **payload,
    })
    out = tmp_path / "t.csv"
    assert main(["simulate", "--config", cfg, "--steps", "5", "--noise-strategy", "random",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {field} must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, payload, message",
    [
        pytest.param("certify", {**CERTIFY_BASE, "method": {"family": ["gd"], "eta": 0.1}},
                     "unknown method family ['gd']", id="family-list"),
        pytest.param("certify", {**CERTIFY_BASE, "method": {"family": {"gd": 1}, "eta": 0.1}},
                     "unknown method family {'gd': 1}", id="family-object"),
        pytest.param("simulate", {**SIMULATE_BASE, "x0": [],
                                  "operator": {"kind": "diagonal-quadratic", "spectrum": []}},
                     "spectrum must be non-empty and match the dimension", id="empty-spectrum"),
        # a vector field holds numbers and a matrix lists of numbers, nothing deeper
        pytest.param("certify", {**CERTIFY_BASE, "method": {
            "family": "general", "eta": 0.1, "a": [1, 0], "b": [[1, 2], [3]]}},
            "b must be a list of numbers", id="nested-b"),
        pytest.param("certify", {**CERTIFY_BASE, "method": {
            "family": "hgd", "eta": 0.1, "a": [[1.0]]}},
            "a must be a list of numbers", id="nested-a"),
        pytest.param("simulate", {**SIMULATE_BASE, "operator": {
            "kind": "diagonal-quadratic", "spectrum": [[1.0], [2.0]]}},
            "spectrum must be a list of numbers", id="nested-spectrum"),
        pytest.param("simulate", {**SIMULATE_BASE, "operator": {
            "kind": "diagonal-quadratic", "spectrum": [1.0, 2.0], "fixed_point": [[0], [0]]}},
            "fixed_point must be a list of numbers", id="nested-fixed-point"),
        pytest.param("simulate", {**SIMULATE_BASE, "operator": {
            "kind": "bilinear", "matrix": [-1]}},
            "matrix must be a list of lists of numbers", id="flat-matrix"),
        pytest.param("simulate", {**SIMULATE_BASE, "operator": {
            "kind": "bilinear", "matrix": [[[1.0]]]}},
            "matrix must be a list of lists of numbers", id="deep-matrix"),
    ],
)
def test_malformed_values_exit_1(tmp_path, capsys, command, payload, message):
    cfg = _write(tmp_path, "bad.json", payload)
    out = tmp_path / "t.csv"
    argv = [command, "--config", cfg]
    if command == "simulate":
        argv += ["--steps", "5", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _method(**method):
    return {**CERTIFY_BASE, "method": method}


def _operator(**operator):
    return {**SIMULATE_BASE, "operator": operator}


@pytest.mark.parametrize(
    "build, command, payload, field",
    [
        pytest.param(lambda: SectorParams(True, 4), "certify",
                     {**CERTIFY_BASE, "sector": {"mu": True, "L": 4}}, "mu", id="bool-mu"),
        pytest.param(lambda: MethodSpec("gd", eta=True), "certify",
                     _method(family="gd", eta=True), "eta", id="bool-eta"),
        pytest.param(lambda: MethodSpec("gd", eta="0.1"), "certify",
                     _method(family="gd", eta="0.1"), "eta", id="string-eta"),
        pytest.param(lambda: MethodSpec("hgd", eta=0.1, a=["1"]), "certify",
                     _method(family="hgd", eta=0.1, a=["1"]), "a", id="string-in-a"),
        pytest.param(lambda: diagonal_quadratic(["1", "2"]), "simulate",
                     _operator(kind="diagonal-quadratic", spectrum=["1", "2"]), "spectrum",
                     id="string-spectrum"),
        pytest.param(lambda: bilinear_operator([[1.0, 2.0], [3.0]]), "simulate",
                     _operator(kind="bilinear", matrix=[[1.0, 2.0], [3.0]]), "matrix",
                     id="ragged-matrix"),
        pytest.param(lambda: build_minmax_operator([[2.0, 0.0], [0.0]], [[2.0]],
                                                   [[1.0], [1.0]], 1.0), "simulate",
                     _operator(kind="minmax-quadratic", p=[[2.0, 0.0], [0.0]], q=[[2.0]],
                               c=[[1.0], [1.0]], mu=1.0), "p", id="ragged-p"),
        pytest.param(lambda: build_minmax_operator([2.0], [[2.0]], [[1.0]], 1.0), "simulate",
                     _operator(kind="minmax-quadratic", p=[2.0], q=[[2.0]], c=[[1.0]], mu=1.0),
                     "p", id="flat-p"),
        pytest.param(lambda: build_minmax_operator([[2.0]], [[2.0]], [[1.0]], "1"), "simulate",
                     _operator(kind="minmax-quadratic", p=[[2.0]], q=[[2.0]], c=[[1.0]], mu="1"),
                     "mu", id="string-mu"),
        pytest.param(lambda: diagonal_quadratic(2.0), "simulate",
                     _operator(kind="diagonal-quadratic", spectrum=2.0), "spectrum",
                     id="number-spectrum"),
    ],
)
def test_python_and_json_inputs_get_one_message(tmp_path, capsys, build, command, payload, field):
    # the spec reads its own fields, so both doors print the same words
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value).startswith(f"{field} ")
    cfg = _write(tmp_path, "bad.json", payload)
    out = tmp_path / "t.csv"
    argv = [command, "--config", cfg]
    if command == "simulate":
        argv += ["--steps", "5", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {exc.value}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "history, message",
    [
        pytest.param([0.3], "history must be a list of lists of numbers", id="scalar-point"),
        pytest.param([[0.3]], "history points must have the shape of x0, (2,)", id="short"),
        pytest.param([[0.3, 0.3, 0.3]], "history points must have the shape of x0, (2,)",
                     id="long"),
        pytest.param([[0.3, 0.3], [0.3]], "history rows must have equal lengths", id="ragged"),
    ],
)
def test_simulate_rejects_a_misshapen_history(tmp_path, capsys, history, message):
    # rgd evaluates at 2 x_k - x_(k-1), so its one history point is observed
    # only after a step; a short point was broadcast into (0.3, 0.3) before
    payload = {**SIMULATE_BASE, "method": {"family": "rgd", "eta": 0.1}, "history": history,
               "operator": {"kind": "diagonal-quadratic", "spectrum": [1.0, 2.0]}}
    cfg = _write(tmp_path, "hist.json", payload)
    out = tmp_path / "t.csv"
    assert main(["simulate", "--config", cfg, "--steps", "5", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("strategy", ["random", "rotate"])
def test_simulate_rejects_a_negative_seed(tmp_path, capsys, strategy):
    cfg = _write(tmp_path, "seed.json", {
        **SIMULATE_BASE, "noise_delta": 0.1,
        "operator": {"kind": "diagonal-quadratic", "spectrum": [1.0, 2.0]}})
    out = tmp_path / "t.csv"
    argv = ["simulate", "--config", cfg, "--steps", "5", "--seed", "-1",
            "--noise-strategy", strategy, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: seed must be a nonnegative integer, not -1\n"
    assert not out.exists()
