import json

import numpy as np
import pytest

from freqcert.cli import main
from freqcert.certify import CertificationResult


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
