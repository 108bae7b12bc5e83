import json

import numpy as np
import pytest

from cnr import jsonio
from cnr.cli import main
from cnr.errors import DimensionMismatchError, MatrixParseError


@pytest.fixture
def e12_file(tmp_path):
    path = tmp_path / "e12.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "rows": [
                    [{"re": 0, "im": 0}, {"re": 1, "im": 0}],
                    [{"re": 0, "im": 0}, {"re": 0, "im": 0}],
                ],
            }
        )
    )
    return str(path)


@pytest.fixture
def psdish_file(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "rows": [
                    [{"re": 2, "im": 0}, {"re": 1, "im": 0}],
                    [{"re": 1, "im": 0}, {"re": 0, "im": 0}],
                ],
            }
        )
    )
    return str(path)


def test_parse_matrix_examples(tmp_path, e12_file):
    m = jsonio.load_matrix(e12_file)
    assert np.array_equal(m, np.array([[0, 1], [0, 0]], dtype=complex))
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"n": 1, "rows": [[{"re": 2.5, "im": -1}]]}))
    assert jsonio.load_matrix(str(one)).shape == (1, 1)


def test_parse_matrix_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "rows": [[{"re": 0, "im": 0}]]}))
    with pytest.raises(DimensionMismatchError):
        jsonio.load_matrix(str(bad))
    bad.write_text("{not json")
    with pytest.raises(MatrixParseError) as exc:
        jsonio.load_matrix(str(bad))
    assert "line" in str(exc.value)
    bad.write_text(json.dumps({"n": 1, "rows": [[{"re": "Infinity", "im": 0}]]}))
    with pytest.raises(MatrixParseError):
        jsonio.load_matrix(str(bad))


def test_range_command_artifacts(tmp_path, e12_file):
    out = tmp_path / "b.json"
    csv = tmp_path / "b.csv"
    svg = tmp_path / "b.svg"
    code = main(
        [
            "range", "--input", e12_file, "--directions", "32",
            "--out", str(out), "--csv", str(csv), "--svg", str(svg), "--seed", "1",
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["command"] == "range"
    assert payload["result"]["outer_contains_inner"] is True
    assert payload["result"]["radius_grid"] == pytest.approx(0.5, abs=1e-9)
    assert payload["flags"] == []
    lines = csv.read_text().split("\n")
    assert len(lines) == 33 and lines[-1] == ""
    assert len(lines[0].split(",")) == 4
    assert svg.read_text().startswith("<svg")


def test_range_determinism(tmp_path, e12_file):
    out1 = tmp_path / "b1.json"
    out2 = tmp_path / "b2.json"
    for out in (out1, out2):
        assert main(["range", "--input", e12_file, "--directions", "16",
                     "--out", str(out), "--seed", "7"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_radius_and_contains(tmp_path, e12_file):
    out = tmp_path / "r.json"
    assert main(["radius", "--input", e12_file, "--directions", "64", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["result"]["radius"] == pytest.approx(0.5, abs=1e-8)
    assert main(["contains", "--input", e12_file, "--re", "0.4", "--directions", "64",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["result"]["contains"] is True
    assert main(["contains", "--input", e12_file, "--re", "0.6", "--directions", "64",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["result"]["contains"] is False


def test_decompose_verify_round_trip(tmp_path, psdish_file):
    cert = tmp_path / "cert.json"
    assert main(["decompose", "--input", psdish_file, "--out", str(cert)]) == 0
    payload = json.loads(cert.read_text())
    assert payload["result"]["decomposable"] is True
    assert payload["result"]["certificate_valid"] is True
    out = tmp_path / "v.json"
    assert main(["verify", "--input", psdish_file, "--cert", str(cert), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["result"]["valid"] is True


def test_certify_bare_certificate(tmp_path, psdish_file):
    cert = tmp_path / "bare.json"
    assert main(["certify", "--input", psdish_file, "--out", str(cert)]) == 0
    obj = json.loads(cert.read_text())
    assert set(obj) == {"n", "q", "D", "residual"}
    out = tmp_path / "v.json"
    assert main(["verify", "--input", psdish_file, "--cert", str(cert), "--out", str(out)]) == 0


def test_verify_tampered_certificate_fails(tmp_path, psdish_file):
    cert = tmp_path / "bare.json"
    assert main(["certify", "--input", psdish_file, "--out", str(cert)]) == 0
    obj = json.loads(cert.read_text())
    obj["q"][0][0]["re"] += 0.1
    cert.write_text(json.dumps(obj))
    out = tmp_path / "v.json"
    assert main(["verify", "--input", psdish_file, "--cert", str(cert), "--out", str(out)]) == 1
    assert json.loads(out.read_text())["result"]["valid"] is False


def test_decompose_indefinite_exits_nonzero(tmp_path):
    path = tmp_path / "ind.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "rows": [
                    [{"re": 1, "im": 0}, {"re": 2, "im": 0}],
                    [{"re": 2, "im": 0}, {"re": 1, "im": 0}],
                ],
            }
        )
    )
    out = tmp_path / "d.json"
    assert main(["decompose", "--input", str(path), "--out", str(out)]) == 1
    payload = json.loads(out.read_text())
    assert payload["result"]["decomposable"] is False
    assert payload["result"]["margin"] == pytest.approx(-1.0, abs=1e-8)


def test_wuc_command(tmp_path, e12_file):
    out = tmp_path / "w.json"
    assert main(["wuc", "--input", e12_file, "--samples", "200", "--directions", "32",
                 "--out", str(out), "--seed", "3"]) == 0
    res = json.loads(out.read_text())["result"]
    assert res["inclusion_margin"] >= -1e-8
    assert res["coverage_deficit"] <= 0.02


def test_kappa_command(tmp_path):
    out = tmp_path / "k.json"
    assert main(["kappa", "--n", "2", "--budget", "4", "--out", str(out), "--seed", "0"]) == 0
    res = json.loads(out.read_text())["result"]
    assert res["best_ratio"] <= 0.5 + 1e-6
    assert res["lower_bound"] == pytest.approx(0.1)


def test_cnorm_command(tmp_path, e12_file):
    out = tmp_path / "n.json"
    assert main(["cnorm", "--input", e12_file, "--out", str(out)]) == 0
    res = json.loads(out.read_text())["result"]
    assert res["value"] == pytest.approx(1.0, abs=1e-8)
    assert res["certified"] is True
    assert res["lower_bound"] == pytest.approx(1.0, abs=1e-6)


def test_check_command(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert main(["check", "--suite", "duality", "--n", "3", "--count", "8",
                 "--seed", "7", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "[PASS]" in captured.out
    payload = json.loads(out.read_text())
    assert payload["result"]["passed"] is True


def test_strict_flags_exit_code(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    path = tmp_path / "g.json"
    path.write_text(json.dumps(jsonio.matrix_obj(m)))
    out = tmp_path / "s.json"
    # unreachable tolerance leaves the gap open; --strict must exit 3
    code = main(["range", "--input", str(path), "--directions", "4", "--tol", "1e-300",
                 "--restarts", "1", "--out", str(out), "--strict"])
    assert code == 3
    payload = json.loads(out.read_text())
    assert any("gap_not_closed" in f for f in payload["flags"])


def test_usage_errors_exit_2(tmp_path):
    assert main(["range", "--input", str(tmp_path / "missing.json"), "--out", "x"]) == 2
    assert main(["nonsense"]) == 2
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "rows": [[{"re": 0, "im": 0}]]}))
    assert main(["range", "--input", str(path)]) == 2


def test_seed_env_fallback(tmp_path, e12_file, monkeypatch):
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    monkeypatch.setenv("CNR_SEED", "99")
    assert main(["range", "--input", e12_file, "--directions", "8", "--out", str(out1)]) == 0
    monkeypatch.delenv("CNR_SEED")
    assert main(["range", "--input", e12_file, "--directions", "8", "--out", str(out2),
                 "--seed", "99"]) == 0
    assert json.loads(out1.read_text())["config"] == json.loads(out2.read_text())["config"]


def test_deterministic_json_float_format():
    text = jsonio.dumps({"x": 0.1, "y": [1.0, 2.5e-17]})
    assert "0.10000000000000001" in text
    assert json.loads(text) == {"x": 0.1, "y": [1.0, 2.5e-17]}
