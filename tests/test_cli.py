import json
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from cnr import jsonio, matcore, ucrange
from cnr.cli import _build_parser, main
from cnr.decompose import certificate_from_obj
from cnr.errors import DimensionMismatchError, MatrixParseError

# The options each subcommand takes.  Its "config" lists the constants it
# solves with, then the settings among these options: every option except
# the files, the query point and --strict.
OPTIONS = {
    "range": "--input --directions --tol --out --strict --csv --svg",
    "radius": "--input --directions --tol --out --strict",
    "contains": "--input --directions --tol --out --strict --re --im",
    "decompose": "--input --tol --out --strict",
    "certify": "--input --tol --out --strict",
    "verify": "--input --cert --out",
    "wuc": "--input --directions --tol --seed --samples --k-list --out --strict --svg",
    "kappa": "--tol --seed --n --budget --out",
    "cnorm": "--input --out --strict",
    "check": "--seed --suite --n --count --out",
}
NOT_SETTINGS = {"--input", "--cert", "--re", "--im", "--out", "--csv", "--svg", "--strict"}
FIXED = {"verify": ["tol_offdiag", "tol_trace"], "kappa": ["directions"], "cnorm": ["tol"]}


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
            "--out", str(out), "--csv", str(csv), "--svg", str(svg),
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
        assert main(["range", "--input", e12_file, "--directions", "16", "--out", str(out)]) == 0
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


@pytest.mark.parametrize("open_", [False, True], ids=["closed", "open"])
def test_decompose_singular_psd_is_decomposable(tmp_path, monkeypatch, open_):
    # the 3 x 3 all-ones matrix is its own PSD part; at --tol 1e-6 its dual
    # margin must be tightened before the verdict, and a margin left open
    # is reported as such, exit 3 under --strict, never as not decomposable
    if open_:
        monkeypatch.setattr(sys.modules["cnr.decompose"], "polish_dual", lambda h, y0, target, stop_tol: y0)
    path = tmp_path / "ones.json"
    path.write_text(json.dumps(jsonio.matrix_obj(np.ones((3, 3)))))
    out = tmp_path / "d.json"
    args = ["decompose", "--tol", "1e-6", "--input", str(path), "--out", str(out), "--strict"]
    assert main(args) == (3 if open_ else 0)
    payload = json.loads(out.read_text())
    assert payload["result"]["decomposable"] is True
    assert payload["flags"] == (["gap_not_closed"] if open_ else [])


@pytest.mark.parametrize(
    "command,matrix,message",
    [
        # the range of [[0, 1], [1, 0]] is [-1, 1]: no certificate exists
        ("certify", np.array([[0, 1], [1, 0]], dtype=complex),
         "error: range minimum is certified below zero"),
        ("decompose", matcore.ginibre_random(3, np.random.default_rng(0)),
         "error: range is not real"),
    ],
    ids=["certify-negative-minimum", "decompose-ginibre"],
)
def test_solver_errors_exit_1(tmp_path, capsys, command, matrix, message):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(jsonio.matrix_obj(matrix)))
    out = tmp_path / "o.json"
    assert main([command, "--input", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith(message) and captured.err.count("\n") == 1


def test_wuc_command(tmp_path, e12_file):
    out = tmp_path / "w.json"
    assert main(["wuc", "--input", e12_file, "--samples", "200", "--directions", "32",
                 "--out", str(out), "--seed", "3"]) == 0
    res = json.loads(out.read_text())["result"]
    assert res["inclusion_margin"] >= -1e-8
    assert res["coverage_deficit"] <= 0.02


def test_wuc_svg(tmp_path, e12_file):
    svgs = []
    for run in (1, 2):
        out = tmp_path / f"w{run}.json"
        svg = tmp_path / f"w{run}.svg"
        assert main(["wuc", "--input", e12_file, "--samples", "40", "--directions", "8",
                     "--out", str(out), "--svg", str(svg)]) == 0
        svgs.append(svg.read_bytes())
    text = svgs[0].decode()
    assert text.startswith("<svg")
    # one dot per sampled point
    assert text.count("<circle") == json.loads(out.read_text())["result"]["points"]
    assert svgs[0] == svgs[1]


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
    assert "[PASS]" in captured.err and captured.out == ""
    payload = json.loads(out.read_text())
    assert payload["result"]["passed"] is True


def test_check_stdout_is_one_json_document(capsys):
    # without --out the JSON goes to stdout, alone; the check lines go to stderr
    assert main(["check", "--suite", "basic", "--n", "2", "--seed", "0"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["command"] == "check" and payload["result"]["passed"] is True
    lines = captured.err.splitlines()
    assert len(lines) == len(payload["result"]["checks"])
    assert all(line.startswith("[PASS] ") for line in lines)


def test_strict_flags_exit_code(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    path = tmp_path / "g.json"
    path.write_text(json.dumps(jsonio.matrix_obj(m)))
    out = tmp_path / "s.json"
    for command in ("range", "radius"):
        # unreachable tolerance leaves the gap open; --strict must exit 3
        code = main([command, "--input", str(path), "--directions", "4", "--tol", "1e-300",
                     "--out", str(out), "--strict"])
        assert code == 3
        payload = json.loads(out.read_text())
        assert any("gap_not_closed" in f for f in payload["flags"])
    # radius: grid solves are indexed 0..3, refinement solves from m + 1 = 5 on
    ks = {int(f.split("@")[1]) for f in payload["flags"]}
    assert {0, 1, 2, 3} <= ks and 4 not in ks and max(ks) > 4


def test_contains_strict_reports_open_solves(tmp_path):
    # contains reports the flags of every solve, grid and refinement; at
    # entries of order 2^520 the solves stay open and --strict exits 3
    a = np.random.default_rng(4).standard_normal((4, 4, 2)) @ [1.0, 1j]
    out = tmp_path / "c.json"
    for scale, code in ((1.0, 0), (2.0**520, 3)):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(jsonio.matrix_obj(a * scale)))
        argv = ["contains", "--input", str(path), "--re", "0.1", "--im", "-0.2", "--directions", "8"]
        assert main([*argv, "--out", str(out), "--strict"]) == code
        payload = json.loads(out.read_text(), parse_constant=pytest.fail)
        ks = {int(f.split("@")[1]) for f in payload["flags"] if f.startswith("gap_not_closed@")}
        assert bool(ks) == (code == 3)
    # the refinement's solves, indexed from m + 1 = 9 on, are among them;
    # their gaps are below |margin|, so the verdict stays conclusive
    assert max(ks) > 8 and "inconclusive" not in payload["flags"]
    assert payload["result"]["contains"] is True


def test_tight_range_certifies_every_direction(tmp_path):
    # the CI 8 x 8 input at tol 1e-12 and 64 directions: the barrier's
    # primal leaves 20 brackets open far above the rounding floor, and the
    # primal recovered from complementary slackness closes every one
    a = np.random.default_rng(8).standard_normal((8, 8, 2)) @ [1.0, 1j]
    path, out = tmp_path / "a8.json", tmp_path / "r.json"
    path.write_text(json.dumps(jsonio.matrix_obj(a)))
    argv = ["range", "--input", str(path), "--tol", "1e-12", "--directions", "64", "--strict", "--out", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text(), parse_constant=pytest.fail)["flags"] == []


def test_usage_errors_exit_2(tmp_path):
    assert main(["range", "--input", str(tmp_path / "missing.json"), "--out", "x"]) == 2
    assert main(["nonsense"]) == 2
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "rows": [[{"re": 0, "im": 0}]]}))
    assert main(["range", "--input", str(path)]) == 2


def test_validators_exit_2(e12_file, capsys):
    # --directions and --tol are range-checked by the library, --seed by the CLI
    for flag, value in [("--directions", "2"), ("--tol", "0"), ("--tol", "-1e-8"),
                        ("--tol", "nan"), ("--tol", "inf"), ("--directions", "x")]:
        assert main(["range", "--input", e12_file, flag, value]) == 2
        assert "error: " in capsys.readouterr().err
    assert main(["check", "--seed", "-5"]) == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("point", ["--re nan", "--re inf", "--re=-inf", "--re 0 --im nan"])
def test_contains_nonfinite_point_exits_2(tmp_path, e12_file, capsys, point):
    out = tmp_path / "c.json"
    assert main(["contains", "--input", e12_file, *point.split(), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: point must be finite") and captured.err.count("\n") == 1


def test_wuc_rejects_tol_before_sampling(e12_file, monkeypatch, capsys):
    # the tol check is made where the setting is made, before any sample
    def sample(*args):
        raise AssertionError("unitary samples drawn before --tol was checked")

    monkeypatch.setattr(ucrange, "wuc_inner", sample)
    assert main(["wuc", "--input", e12_file, "--tol", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tol must be positive and finite") and captured.err.count("\n") == 1


def test_wuc_rejects_directions_before_sampling(e12_file, monkeypatch, capsys):
    # range_boundary's own check runs before any sample is drawn
    def sample(*args):
        raise AssertionError("unitary samples drawn before --directions was checked")

    monkeypatch.setattr(ucrange, "wuc_inner", sample)
    assert main(["wuc", "--input", e12_file, "--directions", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: need at least 3 directions") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["kappa", "--n", "2", "--budget", "0"],
        ["kappa", "--n", "2", "--budget", "-5"],
        ["check", "--suite", "duality", "--n", "2", "--count", "0"],
        ["wuc", "--input", "E12", "--k-list", ",", "--samples", "20", "--directions", "3"],
        ["wuc", "--input", "E12", "--k-list", "0", "--samples", "20", "--directions", "3"],
        ["wuc", "--input", "E12", "--k-list=-1", "--samples", "20", "--directions", "3"],
        ["wuc", "--input", "E12", "--k-list", "1,0", "--samples", "20", "--directions", "3"],
    ],
    ids=["budget-0", "budget-negative", "count-0", "k-list-empty", "k-list-0", "k-list-negative",
         "k-list-1,0"],
)
def test_rejected_settings_exit_2(e12_file, capsys, argv):
    # out-of-range counts are rejected, not clamped and reported as given,
    # in one line naming the setting
    name = {"kappa": "budget", "check": "count", "wuc": "k_list"}[argv[0]]
    argv = [e12_file if word == "E12" else word for word in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {name} ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "--suite", "nope"], "unknown suite 'nope'"),
        (["wuc", "--input", "E12", "--samples", "0"], "samples must be positive"),
        (["kappa", "--n", "1"], "n must be at least 2"),
        (["range", "--input", "N0"], "field 'n' must be positive"),
    ],
    ids=["check-suite", "wuc-samples-0", "kappa-n-1", "matrix-n-0"],
)
def test_input_checks_exit_2(tmp_path, e12_file, capsys, argv, message):
    # the library's input checks end the command in one error line, before
    # any output is written
    n0 = tmp_path / "n0.json"
    n0.write_text(json.dumps({"n": 0, "rows": []}))
    out = tmp_path / "o.json"
    argv = [{"E12": e12_file, "N0": str(n0)}.get(word, word) for word in argv]
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ") and message in captured.err and captured.err.count("\n") == 1


def test_check_all_suites_n1(tmp_path, capsys):
    # a 1 x 1 range is one point, real for every matrix: no check may fail on it
    out = tmp_path / "c.json"
    assert main(["check", "--suite", "all", "--n", "1", "--seed", "0", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "[PASS]" in captured.err and "[FAIL]" not in captured.err
    assert json.loads(out.read_text())["result"]["passed"] is True


def test_options_per_subcommand():
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    declared = {
        name: [s for a in p._actions for s in a.option_strings if s != "-h" and s != "--help"]
        for name, p in sub.choices.items()
    }
    assert declared == {name: opts.split() for name, opts in OPTIONS.items()}
    assert sum(len(v) for v in declared.values()) == 52


REMOVED = [
    ("decompose", "--directions 16"), ("certify", "--directions 16"),
    ("verify", "--directions 16"), ("verify", "--tol 1e-9"), ("verify", "--restarts 2"),
    ("verify", "--seed 1"), ("verify", "--strict"),
    ("kappa", "--directions 16"), ("kappa", "--strict"),
    ("cnorm", "--directions 16"), ("cnorm", "--tol 1e-9"), ("cnorm", "--restarts 2"),
    ("cnorm", "--seed 1"),
    ("check", "--directions 16"), ("check", "--tol 1e-9"), ("check", "--restarts 2"),
    ("check", "--strict"),
    # support solves take no restarts and no seed
    ("range", "--restarts 2"), ("radius", "--restarts 2"), ("contains", "--restarts 2"),
    ("decompose", "--restarts 2"), ("certify", "--restarts 2"), ("wuc", "--restarts 2"),
    ("kappa", "--restarts 2"),
    ("range", "--seed 1"), ("radius", "--seed 1"), ("contains", "--seed 1"),
    ("decompose", "--seed 1"), ("certify", "--seed 1"),
]


@pytest.mark.parametrize("command,extra", REMOVED)
def test_unread_options_rejected(e12_file, command, extra):
    required = {"verify": ["--input", e12_file, "--cert", e12_file], "kappa": ["--n", "2"],
                "check": [], "contains": ["--input", e12_file, "--re", "0"]}
    base = [command] + required.get(command, ["--input", e12_file])
    parser = _build_parser()
    parser.parse_args(base)  # accepted without the unread option
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(base + extra.split())
    assert exc.value.code == 2
    assert main(base + extra.split()) == 2


def test_config_lists_declared_settings(tmp_path, e12_file, psdish_file):
    out = tmp_path / "o.json"
    cert = tmp_path / "cert.json"
    assert main(["certify", "--input", psdish_file, "--out", str(cert)]) == 0
    runs = {
        "range": ["--input", e12_file, "--directions", "3"],
        "radius": ["--input", e12_file, "--directions", "3"],
        "contains": ["--input", e12_file, "--directions", "3", "--re", "0.1"],
        "decompose": ["--input", psdish_file],
        "verify": ["--input", psdish_file, "--cert", str(cert)],
        "wuc": ["--input", e12_file, "--directions", "3", "--samples", "20", "--k-list", "1,2"],
        "kappa": ["--n", "2", "--budget", "1"],
        "cnorm": ["--input", e12_file],
        "check": ["--suite", "duality", "--n", "2", "--count", "1"],
    }
    assert set(runs) | {"certify"} == set(OPTIONS)  # certify writes a bare certificate
    for command, argv in runs.items():
        assert main([command, *argv, "--out", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        settings = [o[2:].replace("-", "_") for o in OPTIONS[command].split()
                    if o not in NOT_SETTINGS]
        assert list(config) == FIXED.get(command, []) + settings
    assert config == {"seed": 0, "suite": "duality", "n": 2, "count": 1}


@pytest.mark.parametrize(
    "tamper",
    [
        lambda c: c["q"][0][0].pop("im"),
        lambda c: c["q"][0][0].update(re="x"),
        lambda c: c.update(q=5),
        lambda c: c["q"].append([{"re": 0, "im": 0}]),
        lambda c: c["D"].append({"re": 0, "im": 0}),
        lambda c: c.update(n="two"),
        lambda c: c.pop("D"),
        lambda c: c.update(residual=[1]),
        lambda c: c["D"][0].update(im=float("inf")),
    ],
    ids=["no-im", "re-text", "q-number", "extra-vector", "long-D", "n-text", "no-D",
         "residual-list", "infinite"],
)
def test_malformed_certificate_exits_2(tmp_path, psdish_file, tamper):
    cert = tmp_path / "bare.json"
    assert main(["certify", "--input", psdish_file, "--out", str(cert)]) == 0
    obj = json.loads(cert.read_text())
    tamper(obj)
    cert.write_text(json.dumps(obj))
    with pytest.raises(MatrixParseError):
        certificate_from_obj(json.loads(cert.read_text()))
    assert main(["verify", "--input", psdish_file, "--cert", str(cert)]) == 2


def test_readme_commands_parse():
    # every command line the README shows must be accepted by the parser
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [shlex.split(ln, comments=True) for ln in block.splitlines() if ln.strip()]
    assert {words[1] for words in lines} == set(OPTIONS)
    parser = _build_parser()
    for words in lines:
        assert words[0] == "cnr"
        parser.parse_args(words[1:])
    # and its table lists each subcommand's options as the parser declares them
    table = {}
    for row in readme.split("| subcommand | options |", 1)[1].split("\n\n")[0].splitlines()[2:]:
        names, opts = row.strip("|").split("|")
        for name in names.replace("`", "").split(","):
            table[name.strip()] = opts.strip().strip("`")
    assert table == OPTIONS


@pytest.mark.parametrize("value", ["99", "abc"])
def test_seed_ignores_environment(tmp_path, e12_file, monkeypatch, value):
    # --seed defaults to 0; no environment variable reaches a command
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    wuc = ["wuc", "--input", e12_file, "--directions", "8", "--samples", "20", "--k-list", "2"]
    monkeypatch.setenv("CNR_SEED", value)
    assert main([*wuc, "--out", str(out1)]) == 0
    monkeypatch.delenv("CNR_SEED")
    assert main([*wuc, "--out", str(out2)]) == 0
    assert json.loads(out1.read_text())["config"]["seed"] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_deterministic_json_float_format():
    text = jsonio.dumps({"x": 0.1, "y": [1.0, 2.5e-17]})
    assert "0.10000000000000001" in text
    assert json.loads(text) == {"x": 0.1, "y": [1.0, 2.5e-17]}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf, np.float64("nan")])
def test_json_refuses_nonfinite_float(value):
    with pytest.raises(ValueError, match="as JSON"):
        jsonio.dumps({"ok": 1.0, "nested": [{"x": value}]})


def test_contains_nonfinite_margin_exits_2(tmp_path, e12_file, capsys):
    # the point is finite, but its modulus and its margin would overflow:
    # it is rejected before any arithmetic on it
    out = tmp_path / "c.json"
    argv = ["contains", "--input", e12_file, "--re", "1.7e308", "--im", "1.7e308", "--out", str(out)]
    with np.errstate(over="raise"):
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: point must be finite") and captured.err.count("\n") == 1


def test_matrix_hash_names_the_input():
    # the value crange.matrix_hash gave before it moved here
    assert jsonio.matrix_hash([[0, 1], [0, 0]]) == "d3d432343e4fe5c3"
