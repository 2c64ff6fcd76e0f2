import contextlib
import io
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from volterra_stability import KernelSpec, TailModel, dumps_kernel, pn_roots
from volterra_stability.cli import main
from volterra_stability.fixtures import fixture_names, fixture_text, load_fixture

from conftest import (
    alternating_cubic_kernel,
    geometric_null_kernel,
    paper_kernels,
    renewal_kernel,
    rouche_unstable_pair_kernel,
)


def _write_kernel(tmp_path, kernel, name="kernel.json"):
    path = tmp_path / name
    path.write_text(dumps_kernel(kernel), encoding="utf-8")
    return str(path)


def test_simulate_csv_rows(tmp_path, capsys):
    path = _write_kernel(tmp_path, geometric_null_kernel(3.0))
    assert main(["simulate", "--kernel", path, "--steps", "3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["n,x", "0,1", "1,-3", "2,0", "3,0"]


def test_simulate_json_format(tmp_path, capsys):
    path = _write_kernel(tmp_path, renewal_kernel())
    out_file = tmp_path / "traj.json"
    assert main(["simulate", "--kernel", path, "--steps", "120", "--format", "json", "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["method"] == "direct" and len(payload["values"]) == 121
    assert payload["values"][0] == 1.0


def test_simulate_fast_flag(tmp_path, capsys):
    path = _write_kernel(tmp_path, renewal_kernel())
    assert main(["simulate", "--kernel", path, "--steps", "64", "--fast", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "fft_blocked"


def test_roots_json_schema(tmp_path, capsys):
    path = _write_kernel(tmp_path, rouche_unstable_pair_kernel())
    assert main(["roots", "--kernel", path, "--n", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 2
    assert payload["r_n"] == pytest.approx(2.0, abs=1e-9)
    assert payload["residual_bound"] <= 1e-8
    assert {"re", "im"} == set(payload["roots"][0])
    direct = pn_roots(rouche_unstable_pair_kernel(), 2)
    assert payload["r_n"] == direct.r_n


def test_certify_stdout_line(tmp_path, capsys):
    path = _write_kernel(tmp_path, renewal_kernel())
    out_file = tmp_path / "report.json"
    assert main(["certify", "--kernel", path, "--out", str(out_file)]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line == "asymptotically_stable (EFP, rigorous)"
    payload = json.loads(out_file.read_text())
    assert payload["final"]["criterion"] == "EFP"
    assert payload["final"]["verdict"] == "asymptotically_stable"


@pytest.mark.parametrize(
    "payload",
    [
        {"prefix": [], "tail": {"kind": "parametric", "c": 1, "q": 1, "alpha": 1.0000001, "beta": 0}},
        {"prefix": [], "tail": {"kind": "parametric", "c": 1, "q": -1, "alpha": 1.0000001, "beta": 0}},
        {"prefix": [1e308, 1e308], "tail": {"kind": "zero"}},
        # alpha + beta is beyond float range
        {"prefix": [], "tail": {"kind": "parametric", "c": 1.0, "q": 0.5, "alpha": 1e308, "beta": 1e308}},
        {"prefix": [], "tail": {"kind": "parametric", "c": 1.0, "q": 1.0, "alpha": 1e308, "beta": 1e308}},
        {"prefix": [], "tail": {"kind": "parametric", "c": 1.0, "q": -1.0, "alpha": 1e308, "beta": 1e308}},
        # from i = 2 on, q^i and i^2000 both overflow
        {"prefix": [], "tail": {"kind": "parametric", "c": 1.0, "q": 1e300, "alpha": 2000.0, "beta": 0.0}},
    ],
)
def test_certify_beyond_float_range_reports(tmp_path, capsys, payload):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["certify", "--kernel", str(path), "--steps", "200"]) == 0
    out = capsys.readouterr().out
    line, _, text = out.partition("\n")
    report = json.loads(text)
    assert line.startswith(report["final"]["verdict"] + " (")
    assert report["attempts"][0]["criterion"] == "AbsoluteSum"


@pytest.mark.parametrize(
    "argv", [["certify"], ["simulate"], ["simulate", "--fast"]], ids=["certify", "simulate", "simulate-fast"]
)
@pytest.mark.parametrize(
    "payload",
    [
        {
            "prefix": [1.6922323085429465, 1.0],
            "tail": {"kind": "parametric", "c": -1.0, "q": 1e300, "alpha": 0.07626300549533838, "beta": 3.0},
        },
        {"prefix": [1.0, 1.0], "tail": {"kind": "parametric", "c": 1.0, "q": 1e300, "alpha": 0.0, "beta": 0.0}},
    ],
    ids=["alpha-beta", "geometric"],
)
def test_huge_q_exit_zero(tmp_path, capsys, argv, payload):
    # q^k leaves float range at k = 2: no OverflowError, no exit status 1
    path = tmp_path / "huge_q.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main([*argv, "--kernel", str(path)]) == 0
    out = capsys.readouterr().out
    if argv == ["certify"]:
        assert out.startswith("unstable (")


def test_malformed_kernel_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"prefix": [1.0], "tail": {"kind": "parametric", "c": 1.0, "q": 0.5, "alpha": -3.0, "beta": 0.0}}')
    assert main(["certify", "--kernel", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "alpha" in err


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"prefix": [%d], "tail": {"kind": "zero"}}' % 10**400, "prefix[0]"),
        ('{"prefix": [], "tail": {"kind": "parametric", "c": %d, "q": 0.5, "alpha": 0, "beta": 0}}' % 10**400, "tail.c"),
    ],
    ids=["prefix", "tail"],
)
def test_number_beyond_float_range_exit_two(tmp_path, capsys, text, field):
    bad = tmp_path / "huge.json"
    bad.write_text(text)
    assert main(["certify", "--kernel", str(bad)]) == 2
    assert field in capsys.readouterr().err


_KERNEL_COMMANDS = [
    ["certify", "--max-degree", "4", "--steps", "200", "--grid-points", "64"],
    ["simulate", "--steps", "50"],
    ["simulate", "--fast", "--steps", "50"],
    ["roots", "--n", "4"],
]
_DEEP = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize("command", _KERNEL_COMMANDS, ids=["certify", "simulate", "simulate-fast", "roots"])
@pytest.mark.parametrize(
    "data",
    [_DEEP, b"\xff" + dumps_kernel(renewal_kernel()).encode()],
    ids=["deep-nesting", "not-utf8"],
)
def test_unparsable_kernel_file_exit_two(tmp_path, capsys, command, data):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    assert main([*command, "--kernel", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("kernel error: ")


def _edge_kernel_file():
    """Schema-valid kernels at the edges: q = +-1, q = 1e300, subnormal c,
    alpha + beta past float range, prefix entries near 1.7e308."""
    number = st.sampled_from([0.0, 0.5, 1.0, -1.0, 2.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 1.7e308, -1.7e308])
    exponent = st.sampled_from([0.0, 1.0, 2.5, 5e-324, 1e300, 1.7e308])
    parametric = st.fixed_dictionaries(
        {"kind": st.just("parametric"), "c": number, "q": number, "alpha": exponent, "beta": exponent}
    )
    tail = st.just({"kind": "zero"}) | parametric
    kernel = st.fixed_dictionaries({"prefix": st.lists(number, max_size=3), "tail": tail})
    return kernel.map(lambda d: json.dumps(d).encode())


def _malformed_kernel_file():
    """Truncated JSON, wrong types, deep nesting, NaN and 1e999 literals, bytes that are not UTF-8."""
    valid = _edge_kernel_file()
    truncated = st.builds(lambda text, cut: text[: cut % len(text)], valid, st.integers(0, 200))
    wrong_type = st.sampled_from(
        [
            b"[]",
            b'"kernel"',
            b"null",
            b'{"prefix": "1.0", "tail": {"kind": "zero"}}',
            b'{"prefix": [true], "tail": {"kind": "zero"}}',
            b'{"prefix": [[1.0]], "tail": {"kind": "zero"}}',
            b'{"prefix": [], "tail": []}',
            b'{"prefix": [], "tail": {"kind": 3}}',
            b'{"prefix": [], "tail": {"kind": "parametric", "c": null, "q": 0.5, "alpha": 0, "beta": 0}}',
            b'{"prefix": [], "tail": {"kind": "parametric", "c": 1, "q": "0.5", "alpha": 0, "beta": 0}}',
        ]
    )
    depth = st.sampled_from([10, 1_000, 100_000])
    nested = depth.map(lambda d: b"[" * d + b"]" * d) | depth.map(lambda d: b'{"prefix": ' * d + b"0" + b"}" * d)
    literal = st.sampled_from([b"NaN", b"Infinity", b"-Infinity", b"1e999", b"-1e999"])
    spot = st.sampled_from(
        [
            b'{"prefix": [%s], "tail": {"kind": "zero"}}',
            b'{"prefix": [], "tail": {"kind": "parametric", "c": %s, "q": 0.5, "alpha": 0, "beta": 0}}',
            b'{"prefix": [], "tail": {"kind": "parametric", "c": 1, "q": 0.5, "alpha": %s, "beta": 0}}',
        ]
    )
    nonfinite = st.builds(lambda form, lit: form % lit, spot, literal)
    bad_byte = st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"])
    not_utf8 = st.builds(lambda text, i, b: text[:i] + b + text[i:], valid, st.integers(0, 200), bad_byte)
    return truncated | wrong_type | nested | nonfinite | not_utf8


@settings(max_examples=150)
@example(data=_DEEP)
@given(data=_edge_kernel_file() | _malformed_kernel_file())
def test_cli_on_any_kernel_file_ends_in_a_documented_exit_code(tmp_path_factory, data):
    # 0 a report, 2 a usage or kernel error, 3 root finding that failed: nothing
    # escapes main, a numpy warning included (pyproject's filterwarnings)
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_bytes(data)
    for command in _KERNEL_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, "--kernel", str(path)])
        assert code in (0, 2, 3)
        assert code == 0 or len(err.getvalue().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--kernel", "renewal", "--max-degree", "0"],
        ["certify", "--kernel", "renewal", "--max-degree", "-3"],
        ["certify", "--kernel", "renewal", "--steps", "50"],
        ["roots", "--kernel", "renewal", "--n", "0"],
        ["simulate", "--kernel", "renewal", "--steps", "0"],
        ["reproduce-paper", "--steps", "50"],
        # alternating_cubic gets past AbsoluteSum and EFP, so the grid reaches the scan
        ["certify", "--kernel", "alternating_cubic", "--grid-points", "1"],
        # EFP decides renewal before any scan, so certify() checks the grid up front
        ["certify", "--kernel", "renewal", "--grid-points", "1"],
    ],
    ids=[
        "max-degree-0",
        "max-degree-negative",
        "certify-steps",
        "roots-n",
        "simulate-steps",
        "reproduce-steps",
        "grid",
        "grid-renewal",
    ],
)
def test_out_of_range_argument_exit_two(tmp_path, capsys, argv):
    kernels = {"renewal": renewal_kernel(), "alternating_cubic": alternating_cubic_kernel()}
    argv = [_write_kernel(tmp_path, kernels[a]) if a in kernels else a for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "must be >=" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--kernel", "alternating_cubic", "--steps", "10000000000000"],
        ["certify", "--kernel", "renewal", "--steps", str(2**24 + 1)],
        ["certify", "--kernel", "alternating_cubic", "--max-degree", "2001"],
        ["certify", "--kernel", "alternating_cubic", "--grid-points", str(2**22 + 1)],
        ["simulate", "--kernel", "alternating_cubic", "--fast", "--steps", "10000000000000"],
        ["simulate", "--kernel", "alternating_cubic", "--steps", str(2**24 + 1)],
        ["roots", "--kernel", "alternating_cubic", "--n", "2001"],
        ["reproduce-paper", "--steps", "10000000000000"],
    ],
    ids=["certify-steps", "certify-steps-renewal", "max-degree", "grid", "simulate-fast", "simulate", "roots", "reproduce"],
)
def test_oversized_argument_exit_two(tmp_path, capsys, argv):
    # rejected before any array of that size is allocated
    kernels = {"renewal": renewal_kernel(), "alternating_cubic": alternating_cubic_kernel()}
    argv = [_write_kernel(tmp_path, kernels[a]) if a in kernels else a for a in argv]
    tracemalloc.start()
    try:
        assert main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "must be <=" in err


@pytest.mark.parametrize("x0", ["nan", "inf", "-inf"])
def test_nonfinite_x0_exit_two(tmp_path, capsys, x0):
    # a non-finite x0 would print NaN / Infinity, which is not JSON
    path = _write_kernel(tmp_path, renewal_kernel())
    assert main(["simulate", "--kernel", path, "--steps", "3", f"--x0={x0}", "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "x0 must be finite" in err


def test_missing_file_exit_two(tmp_path, capsys):
    assert main(["roots", "--kernel", str(tmp_path / "nope.json"), "--n", "2"]) == 2


def test_directory_kernel_exit_two(tmp_path, capsys):
    assert main(["certify", "--kernel", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("file error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--steps", "3"],
        ["roots", "--n", "2"],
        ["certify", "--steps", "500", "--grid-points", "512"],
        ["reproduce-paper", "--steps", "500", "--grid-points", "512"],
    ],
    ids=lambda argv: argv[0],
)
def test_directory_out_exit_two(tmp_path, capsys, argv):
    # writing to a directory is a file error (2), not a reference mismatch (1)
    if argv[0] != "reproduce-paper":
        argv = argv + ["--kernel", _write_kernel(tmp_path, renewal_kernel())]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("file error:")


@pytest.mark.parametrize("fast", [[], ["--fast"]], ids=["direct", "fast"])
def test_simulate_overflow_writes_no_warning(tmp_path, capsys, fast):
    # overflow is a flagged outcome, not a numpy warning on stderr
    path = _write_kernel(tmp_path, KernelSpec((1e300,), TailModel.zero()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--kernel", path, "--steps", "10", "--x0", "1e-290", *fast]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == ["n,x", "0,1.0000000000000001e-290", "1,10000000000.000002"]


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["roots", "--n", "10"], 3, "", "root finding failed: residual nan above 1e-08 for p_10\n"),
        (["certify"], 0, "unstable (RoucheUnstable, rigorous)\n", ""),
    ],
    ids=["roots", "certify"],
)
def test_overflowing_roots_write_no_warning(tmp_path, capsys, argv, code, out, err):
    # p_n's roots near 1e50 overflow the residual: a NonConvergence, not a numpy warning
    path = _write_kernel(tmp_path, KernelSpec((0.0, -1e100), TailModel.zero()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--kernel", path]) == code
    got_out, got_err = capsys.readouterr()
    assert got_out.startswith(out) and got_err == err


def test_unknown_flag_exit_two(tmp_path):
    with pytest.raises(SystemExit) as e:
        main(["simulate", "--bogus"])
    assert e.value.code == 2


def test_nonconvergence_exit_three(tmp_path, capsys):
    path = _write_kernel(tmp_path, geometric_null_kernel(3.0))
    assert main(["roots", "--kernel", path, "--n", "700"]) == 3


def test_eigenvalue_failure_exit_three(monkeypatch, tmp_path, capsys):
    def fail(coeffs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np, "roots", fail)
    path = _write_kernel(tmp_path, renewal_kernel())
    assert main(["roots", "--kernel", path, "--n", "6"]) == 3
    assert capsys.readouterr().err == "root finding failed: eigenvalue iteration failed for p_6\n"


def test_fixture_files_parse():
    assert len(fixture_names()) == 9
    for name in fixture_names():
        k = load_fixture(name)
        assert json.loads(fixture_text(name))["prefix"] == list(k.prefix)
        assert k == paper_kernels()[name]
    with pytest.raises(KeyError):
        fixture_text("missing")


def test_reproduce_paper_table_and_verdicts(tmp_path, capsys):
    out_file = tmp_path / "rp.json"
    code = main(["reproduce-paper", "--out", str(out_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "6, 0.667, 0.00024, 0.00137" in out
    assert "renewal: asymptotically_stable (EFP, rigorous)" in out
    assert "rouche_unstable_pair: unstable (RealAxisRoot, rigorous)" in out
    payload = json.loads(out_file.read_text())
    assert payload["table"][5]["n"] == 6
    assert payload["table"][5]["r_n"] == pytest.approx(2.0 / 3.0, abs=5e-4)
    assert payload["verdicts"]["alternating_cubic"]["final"]["verdict"] == "stable"


def _drop_fired_rouche(certify):
    """certify, minus the RoucheStable attempt that fires on rouche_table."""

    def wrapped(kernel, *args):
        report = certify(kernel, *args)
        if kernel == load_fixture("rouche_table"):
            fired = [a for a in report.attempts if a["criterion"] == "RoucheStable" and a["verdict"] != "not_applicable"]
            report.attempts = [a for a in report.attempts if a not in fired]
        return report

    return wrapped


@pytest.mark.parametrize(
    "name, patch, line",
    [
        ("_TABLE_R", lambda m: {4: 0.5, 5: 0.781, 6: 0.667}, "r_4 = 0.912752 deviates from 0.5"),
        ("_TABLE_L", lambda m: {4: 0.24716, 5: 0.5, 6: 0.00024}, "L_5 deviates from 0.5"),
        (
            "_EXPECTED_FINALS",
            lambda m: {**m._EXPECTED_FINALS, "renewal": ("stable", "EFP", "rigorous")},
            "renewal: expected ('stable', 'EFP', 'rigorous'), got ('asymptotically_stable', 'EFP', 'rigorous')",
        ),
        ("certify", lambda m: _drop_fired_rouche(m.certify), "rouche_table: stability certificate did not fire exactly at n = 6"),
    ],
    ids=["r_table", "l_table", "finals", "rouche_fire"],
)
def test_reproduce_paper_fails_on_deviation(monkeypatch, tmp_path, capsys, name, patch, line):
    import volterra_stability.cli as cli_mod

    monkeypatch.setattr(cli_mod, name, patch(cli_mod))
    code = main(["reproduce-paper", "--steps", "500", "--grid-points", "512", "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"MISMATCH: {line}"]


def test_reproduce_paper_byte_identical(tmp_path, capsys):
    a_file = tmp_path / "a.json"
    b_file = tmp_path / "b.json"
    assert main(["reproduce-paper", "--steps", "500", "--grid-points", "512", "--out", str(a_file)]) == 0
    out_a = capsys.readouterr().out
    assert main(["reproduce-paper", "--steps", "500", "--grid-points", "512", "--out", str(b_file)]) == 0
    out_b = capsys.readouterr().out
    assert out_a == out_b
    assert a_file.read_bytes() == b_file.read_bytes()
