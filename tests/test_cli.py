import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import vspace.coding as coding
import vspace.connectivity as connectivity
import vspace.tolerance as tolerance
from vspace import ParseError
from vspace.cli import main
from vspace.files import parse_space

FIXTURES = Path(__file__).parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_valid_space(capsys):
    code, out, _ = run(capsys, "validate", fx("s1.vs"))
    assert (code, out) == (0, "valid\n")


def test_validate_reports_violations(capsys):
    code, out, _ = run(capsys, "validate", fx("invalid_owner.vs"))
    assert code == 1
    assert out == "invalid\nviolation owner-not-in-vicinity 1\n"


def test_validate_duplicate_vicinity(capsys):
    code, out, _ = run(capsys, "validate", fx("invalid_dup.vs"))
    assert code == 1
    assert "violation duplicate-vicinity 1" in out


def test_validate_parse_error(capsys):
    code, out, err = run(capsys, "validate", fx("bad_header.vs"))
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_non_utf8_input_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.vs"
    bad.write_bytes(b"vspace v1\nmode strong\npoints 2\nvic 0: 0\xff\n")
    code, out, err = run(capsys, "validate", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "UTF-8" in err


@pytest.mark.parametrize(
    "data",
    [
        b"vspace v1\nmode strong\npoints 2\nvic 0: 0\r1\nvic 1: 1\n",
        b"vspace v1\rmode strong\rpoints 1\rvic 0: 0\r",
        b"vspace v1\r\nmode strong\r\npoints 2\r\nvic 0: 0 1\r\nvic 1: 1\r\n",
    ],
    ids=["cr-inside-a-line", "cr-line-ends", "crlf-line-ends"],
)
def test_the_cli_reads_a_file_as_parse_space_does(capsys, tmp_path, data):
    # Lines end only at LF; a CR is whitespace wherever it stands.
    path = tmp_path / "space.vs"
    path.write_bytes(data)
    code, out, err = run(capsys, "validate", str(path))
    try:
        doc = parse_space(data.decode("utf-8"))
    except ParseError as exc:
        assert (code, out, err) == (2, "", f"error: {exc}\n")
        assert "expected header" in err
    else:
        assert doc.space.systems[0].vicinities == (frozenset({0, 1}),)
        assert (code, out, err) == (0, "valid\n", "")


def test_connected_notconnected_with_witness_file(capsys, tmp_path):
    witness = tmp_path / "w.cov"
    code, out, _ = run(
        capsys, "connected", fx("s1.vs"), "--a", "0", "--b", "2", "--witness-out", str(witness)
    )
    assert code == 1
    assert out == "notconnected\nchoose 0 0\nchoose 1 0\nchoose 2 0\n"
    assert witness.read_bytes() == (FIXTURES / "c1.cov").read_bytes()


def test_connected_fails_before_printing_when_the_witness_cannot_be_written(capsys, tmp_path):
    witness = tmp_path / "missing" / "w.cov"
    code, out, err = run(capsys, "connected", fx("s1.vs"), "--witness-out", str(witness))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and not witness.exists()


def test_connected_uses_endpoints_from_file(capsys):
    code, out, _ = run(capsys, "connected", fx("s2.vs"))
    assert (code, out) == (0, "connected\n")


def test_connected_pruned_engine_agrees(capsys):
    code, out, _ = run(capsys, "connected", fx("s1.vs"), "--engine", "pruned")
    assert code == 1
    assert out.startswith("notconnected\n")


def test_connected_pruned_engine_decides_a_forty_point_space(capsys):
    code, out, _ = run(
        capsys, "connected", fx("dense40.vs"), "--engine", "pruned", "--max-covers", "1000"
    )
    assert (code, out) == (0, "connected\n")


def test_connected_budget_error(capsys):
    code, _, err = run(capsys, "connected", fx("s1.vs"), "--max-covers", "1")
    assert code == 2
    assert "budget" in err


@pytest.mark.parametrize("a, b", [("0", "0"), ("0", "2")])
@pytest.mark.parametrize("engine", ["brute", "pruned"])
def test_connected_negative_budget_is_an_error(capsys, a, b, engine):
    code, out, err = run(
        capsys, "connected", fx("s1.vs"), "--a", a, "--b", b, "--engine", engine, "--max-covers", "-1"
    )
    assert (code, out) == (2, "")
    assert "must be non-negative" in err


def test_connected_weak_space(capsys):
    code, out, _ = run(capsys, "connected", fx("weak1.vs"))
    assert (code, out) == (0, "connected\n")


def test_tolerance_tolerant(capsys):
    code, out, _ = run(capsys, "tolerance", fx("s1.vs"))
    assert code == 0
    assert out == "tolerant\nindex 0 0\nindex 1 0\nindex 2 0\n"


def test_tolerance_intolerant(capsys):
    code, out, _ = run(capsys, "tolerance", fx("s2.vs"))
    assert code == 1
    assert out == "intolerant\nviolation 1\nindex 0 0\nindex 2 0\n"


def test_tolerance_requires_labels(capsys):
    code, _, err = run(capsys, "tolerance", fx("unlabeled.vs"))
    assert code == 2
    assert "labeling" in err


def test_tolerant_cover_writes_canonical_cover(capsys, tmp_path):
    out_file = tmp_path / "cover.cov"
    code, out, _ = run(capsys, "tolerant-cover", fx("s1.vs"), "--out", str(out_file))
    assert code == 0
    assert out.startswith("ok\n")
    assert out_file.read_bytes() == (FIXTURES / "c1.cov").read_bytes()


def test_tolerant_cover_fails_on_violations(capsys, tmp_path):
    code, _, err = run(capsys, "tolerant-cover", fx("s2.vs"), "--out", str(tmp_path / "x.cov"))
    assert code == 2
    assert "no constant vicinity" in err


def test_induced_roundtrips_through_verify(capsys, tmp_path):
    out_file = tmp_path / "induced.vs"
    code, _, _ = run(capsys, "induced", fx("s1.vs"), "--out", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, "connected", str(out_file))
    assert code == 1
    assert out.startswith("notconnected\n")


def test_induced_writes_the_label_classes_and_they_are_never_connected(capsys, tmp_path):
    out_file = tmp_path / "induced.vs"
    assert run(capsys, "induced", fx("s1.vs"), "--out", str(out_file)) == (0, "ok\n", "")
    assert out_file.read_text().splitlines() == [
        "vspace v1", "mode strong", "points 3", "vic 0: 0 1", "vic 1: 0 1", "vic 2: 2",
        "label 0 A", "label 1 A", "label 2 B", "a 0", "b 2",
    ]
    assert run(capsys, "verify-nonconn", str(out_file)) == (0, "holds\n", "")


def test_verify_nontol_holds(capsys):
    code, out, _ = run(capsys, "verify-nontol", fx("s2.vs"))
    assert code == 0
    assert out == "holds\nviolating 1\n"


def test_verify_nontol_not_applicable(capsys):
    code, out, _ = run(capsys, "verify-nontol", fx("s1.vs"))
    assert code == 0
    assert out == "notapplicable\nreason not connected\n"


def test_verify_nontol_prints_refuted_and_fails_when_the_decision_lies(capsys, monkeypatch):
    monkeypatch.setattr(tolerance, "_decide", lambda *args: connectivity._CONNECTED)
    assert run(capsys, "verify-nontol", fx("s1.vs")) == (1, "refuted\n", "")


def test_verify_nonconn_prints_refuted_and_fails_when_a_chain_is_found(capsys, monkeypatch):
    monkeypatch.setattr(tolerance, "chain_exists", lambda *args: [0, 2])
    assert run(capsys, "verify-nonconn", fx("s1.vs")) == (1, "refuted\n", "")


def test_verify_nontol_equal_labels(capsys):
    code, out, _ = run(capsys, "verify-nontol", fx("s1.vs"), "--a", "0", "--b", "1")
    assert code == 0
    assert out == "notapplicable\nreason equal labels\n"


def test_verify_nonconn_holds(capsys):
    code, out, _ = run(capsys, "verify-nonconn", fx("s1.vs"))
    assert (code, out) == (0, "holds\n")


def test_verify_nonconn_equal_labels_is_an_error(capsys):
    code, _, err = run(capsys, "verify-nonconn", fx("s1.vs"), "--a", "0", "--b", "1")
    assert code == 2
    assert "equal labels" in err


def test_code_build_golden(capsys, tmp_path):
    out_space = tmp_path / "coded.vs"
    out_pi = tmp_path / "pi.vs"
    code, out, _ = run(
        capsys, "code-build", "--oracle", fx("k1.orc"), "--a", "0", "--b", "2",
        "--points", "25", "--stages", "3",
        "--out-space", str(out_space), "--out-pi", str(out_pi),
    )
    assert (code, out) == (0, "ok\n")
    assert out_space.read_bytes() == (FIXTURES / "coded_small.vs").read_bytes()
    assert out_pi.read_bytes() == (FIXTURES / "coded_small_pi.vs").read_bytes()


def test_code_build_rejects_enumerated_endpoint(capsys, tmp_path):
    code, _, err = run(
        capsys, "code-build", "--oracle", fx("endpoint_enum.orc"), "--a", "0", "--b", "2",
        "--points", "25", "--stages", "3",
        "--out-space", str(tmp_path / "x.vs"), "--out-pi", str(tmp_path / "y.vs"),
    )
    assert code == 2
    assert "enumerated" in err


def test_code_build_rejects_insufficient_bounds(capsys, tmp_path):
    code, _, err = run(
        capsys, "code-build", "--oracle", fx("k1.orc"), "--a", "0", "--b", "2",
        "--points", "12", "--stages", "3",
        "--out-space", str(tmp_path / "x.vs"), "--out-pi", str(tmp_path / "y.vs"),
    )
    assert code == 2
    assert "exceeds point bound" in err


def test_code_build_sizes_are_bounded(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(coding, "MAX_POINT_BOUND", 24)
    code, _, err = run(
        capsys, "code-build", "--oracle", fx("k1.orc"), "--a", "0", "--b", "2",
        "--points", "25", "--stages", "3",
        "--out-space", str(tmp_path / "x.vs"), "--out-pi", str(tmp_path / "y.vs"),
    )
    assert code == 2
    assert "point bound 25 exceeds the limit 24" in err
    assert not (tmp_path / "x.vs").exists()


def test_code_decode_witness(capsys):
    code, out, _ = run(
        capsys, "code-decode", "--space", fx("coded_small.vs"), "--cover", fx("coded_witness.cov")
    )
    assert (code, out) == (0, "decoded\nin 3\n")


def test_code_decode_with_oracle_agreement(capsys):
    code, out, _ = run(
        capsys, "code-decode", "--space", fx("coded_small.vs"),
        "--cover", fx("coded_witness.cov"), "--oracle", fx("k1.orc"),
    )
    assert (code, out) == (0, "decoded\nin 3\nagreement ok\n")


def test_code_decode_rejects_non_witness(capsys):
    code, _, err = run(
        capsys, "code-decode", "--space", fx("coded_small.vs"), "--cover", fx("coded_nonwitness.cov")
    )
    assert code == 2
    assert "not a witness" in err


def test_code_decode_rejects_invalid_space(capsys, tmp_path):
    # Point 1's vicinity lacks its owner; the cover admits no chain 0-2.
    space = tmp_path / "bad.vs"
    space.write_text("vspace v1\nmode strong\npoints 3\nvic 0: 0\nvic 1: 2\nvic 2: 2\na 0\nb 2\n")
    code, out, err = run(capsys, "code-decode", "--space", str(space), "--cover", fx("c1.cov"))
    assert (code, out) == (2, "")
    assert "invalid space" in err


def test_code_decode_rejects_incomplete_cover(capsys, tmp_path):
    cover = tmp_path / "one.cov"
    cover.write_text("cover v1\nchoose 0 0\n")
    code, out, err = run(capsys, "code-decode", "--space", fx("coded_small.vs"), "--cover", str(cover))
    assert (code, out) == (2, "")
    assert "cover missing points" in err


def test_code_decode_rejects_a_cover_that_names_a_point_past_the_space(capsys, tmp_path):
    cover = tmp_path / "stray.cov"
    cover.write_text(Path(fx("coded_witness.cov")).read_text() + "choose 26 0\n")
    code, out, err = run(capsys, "code-decode", "--space", fx("coded_small.vs"), "--cover", str(cover))
    assert (code, out) == (2, "")
    assert "cover mentions unknown points [26]" in err


def test_code_roundtrip_golden(capsys):
    code, out, _ = run(
        capsys, "code-roundtrip", "--oracle", fx("k1.orc"), "--a", "0", "--b", "2",
        "--points", "25", "--stages", "3",
    )
    assert code == 0
    assert out == (
        "ok\n"
        "assert labels-differ pass\n"
        "assert tolerance pass\n"
        "assert witness pass\n"
        "assert agreement pass\n"
        "decoded: 3\n"
    )


def test_code_roundtrip_empty_oracle(capsys):
    code, out, _ = run(
        capsys, "code-roundtrip", "--oracle", fx("empty.orc"), "--a", "0", "--b", "2",
        "--points", "5", "--stages", "2",
    )
    assert code == 0
    assert out.endswith("decoded:\n")


def test_code_roundtrip_zero_enumerated_at_stage_zero(capsys):
    code, out, _ = run(
        capsys, "code-roundtrip", "--oracle", fx("zero_at_zero.orc"), "--a", "2", "--b", "5",
        "--points", "30", "--stages", "3",
    )
    assert code == 0
    assert out.startswith("ok\n")
    assert out.endswith("decoded: 0\n")


def test_code_roundtrip_rejects_endpoint_in_every_vicinity_of_a_point(capsys):
    code, out, err = run(
        capsys, "code-roundtrip", "--oracle", fx("empty.orc"), "--a", "4", "--b", "6",
        "--points", "19", "--stages", "3",
    )
    assert (code, out) == (2, "")
    assert "lies in every vicinity of 0" in err


def test_unexpected_exception_is_a_one_line_error(capsys, monkeypatch):
    def boom(oracle, config):
        raise RuntimeError("boom")

    monkeypatch.setattr(coding, "verify_roundtrip", boom)
    code, out, err = run(
        capsys, "code-roundtrip", "--oracle", fx("k1.orc"), "--a", "0", "--b", "2",
        "--points", "25", "--stages", "3",
    )
    assert (code, out, err) == (2, "", "error: internal error: RuntimeError: boom\n")


def test_missing_file_is_an_error(capsys):
    code, _, err = run(capsys, "validate", fx("does_not_exist.vs"))
    assert code == 2
    assert "error:" in err


def test_console_script_entry_point():
    exe = shutil.which("vspace")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run(
        [exe, "validate", fx("s1.vs")], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout == "valid\n"


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "vspace.cli", "connected", fx("s1.vs")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout.startswith("notconnected\n")


NO_ENDPOINTS = "vspace v1\nmode strong\npoints 1\nvic 0: 0\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["connected", "{space}"], "error: endpoints required: pass --a/--b"),
        (
            ["code-decode", "--space", "{space}", "--cover", fx("c1.cov")],
            "error: the space file must carry 'a P' and 'b P' lines",
        ),
    ],
    ids=["connected", "code-decode"],
)
def test_commands_without_endpoints_exit_2(capsys, tmp_path, argv, message):
    space = tmp_path / "none.vs"
    space.write_text(NO_ENDPOINTS)
    code, out, err = run(capsys, *(arg.format(space=space) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith(message) and err.count("\n") == 1


DECODE = ["code-decode", "--space", fx("coded_small.vs"), "--cover", fx("coded_witness.cov")]
BUILD = ["code-build", "--oracle", fx("k1.orc"), "--a", "0", "--b", "2", "--points", "25", "--stages", "3"]


@pytest.mark.parametrize(
    "argv",
    [
        ["connected", fx("s1.vs"), "--witness-out", "{missing}/w.cov"],
        ["tolerant-cover", fx("s1.vs"), "--out", "{missing}/c.cov"],
        ["induced", fx("s1.vs"), "--out", "{missing}/i.vs"],
        [*BUILD, "--out-space", "{tmp}/coded.vs", "--out-pi", "{missing}/pi.vs"],
        [*DECODE, "--oracle", "{missing}/k1.orc"],
        [*DECODE, "--oracle", fx("unsorted.orc")],
    ],
    ids=["connected-witness-out", "tolerant-cover-out", "induced-out", "code-build-out-pi", "code-decode-missing-oracle", "code-decode-malformed-oracle"],
)
def test_a_command_that_fails_after_its_work_prints_nothing(capsys, tmp_path, argv):
    # Each command does its work, then fails to write or read a file:
    # it exits 2 with the error on stderr and nothing on stdout.
    code, out, err = run(capsys, *(arg.format(tmp=tmp_path, missing=tmp_path / "missing") for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["code-decode", "--space", fx("coded_small.vs"), "--cover", "{bad}"],
        [*DECODE, "--oracle", "{bad}"],
        ["code-build", "--oracle", "{bad}", *BUILD[3:], "--out-space", "{tmp}/coded.vs", "--out-pi", "{tmp}/pi.vs"],
        ["code-roundtrip", "--oracle", "{bad}", *BUILD[3:]],
    ],
    ids=["code-decode-cover", "code-decode-oracle", "code-build-oracle", "code-roundtrip-oracle"],
)
def test_a_cover_or_oracle_file_that_is_not_utf8_is_a_parse_error(capsys, tmp_path, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"cover v1\nchoose 0 0\xff\n")
    code, out, err = run(capsys, *(arg.format(tmp=tmp_path, bad=bad) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: not UTF-8 (byte 19: ") and err.count("\n") == 1


def test_code_decode_reports_a_bad_cover_before_a_bad_oracle(capsys, tmp_path):
    cover = tmp_path / "one.cov"
    cover.write_text("cover v1\nchoose 0 0\n")
    argv = ["code-decode", "--space", fx("coded_small.vs"), "--cover", str(cover), "--oracle", str(tmp_path / "no.orc")]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "cover missing points" in err


def test_code_decode_with_oracle_mismatch(capsys):
    code, out, _ = run(
        capsys, "code-decode", "--space", fx("coded_small.vs"),
        "--cover", fx("coded_witness.cov"), "--oracle", fx("empty.orc"),
    )
    assert (code, out) == (1, "decoded\nin 3\nagreement mismatch\nmismatch 3 decoded=in oracle=out\n")


@pytest.mark.parametrize("b", ["1", "2"], ids=["equal-labels", "different-labels"])
def test_verify_nontol_negative_budget_is_an_error(capsys, b):
    code, out, err = run(capsys, "verify-nontol", fx("s1.vs"), "--a", "0", "--b", b, "--max-covers", "-1")
    assert (code, out) == (2, "")
    assert "must be non-negative" in err


def test_connected_budget_error_on_a_huge_cover_count(capsys, tmp_path):
    # 3**10000 covers: the count is cut off at the budget, never printed.
    n = 10_000
    lines = ["vspace v1", "mode strong", f"points {n}"]
    for p in range(n):
        lines += [f"vic {p}: {p}"] + [f"vic {p}: {' '.join(map(str, sorted({p, (p + k) % n})))}" for k in (1, 2)]
    space = tmp_path / "ring.vs"
    space.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "connected", str(space), "--a", "0", "--b", "1")
    assert (code, out) == (2, "")
    assert "budget" in err and "internal error" not in err
