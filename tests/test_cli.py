"""Command-line behaviour: subcommands, formats, exit codes."""

import io
import struct

import numpy as np
import pytest

from shuffleworks.cli import main
from shuffleworks.oracle import oracle_shuffle
from shuffleworks.perm_core import compose, parse_cycle_notation
from shuffleworks.recordfile import HEADER_SIZE, MAGIC, VERSION, make_record_file, parse_record_file

FIGURE_TOKENS = "a b c d e f 1 2 3 4 5 6"
FIGURE_SHUFFLED = "a 1 b 2 c 3 d 4 e 5 f 6"


def run_cli(argv, capsys, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("method", ["auto", "bitrev", "modinv", "oracle"])
def test_shuffle_lines_all_methods(method, capsys, monkeypatch):
    code, out, err = run_cli(
        ["shuffle", "--k", "2", "--method", method],
        capsys, stdin=FIGURE_TOKENS, monkeypatch=monkeypatch)
    assert code == 0
    assert out == FIGURE_SHUFFLED + "\n"
    assert err == ""


def test_shuffle_lines_from_file(tmp_path, capsys):
    src = tmp_path / "tokens.txt"
    src.write_text(FIGURE_TOKENS + "\n")
    code, out, _ = run_cli(["shuffle", "--k", "2", str(src)], capsys)
    assert code == 0
    assert out == FIGURE_SHUFFLED + "\n"


def test_shuffle_lines_in_place(tmp_path, capsys):
    src = tmp_path / "tokens.txt"
    src.write_text(FIGURE_TOKENS)
    code, out, _ = run_cli(["shuffle", "--k", "2", "--in-place", str(src)], capsys)
    assert code == 0
    assert out == ""
    assert src.read_text() == FIGURE_SHUFFLED + "\n"


def test_shuffle_lines_to_output_file(tmp_path, capsys, monkeypatch):
    dst = tmp_path / "out.txt"
    code, out, _ = run_cli(
        ["shuffle", "--k", "2", "-o", str(dst)],
        capsys, stdin=FIGURE_TOKENS, monkeypatch=monkeypatch)
    assert code == 0
    assert out == ""
    assert dst.read_text() == FIGURE_SHUFFLED + "\n"


def test_shuffle_stats_bitrev(capsys, monkeypatch):
    tokens = " ".join(str(i) for i in range(27))
    code, out, err = run_cli(
        ["shuffle", "--k", "3", "--method", "bitrev", "--stats"],
        capsys, stdin=tokens, monkeypatch=monkeypatch)
    assert code == 0
    assert err == "swaps=18 rounds=2 euclid_iters=0\n"
    assert out.split() == [str(i) for i in oracle_shuffle(list(range(27)), 3)]


def test_shuffle_stats_modinv(capsys, monkeypatch):
    tokens = " ".join(str(i) for i in range(27))
    code, _, err = run_cli(
        ["shuffle", "--k", "3", "--method", "modinv", "--stats"],
        capsys, stdin=tokens, monkeypatch=monkeypatch)
    assert code == 0
    assert err.startswith("swaps=20 rounds=2 euclid_iters=")


def test_shuffle_stats_general_counts_rotation_rounds(capsys, monkeypatch):
    code, _, err = run_cli(
        ["shuffle", "--k", "2", "--stats"],
        capsys, stdin=FIGURE_TOKENS, monkeypatch=monkeypatch)
    assert code == 0
    # M=6 splits into two segments; one rotation round plus the two swap rounds
    assert err == "swaps=5 rounds=3 euclid_iters=0\n"


def test_shuffle_arity_failure(capsys, monkeypatch):
    code, _, err = run_cli(
        ["shuffle", "--k", "2"], capsys, stdin="a b c", monkeypatch=monkeypatch)
    assert code == 3
    assert "error:" in err


def test_shuffle_bitrev_refuses_odd_k_non_power(capsys, monkeypatch):
    tokens = " ".join(str(i) for i in range(12))
    code, _, err = run_cli(
        ["shuffle", "--k", "3", "--method", "bitrev"],
        capsys, stdin=tokens, monkeypatch=monkeypatch)
    assert code == 3


def test_shuffle_rejects_small_k(capsys, monkeypatch):
    code, _, _ = run_cli(
        ["shuffle", "--k", "1"], capsys, stdin="a b", monkeypatch=monkeypatch)
    assert code == 2


def test_shuffle_empty_input(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["shuffle", "--k", "2"], capsys, stdin="", monkeypatch=monkeypatch)
    assert code == 0
    assert out == ""


def record_fixture(n=12, k=2, size=4):
    payload = b"".join(i.to_bytes(size, "little") for i in range(n))
    return make_record_file(k, size, payload).to_bytes()


def test_shuffle_records_file_to_file(tmp_path, capsys):
    src = tmp_path / "in.bin"
    dst = tmp_path / "out.bin"
    src.write_bytes(record_fixture())
    code, out, _ = run_cli(
        ["shuffle", "--records", str(src), "-o", str(dst)], capsys)
    assert code == 0
    assert out == ""
    rf = parse_record_file(dst.read_bytes())
    assert (rf.n_records, rf.k, rf.record_size) == (12, 2, 4)
    assert rf.records.tolist() == oracle_shuffle(list(range(12)), 2)


def test_shuffle_records_in_place(tmp_path, capsys):
    path = tmp_path / "data.bin"
    path.write_bytes(record_fixture(n=30, k=2, size=8))
    original_header = path.read_bytes()[:HEADER_SIZE]
    code, _, err = run_cli(
        ["shuffle", "--records", "--in-place", "--stats", str(path)], capsys)
    assert code == 0
    blob = path.read_bytes()
    assert blob[:HEADER_SIZE] == original_header
    rf = parse_record_file(blob)
    assert rf.records.tolist() == oracle_shuffle(list(range(30)), 2)
    assert "swaps=" in err and "rounds=" in err


def test_shuffle_records_k_from_header(tmp_path, capsys):
    path = tmp_path / "data.bin"
    path.write_bytes(record_fixture(n=27, k=3, size=4))
    code, _, _ = run_cli(["shuffle", "--records", "--in-place", str(path)], capsys)
    assert code == 0
    rf = parse_record_file(path.read_bytes())
    assert rf.records.tolist() == oracle_shuffle(list(range(27)), 3)


def test_shuffle_records_arity_mismatch(tmp_path, capsys):
    path = tmp_path / "data.bin"
    path.write_bytes(record_fixture(n=9, k=3, size=4))
    code, _, _ = run_cli(
        ["shuffle", "--records", "--k", "2", "--in-place", str(path)], capsys)
    assert code == 3


def test_shuffle_records_bad_magic(tmp_path, capsys):
    path = tmp_path / "data.bin"
    path.write_bytes(b"NOPE" + record_fixture()[4:])
    code, _, err = run_cli(["shuffle", "--records", str(path)], capsys)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("header_k", [0, 1])
@pytest.mark.parametrize("in_place", [False, True])
def test_shuffle_records_rejects_small_header_arity(tmp_path, capsys, header_k, in_place):
    path = tmp_path / "data.bin"
    # make_record_file refuses such arities, so the header is packed by hand
    path.write_bytes(struct.pack("<4sBQII", MAGIC, VERSION, 12, header_k, 4) + bytes(48))
    argv = ["shuffle", "--records", str(path)]
    argv += ["--in-place"] if in_place else ["-o", str(tmp_path / "out.bin")]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "arity" in err


def test_shuffle_records_in_place_needs_a_path(capsys, monkeypatch):
    code, _, _ = run_cli(
        ["shuffle", "--records", "--in-place"],
        capsys, stdin="", monkeypatch=monkeypatch)
    assert code == 2


def test_shuffle_missing_file(capsys):
    code, _, err = run_cli(["shuffle", "/nonexistent/tokens.txt"], capsys)
    assert code == 2
    assert "error:" in err


def test_factor_round_trip(capsys):
    code, out, _ = run_cli(["factor", "2 0 3 1 4"], capsys)
    assert code == 0
    s_line, t_line = out.splitlines()
    assert s_line.startswith("S: ") and t_line.startswith("T: ")
    s = parse_cycle_notation(s_line[3:], 5)
    t = parse_cycle_notation(t_line[3:], 5)
    assert compose(s, t).map == (2, 0, 3, 1, 4)


def test_factor_identity(capsys):
    code, out, _ = run_cli(["factor", "0 1 2"], capsys)
    assert code == 0
    assert out == "S: ()\nT: ()\n"


def test_factor_from_stdin(capsys, monkeypatch):
    code, out, _ = run_cli(["factor"], capsys, stdin="1 0", monkeypatch=monkeypatch)
    assert code == 0
    assert "S:" in out


def test_factor_enumerate_thirteen_cycle(capsys):
    perm = " ".join(str((i + 1) % 13) for i in range(13))
    code, out, _ = run_cli(["factor", "--enumerate", perm], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 26
    assert lines[0] == "S: (0)(1 12)(2 11)(3 10)(4 9)(5 8)(6 7)"
    target = parse_cycle_notation("(0 1 2 3 4 5 6 7 8 9 10 11 12)", 13)
    seen = set()
    for s_line, t_line in zip(lines[::2], lines[1::2]):
        s = parse_cycle_notation(s_line[3:], 13)
        t = parse_cycle_notation(t_line[3:], 13)
        assert compose(s, t) == target
        seen.add((s.map, t.map))
    assert len(seen) == 13


def test_factor_enumerate_relabels_arbitrary_cycles(capsys):
    code, out, _ = run_cli(["factor", "--enumerate", "2 0 3 1"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    target = (2, 0, 3, 1)
    for s_line, t_line in zip(lines[::2], lines[1::2]):
        s = parse_cycle_notation(s_line[3:], 4)
        t = parse_cycle_notation(t_line[3:], 4)
        assert compose(s, t).map == target


def test_factor_enumerate_needs_a_single_cycle(capsys):
    code, _, err = run_cli(["factor", "--enumerate", "1 0 3 2"], capsys)
    assert code == 2
    assert "single-cycle" in err


def test_factor_rejects_non_permutations(capsys):
    for bad in ("0 0 1", "5 1 2", "zebra"):
        code, _, _ = run_cli(["factor", bad], capsys)
        assert code == 2, bad


def test_network_text_header(capsys):
    code, out, _ = run_cli(["network", "--k", "2", "--exp", "4"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# shuffleworks-net v1"
    assert lines[1] == "N=16 method=bitrev swaps=10"


def test_network_modinv_by_exp(capsys):
    code, out, _ = run_cli(
        ["network", "--k", "3", "--exp", "3", "--method", "modinv"], capsys)
    assert code == 0
    assert "N=27 method=modinv swaps=20" in out


def test_network_auto_picks_modinv_for_non_powers(capsys):
    code, out, _ = run_cli(["network", "--k", "3", "--n", "12"], capsys)
    assert code == 0
    assert "method=modinv" in out


def test_network_identity_permutation(capsys):
    code, out, _ = run_cli(["network", "--perm", "0 1 2"], capsys)
    assert code == 0
    assert "N=3 method=factorization swaps=0" in out
    assert "round 0:\nround 1:\n" in out


def test_network_dot_format(capsys):
    code, out, _ = run_cli(
        ["network", "--k", "2", "--exp", "2", "--format", "dot"], capsys)
    assert code == 0
    assert out.startswith('graph "bitrev" {')
    assert out.count("style=bold") == 1


def test_network_flag_validation(capsys):
    assert run_cli(["network", "--k", "2"], capsys)[0] == 2
    assert run_cli(["network", "--k", "2", "--exp", "3", "--n", "8"], capsys)[0] == 2
    assert run_cli(["network", "--k", "2", "--n", "7"], capsys)[0] == 3
    assert run_cli(["network", "--k", "2", "--n", "12", "--method", "bitrev"], capsys)[0] == 3
    code, _, _ = run_cli(
        ["network", "--perm", "1 0", "--method", "modinv"], capsys)
    assert code == 2
    code, _, _ = run_cli(
        ["network", "--k", "2", "--n", "8", "--method", "factorization"], capsys)
    assert code == 2


def test_network_overflow_exit_code(capsys):
    code, _, err = run_cli(["network", "--k", "2", "--exp", "63"], capsys)
    assert code == 4
    assert "error:" in err


def test_profile_single_row(capsys):
    code, out, _ = run_cli(["profile", "--k", "3", "--m-range", "9..9"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,euclid_iterations,gcd_calls,swaps"
    assert len(lines) == 2
    n, iters, calls, swaps = map(int, lines[1].split(","))
    assert n == 27
    assert swaps == 20


def test_profile_sweep_swaps_bounded_by_n(capsys):
    code, out, _ = run_cli(
        ["profile", "--k", "2", "--m-range", "1..64", "--step", "3"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 22
    for n, iters, calls, swaps in rows:
        assert int(swaps) <= int(n)


def test_profile_range_validation(capsys):
    assert run_cli(["profile", "--k", "2", "--m-range", "9..1"], capsys)[0] == 2
    assert run_cli(["profile", "--k", "2", "--m-range", "x..9"], capsys)[0] == 2
    assert run_cli(["profile", "--k", "2", "--m-range", "1..9", "--step", "0"], capsys)[0] == 2


def test_selftest_passes(capsys):
    code, out, _ = run_cli(["selftest", "--max-n", "30"], capsys)
    assert code == 0
    assert "0 failures" in out


def test_selftest_zero_budget(capsys):
    code, out, _ = run_cli(["selftest", "--max-n", "0"], capsys)
    assert code == 0
    assert "0 checks" in out


def test_selftest_reports_injected_fault(capsys):
    code, out, err = run_cli(["selftest", "--max-n", "12", "--inject-fault"], capsys)
    assert code == 1
    assert "FAIL" in err
    assert "0 failures" not in out


def test_popcnt_env_var_does_not_change_output(capsys, monkeypatch):
    tokens = " ".join(str(i) for i in range(64))
    results = set()
    for mode in ("auto", "on", "off"):
        monkeypatch.setenv("SHUFFLEWORKS_POPCNT", mode)
        monkeypatch.setattr("sys.stdin", io.StringIO(tokens))
        code = main(["shuffle", "--k", "2", "--method", "bitrev"])
        out, _ = capsys.readouterr()
        assert code == 0
        results.add(out)
    assert len(results) == 1


def test_unknown_method_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["shuffle", "--method", "sideways"])
    assert exc.value.code == 2


def test_records_output_to_stdout_buffer(tmp_path, capsys, monkeypatch):
    src = tmp_path / "in.bin"
    src.write_bytes(record_fixture(n=4, k=2, size=1))
    sink = io.BytesIO()
    monkeypatch.setattr("sys.stdout", io.TextIOWrapper(sink, write_through=True))
    code = main(["shuffle", "--records", str(src)])
    assert code == 0
    rf = parse_record_file(sink.getvalue())
    assert rf.records.tolist() == oracle_shuffle([0, 1, 2, 3], 2)
