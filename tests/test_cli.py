"""Command-line behaviour: subcommands, formats, exit codes."""

import builtins
import contextlib
import errno
import gc
import hashlib
import importlib
import io
import locale
import os
import random
import re
import signal
import stat
import struct
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from shuffleworks import cli, recordfile, shuffle_bitrev
from shuffleworks.cli import _write, main
from shuffleworks.involution_factor import factor_permutation
from shuffleworks.network import build_network, emit_text
from shuffleworks.oracle import oracle_shuffle
from shuffleworks.perm_core import Permutation, cycle_notation
from shuffleworks.recordfile import HEADER_SIZE, MAGIC, VERSION, make_record_file, parse_record_file

from _reference import compose, parse_cycle_notation

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


class _StopAfterFirstChunk:
    """A text file whose writelines writes one chunk, then fails as a full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def writelines(self, chunks):
        self.fh.write(next(iter(chunks)))
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("argv", [["--in-place", "IN"], ["IN", "-o", "IN"]], ids=["in_place", "output_is_input"])
def test_interrupted_lines_write_leaves_the_input_whole(tmp_path, capsys, monkeypatch, argv):
    src = tmp_path / "tokens.txt"
    src.write_text(FIGURE_TOKENS)
    monkeypatch.setattr(cli, "_CODE_CHUNK", 4)

    def open_failing(file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        return _StopAfterFirstChunk(fh) if "w" in mode else fh

    monkeypatch.setattr(cli, "open", open_failing, raising=False)
    for o_tmpfile in (True, False):  # without O_TMPFILE the new file has a name from the start, and must go
        if not o_tmpfile:
            monkeypatch.delattr(os, "O_TMPFILE", raising=False)
        code, out, err = run_cli(["shuffle", "--k", "2", *(str(src) if a == "IN" else a for a in argv)], capsys)
        assert (code, out) == (2, ""), o_tmpfile
        assert "No space left" in err
        assert src.read_text() == FIGURE_TOKENS
        assert os.listdir(tmp_path) == ["tokens.txt"], o_tmpfile


def test_lines_in_place_through_a_symlink_keeps_the_link_and_mode(tmp_path, capsys):
    src, link = tmp_path / "tokens.txt", tmp_path / "link.txt"
    src.write_text(FIGURE_TOKENS)
    src.chmod(0o640)
    link.symlink_to(src)
    code, out, _ = run_cli(["shuffle", "--k", "2", "--in-place", str(link)], capsys)
    assert (code, out) == (0, "")
    assert link.is_symlink()
    assert src.read_text() == FIGURE_SHUFFLED + "\n"
    assert stat.S_IMODE(src.stat().st_mode) == 0o640
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "tokens.txt"]


@pytest.mark.parametrize("argv", [["--in-place", "IN"], ["IN", "-o", "IN"]], ids=["in_place", "output_is_input"])
def test_lines_onto_in_without_o_tmpfile_go_through_a_named_file(tmp_path, capsys, monkeypatch, argv):
    src = tmp_path / "tokens.txt"
    src.write_text(FIGURE_TOKENS)
    src.chmod(0o640)
    monkeypatch.delattr(os, "O_TMPFILE", raising=False)
    made = []
    real = cli.tempfile.mkstemp
    monkeypatch.setattr(cli.tempfile, "mkstemp", lambda **kwargs: made.append(kwargs) or real(**kwargs))
    code, out, _ = run_cli(["shuffle", "--k", "2", *(str(src) if a == "IN" else a for a in argv)], capsys)
    assert (code, out) == (0, "")
    assert made == [{"dir": os.path.realpath(tmp_path)}]
    assert src.read_text() == FIGURE_SHUFFLED + "\n"
    assert stat.S_IMODE(src.stat().st_mode) == 0o640
    assert os.listdir(tmp_path) == ["tokens.txt"]


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


def _cut_after_header(monkeypatch, path, body_len):
    """Cut the file at path to body_len body bytes once its header is read and checked, as if it shrank meanwhile."""
    real_read_header = recordfile.read_header

    def read_header(src):
        found = real_read_header(src)
        os.truncate(path, HEADER_SIZE + body_len)
        return found

    monkeypatch.setattr(recordfile, "read_header", read_header)


def test_shuffle_records_short_read_exits_2(tmp_path, capsys, monkeypatch):
    src = tmp_path / "in.bin"
    src.write_bytes(record_fixture())
    _cut_after_header(monkeypatch, src, 8)
    code, out, err = run_cli(["shuffle", "--records", str(src)], capsys)
    assert (code, out, err) == (2, "", "error: body is 8 bytes, header promises 48\n")


def _in_place_bytes(tmp_path, blob, capsys):
    ref = tmp_path / "ref.bin"
    ref.write_bytes(blob)
    assert run_cli(["shuffle", "--records", "--in-place", str(ref)], capsys)[0] == 0
    return ref.read_bytes()


@pytest.mark.parametrize("link", [None, "hard", "symbolic"])
def test_records_output_naming_the_input_runs_in_place(tmp_path, capsys, link):
    # Opening OUT for writing would empty IN before the copy read it.
    blob = record_fixture(n=22, k=2, size=3)
    src = tmp_path / "in.bin"
    src.write_bytes(blob)
    dst = src
    if link is not None:
        dst = tmp_path / "out.bin"
        (os.link if link == "hard" else os.symlink)(src, dst)
    code, out, _ = run_cli(["shuffle", "--records", str(src), "-o", str(dst)], capsys)
    assert (code, out) == (0, "")
    assert src.read_bytes() == _in_place_bytes(tmp_path, blob, capsys)


def test_records_copy_to_devnull(tmp_path, capsys):
    src = tmp_path / "in.bin"
    src.write_bytes(record_fixture())
    code, out, _ = run_cli(["shuffle", "--records", str(src), "-o", os.devnull], capsys)
    assert (code, out) == (0, "")


@pytest.mark.parametrize("k,n,size", [(2, 22, 12), (3, 27, 8), (5, 55, 1), (2, 0, 3)])
def test_records_copy_matches_in_place_and_leaves_input_alone(tmp_path, capsys, k, n, size):
    blob = record_fixture(n=n, k=k, size=size)
    src, dst = tmp_path / "in.bin", tmp_path / "out.bin"
    src.write_bytes(blob)
    dst.write_bytes(b"longer stale contents" * 100)
    assert run_cli(["shuffle", "--records", str(src), "-o", str(dst)], capsys)[:2] == (0, "")
    assert src.read_bytes() == blob
    assert dst.read_bytes() == _in_place_bytes(tmp_path, blob, capsys)


def test_records_copy_checks_before_it_writes(tmp_path, capsys):
    src, dst = tmp_path / "in.bin", tmp_path / "out.bin"
    blob = record_fixture(n=33, k=3, size=4)
    src.write_bytes(blob)
    dst.write_bytes(b"keep me")
    for extra in (["--method", "bitrev"], ["--k", "2"]):
        for where in ([str(src), "-o", str(dst)], ["--in-place", str(src)]):
            code, _, err = run_cli(["shuffle", "--records", *extra, *where], capsys)
            assert code == 3 and err.startswith("error:"), (extra, where)
            assert dst.read_bytes() == b"keep me"
            assert src.read_bytes() == blob


@pytest.mark.parametrize("out_n", [40, 3], ids=["longer", "shorter"])
def test_records_copy_overwrites_an_existing_container_where_it_stands(tmp_path, capsys, out_n):
    blob = record_fixture(n=22, k=2, size=12)
    src, dst, link = tmp_path / "in.bin", tmp_path / "out.bin", tmp_path / "link.bin"
    src.write_bytes(blob)
    dst.write_bytes(record_fixture(n=out_n, k=3, size=12))
    dst.chmod(0o640)
    os.link(dst, link)
    before = dst.stat()
    assert run_cli(["shuffle", "--records", str(src), "-o", str(dst)], capsys) == (0, "", "")
    after = dst.stat()
    assert after.st_size == HEADER_SIZE + 22 * 12
    assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)
    assert dst.read_bytes() == link.read_bytes() == _in_place_bytes(tmp_path, blob, capsys)
    assert src.read_bytes() == blob


def _assert_refused(path, capsys):
    """Both record readers exit 2 on path for a bad magic."""
    for argv in (["--in-place", str(path)], [str(path), "-o", str(path.with_suffix(".again"))]):
        code, _, err = run_cli(["shuffle", "--records", *argv], capsys)
        assert code == 2 and "bad magic" in err, (argv, code, err)


@pytest.mark.parametrize("how", ["copy", "copy_onto_a_container", "in_place", "stdin_to_a_file"])
def test_interrupted_records_copy_is_refused(tmp_path, capsys, monkeypatch, how):
    src, dst = tmp_path / "in.bin", tmp_path / "out.bin"
    src.write_bytes(record_fixture(n=16, k=2, size=8))
    if how == "copy_onto_a_container":  # a good container of another shape, overwritten where it stands
        dst.write_bytes(record_fixture(n=27, k=3, size=4))
    first_round = shuffle_bitrev.revswap_round

    def stop_after_round_0(array, t, spec):
        if t == spec.n:
            raise RuntimeError("stopped between the rounds")
        return first_round(array, t, spec)

    argv = {"in_place": ["--in-place", str(src)], "stdin_to_a_file": ["-o", str(dst)]}.get(
        how, [str(src), "-o", str(dst)])
    with _stdin_pipe(monkeypatch, src.read_bytes()) if how == "stdin_to_a_file" else contextlib.nullcontext():
        monkeypatch.setattr(shuffle_bitrev, "revswap_round", stop_after_round_0)
        with pytest.raises(RuntimeError):
            main(["shuffle", "--records", *argv])
    monkeypatch.undo()
    stopped = src if how == "in_place" else dst
    assert stopped.stat().st_size == src.stat().st_size
    _assert_refused(stopped, capsys)


# Runs cli.main(argv) with module.name wrapped so that the process SIGKILLs itself at the n-th call, before the
# call runs ("before") or once it returns ("after"): no except or finally block runs, as with a real kill.
KILLED_CHILD = """
import importlib, os, signal, sys
from shuffleworks import cli
module, name, n, when, *argv = sys.argv[1:]
owner, calls = importlib.import_module(module), []
real = getattr(owner, name)
def killed(*args, **kwargs):
    calls.append(None)
    if len(calls) == int(n) and when == "before":
        os.kill(os.getpid(), signal.SIGKILL)
    result = real(*args, **kwargs)
    if len(calls) == int(n):
        os.kill(os.getpid(), signal.SIGKILL)
    return result
setattr(owner, name, killed)
sys.exit(cli.main(argv))
"""


def _killed(module, name, n, when, argv, stdin=b""):
    """Run main(argv) in a child that module.name kills at its n-th call; stdin goes in through a pipe."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", KILLED_CHILD, module, name, str(n), when, *map(str, argv)],
                          env=env, input=stdin, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    assert proc.returncode == -signal.SIGKILL, proc.stderr[-2000:].decode(errors="replace")


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
@pytest.mark.parametrize("module, name, when", [
    ("shuffleworks.recordfile", "write_header", "before"),
    ("shuffleworks.shuffle_bitrev", "revswap_round", "after"),
], ids=["before_header", "after_round_0"])
def test_killed_records_in_place_is_refused(tmp_path, capsys, module, name, when):
    # nothing syncs the mapped body, so these rest on the zeroed header alone
    path = tmp_path / "in.bin"
    before = np.arange(2 ** 16, dtype=np.uint64)
    path.write_bytes(make_record_file(2, 8, before.tobytes()).to_bytes())
    _killed(module, name, 1, when, ["shuffle", "--records", "--in-place", path])
    body = np.fromfile(path, dtype=np.uint64, offset=HEADER_SIZE)
    assert path.stat().st_size == HEADER_SIZE + before.nbytes
    if when == "before":  # the body is shuffled in full; only the header is missing
        assert np.array_equal(body, oracle_shuffle(before, 2))
    else:
        assert not np.array_equal(body, before) and not np.array_equal(body, oracle_shuffle(before, 2))
    with open(path, "rb") as fh, pytest.raises(recordfile.RecordFormatError):
        recordfile.read_header(fh)
    code, out, err = run_cli(["shuffle", "--records", str(path)], capsys)
    assert (code, out) == (2, "") and "bad magic" in err, err


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
@pytest.mark.parametrize("name, n, when", [
    ("_fill", 2, "before"),  # OUT has its zeroed header and length; the body is not read yet
    ("copy_records", 1, "after"),  # OUT holds IN's body, not shuffled
    ("write_header", 1, "before"),  # OUT holds the shuffled body
], ids=["before_the_body_is_read", "after_the_copy", "before_header"])
@pytest.mark.parametrize("how", ["copy", "stdin_to_a_file"])
def test_killed_records_copy_is_refused(tmp_path, capsys, how, name, n, when):
    src, dst = tmp_path / "in.bin", tmp_path / "out.bin"
    blob = make_record_file(2, 8, np.arange(2 ** 16, dtype=np.uint64).tobytes()).to_bytes()
    src.write_bytes(blob)
    if how == "copy":
        _killed("shuffleworks.recordfile", name, n, when, ["shuffle", "--records", src, "-o", dst])
    else:
        _killed("shuffleworks.recordfile", name, n, when, ["shuffle", "--records", "-o", dst], stdin=blob)
    assert src.read_bytes() == blob
    assert dst.stat().st_size == len(blob)
    _assert_refused(dst, capsys)


def _has_o_tmpfile(folder):
    try:
        os.close(os.open(folder, os.O_TMPFILE | os.O_WRONLY, 0o600))
    except (AttributeError, OSError):
        return False
    return True


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
@pytest.mark.parametrize("module, name, n", [
    ("numpy", "repeat", 2),  # the output gather's second step: the first has gone to the new file
    ("os", "link", 1),  # the new file is whole, and still has no name
], ids=["after_the_first_write", "before_the_link"])
def test_killed_lines_in_place_leaves_the_input_whole_and_nothing_beside_it(tmp_path, module, name, n):
    if not _has_o_tmpfile(tmp_path):
        pytest.skip("no O_TMPFILE here: the new file has a name from the start, which a kill leaves")
    src = tmp_path / "in.txt"
    text = " ".join("w%07d" % i for i in range(5000))
    src.write_text(text)
    _killed(module, name, n, "before", ["shuffle", "--in-place", src])
    assert src.read_text() == text
    assert os.listdir(tmp_path) == ["in.txt"]


def test_records_copy_short_read_is_refused(tmp_path, capsys, monkeypatch):
    src, dst = tmp_path / "in.bin", tmp_path / "out.bin"
    src.write_bytes(record_fixture())
    _cut_after_header(monkeypatch, src, 8)
    code, out, err = run_cli(["shuffle", "--records", str(src), "-o", str(dst)], capsys)
    assert (code, out, err) == (2, "", "error: body is 8 bytes, header promises 48\n")
    monkeypatch.undo()
    assert dst.stat().st_size == HEADER_SIZE
    _assert_refused(dst, capsys)


def test_records_copy_scratch_is_bounded(tmp_path, capsys):
    # 1 400 006 records of 12 bytes (16.8 MB): rotations, then aligned blocks.
    n = 2 * 700_003
    payload = np.arange(3 * n, dtype=np.uint32).tobytes()
    src, dst = tmp_path / "in.bin", tmp_path / "out.bin"
    src.write_bytes(make_record_file(2, 12, payload).to_bytes())
    del payload
    tracemalloc.start()
    try:
        code, out, _ = run_cli(["shuffle", "--records", str(src), "-o", str(dst)], capsys)
        scratch = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (0, "")
    assert scratch < 2 << 20
    got = parse_record_file(dst.read_bytes()).records.view(np.uint32).reshape(n, 3)[:, 0]
    assert (got == np.asarray(oracle_shuffle(range(n), 2)) * 3).all()


@pytest.mark.parametrize("kernel", ["accepts", "refuses"])
def test_records_body_prefault_is_asked_for_and_may_be_refused(tmp_path, capsys, monkeypatch, kernel):
    # A kernel before Linux 5.14 refuses the advice; the pages then fault one by one.
    asked = []
    real_madvise = recordfile._madvise

    def madvise(mm, advice):
        asked.append(advice)
        if kernel == "refuses":
            raise OSError(errno.EINVAL, os.strerror(errno.EINVAL))
        real_madvise(mm, advice)

    monkeypatch.setattr(recordfile, "_madvise", madvise)
    src, dst, inplace = tmp_path / "in.bin", tmp_path / "out.bin", tmp_path / "inplace.bin"
    for k, n, size in ((2, 2 * 1030, 12), (3, 27, 8), (2, 2 ** 10, 8), (5, 55, 1)):
        blob = record_fixture(n=n, k=k, size=size)
        rf = parse_record_file(blob)
        want = rf.header_bytes() + np.asarray(oracle_shuffle(rf.records, k)).tobytes()
        src.write_bytes(blob)
        inplace.write_bytes(blob)
        asked.clear()
        assert run_cli(["shuffle", "--records", str(src), "-o", str(dst)], capsys) == (0, "", "")
        assert run_cli(["shuffle", "--records", "--in-place", str(inplace)], capsys) == (0, "", "")
        assert dst.read_bytes() == inplace.read_bytes() == want, (k, n, size)
        if sys.platform.startswith("linux"):
            assert asked == [23, 23]  # MADV_POPULATE_WRITE, once on each route


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the prefault is asked for on Linux")
def test_records_body_over_half_of_memory_is_not_prefaulted(tmp_path, monkeypatch):
    asked = []
    monkeypatch.setattr(recordfile, "_madvise", lambda mm, advice: asked.append(advice))
    path = tmp_path / "data.bin"
    path.write_bytes(record_fixture(n=4096, k=2, size=8))
    real_sysconf = os.sysconf
    for pages, prefaulted in ((16, True), (15, False)):  # 16 pages of 4 KiB are twice the 32 KiB body
        monkeypatch.setattr(os, "sysconf", lambda name: {"SC_PHYS_PAGES": pages, "SC_PAGE_SIZE": 4096}.get(name)
                            or real_sysconf(name))
        asked.clear()
        recordfile._map_body(str(path), 4096, 8)
        assert asked == ([23] if prefaulted else []), pages


def test_records_in_place_k3_scratch_after_the_first_call(tmp_path, capsys):
    # The parser is built once per process, so a later in-place run's scratch
    # is the modular-inverse rounds' own: 256 Euclid lanes and a chunk of records.
    n = 3 * 12_001
    path = tmp_path / "data.bin"
    path.write_bytes(make_record_file(3, 8, np.arange(n, dtype=np.uint64).tobytes()).to_bytes())
    argv = ["shuffle", "--records", "--in-place", str(path)]
    assert run_cli(argv, capsys) == (0, "", "")
    gc.collect()
    tracemalloc.start()
    try:
        code, out, _ = run_cli(argv, capsys)
        scratch = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (0, "")
    assert scratch < 0.054 * (1 << 20), scratch
    twice = np.arange(n, dtype=np.uint64).reshape(3, -1).T.ravel().reshape(3, -1).T.ravel()
    assert (parse_record_file(path.read_bytes()).records == twice).all()


@contextlib.contextmanager
def _stdin_pipe(monkeypatch, blob):
    """Make stdin the read end of a pipe that a thread fills with blob, for the length of the block."""
    read_end, write_end = os.pipe()
    monkeypatch.setattr("sys.stdin", open(read_end, "r"))

    def feed():
        with open(write_end, "wb") as out, contextlib.suppress(BrokenPipeError):
            out.write(blob)

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    try:
        yield
    finally:
        sys.stdin.close()  # a writer blocked on bytes no one read gets a broken pipe
        feeder.join(timeout=60)
    assert not feeder.is_alive()


def _traced_main(argv):
    """main(argv) under tracemalloc; return its exit code and peak of traced memory."""
    gc.collect()
    tracemalloc.start()
    try:
        code = main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_records_from_stdin_to_a_file_scratch_is_bounded(tmp_path, capsys, monkeypatch):
    # the body is read straight into OUT's mapped body, whatever its size
    src, ref, dst = tmp_path / "in.bin", tmp_path / "ref.bin", tmp_path / "out.bin"
    for n in (2 ** 18, 2 ** 20):
        blob = make_record_file(2, 8, np.arange(n, dtype=np.uint64).tobytes()).to_bytes()
        src.write_bytes(blob)
        assert run_cli(["shuffle", "--records", str(src), "-o", str(ref)], capsys) == (0, "", "")
        with _stdin_pipe(monkeypatch, blob):
            code, scratch = _traced_main(["shuffle", "--records", "-o", str(dst)])
        assert code == 0
        assert dst.read_bytes() == ref.read_bytes()
        assert scratch < 2 << 20, (n, scratch, len(blob))


def test_records_from_stdin_to_a_file_are_not_prefaulted(tmp_path, capsys, monkeypatch):
    # a stream's body is only promised: populating OUT first could fill the disk with zeros
    asked = []
    monkeypatch.setattr(recordfile, "_madvise", lambda mm, advice: asked.append(advice))
    src, dst = tmp_path / "in.bin", tmp_path / "out.bin"
    src.write_bytes(record_fixture(n=2 ** 10, k=2, size=8))
    with _stdin_pipe(monkeypatch, src.read_bytes()):
        assert run_cli(["shuffle", "--records", "-o", str(dst)], capsys) == (0, "", "")
    assert asked == []
    assert run_cli(["shuffle", "--records", str(src), "-o", str(dst)], capsys) == (0, "", "")
    assert asked == ([23] if sys.platform.startswith("linux") else [])


def test_records_from_stdin_to_stdout_scratch_is_the_container(tmp_path, capsys, monkeypatch):
    # one buffer of the body's size, written out behind the header
    src, ref, dst = tmp_path / "in.bin", tmp_path / "ref.bin", tmp_path / "out.bin"
    for n in (2 ** 18, 2 ** 20):
        blob = make_record_file(2, 8, np.arange(n, dtype=np.uint64).tobytes()).to_bytes()
        src.write_bytes(blob)
        assert run_cli(["shuffle", "--records", str(src), "-o", str(ref)], capsys) == (0, "", "")
        with _stdin_pipe(monkeypatch, blob), open(dst, "w") as stdout:
            monkeypatch.setattr("sys.stdout", stdout)
            code, scratch = _traced_main(["shuffle", "--records"])
        assert code == 0
        assert dst.read_bytes() == ref.read_bytes()
        assert scratch < len(blob) + (1 << 20), (n, scratch, len(blob))


@pytest.mark.parametrize("delta", [-1, 1, 4096], ids=["short", "one_more", "more"])
def test_records_from_stdin_refuse_a_body_the_header_does_not_promise(capsys, monkeypatch, delta):
    blob = record_fixture(n=12, k=2, size=4)
    blob = blob[:delta] if delta < 0 else blob + bytes(delta)
    with _stdin_pipe(monkeypatch, blob):
        code, out, err = run_cli(["shuffle", "--records"], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: body is 47 bytes, header promises 48\n" if delta < 0 else
                   "error: body is more than 48 bytes, header promises 48\n")


def test_records_from_stdin_with_a_header_promising_too_much(tmp_path, capsys, monkeypatch):
    # A buffer is not zeroed, so asking for it costs no memory before the body
    # is found short, or it cannot be had.  OUT is sized to the promise but
    # sparse and not prefaulted, and is cut back to its zeroed header.
    dst = tmp_path / "out.bin"
    for to_file in (False, True):
        for count, size in ((2 ** 32, 1), (2 ** 32, 17), (2 ** 61, 16), (2 ** 64 - 1, 17)):
            head = struct.pack("<4sBQII", MAGIC, VERSION, count, 2, size)
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(head + bytes(size))))
            code, out, err = run_cli(["shuffle", "--records", *(["-o", str(dst)] if to_file else [])], capsys)
            row = (to_file, count, size, err)
            if count % 2:  # the arity is checked before the body is read
                assert (code, out, err) == (3, "", "error: %d records is not a multiple of k=2\n" % count), row
                continue
            short = "error: body is %d bytes, header promises %d\n" % (size, count * size)
            unheld = "error: header promises %d records of %d bytes, more than memory holds\n" % (count, size)
            if count * size >= 2 ** 63:  # refused before OUT is touched
                short = unheld = "error: header promises %d records of %d bytes, more than can be addressed\n" % (
                    count, size)
            assert (code, out) == (2, ""), row
            assert (err == short) if to_file else (err in (short, unheld)), row  # a buffer may not be had
            if to_file:
                assert dst.stat().st_size == HEADER_SIZE, row
                _assert_refused(dst, capsys)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_records_from_a_named_pipe(tmp_path, capsys):
    # A raw pipe read returns what has been written so far, so the header and
    # body arrive in pieces shorter than asked for.
    fifo, src, want, dst = tmp_path / "in.fifo", tmp_path / "in.bin", tmp_path / "want.bin", tmp_path / "out.bin"
    blob = record_fixture(n=22, k=2, size=3)
    src.write_bytes(blob)
    assert run_cli(["shuffle", "--records", "--method", "oracle", str(src), "-o", str(want)], capsys) == (0, "", "")
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb", buffering=0) as out:
            for i in range(0, len(blob), 5):
                out.write(blob[i:i + 5])
                time.sleep(0.002)

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    try:
        assert run_cli(["shuffle", "--records", str(fifo), "-o", str(dst)], capsys) == (0, "", "")
    finally:
        feeder.join(timeout=60)
    assert not feeder.is_alive()
    assert dst.read_bytes() == want.read_bytes()


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


@pytest.mark.parametrize("records", [False, True])
@pytest.mark.parametrize("where", [[], ["-"], ["{src}", "-o", "{dst}"], ["{src}", "-o", "-"]])
def test_in_place_needs_an_input_path_and_no_output(tmp_path, capsys, monkeypatch, records, where):
    src, dst = tmp_path / "in", tmp_path / "out"
    blob = record_fixture() if records else FIGURE_TOKENS.encode()
    src.write_bytes(blob)
    argv = ["shuffle", "--in-place"] + (["--records"] if records else [])
    argv += [a.format(src=src, dst=dst) for a in where]
    code, out, err = run_cli(argv, capsys, stdin=FIGURE_TOKENS, monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert err == "error: --in-place needs an input file path and no -o\n"
    assert src.read_bytes() == blob
    assert not dst.exists()


def test_shuffle_missing_file(capsys):
    code, _, err = run_cli(["shuffle", "/nonexistent/tokens.txt"], capsys)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["shuffle", "{dir}"],
    ["shuffle", "--records", "{dir}"],
    ["shuffle", "--records", "--in-place", "{dir}"],
    ["shuffle", "{tokens}", "-o", "{dir}"],
    ["shuffle", "--records", "{records}", "-o", "{dir}"],
])
def test_shuffle_directory_paths_exit_2(tmp_path, capsys, argv):
    (tmp_path / "tokens.txt").write_text(FIGURE_TOKENS)
    (tmp_path / "in.bin").write_bytes(record_fixture())
    paths = {"dir": str(tmp_path), "tokens": str(tmp_path / "tokens.txt"), "records": str(tmp_path / "in.bin")}
    code, _, err = run_cli([a.format(**paths) for a in argv], capsys)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["shuffle", "--k", "0"],
    ["shuffle", "--records", "--k", "1"],
    ["network", "--k", "0", "--exp", "3"],
    ["network", "--k", "1", "--exp", "3"],
    ["network", "--k", "-2", "--n", "8"],
    ["profile", "--k", "1", "--m-range", "1..3"],
])
def test_arity_below_two_exits_2(capsys, monkeypatch, argv):
    code, out, err = run_cli(argv, capsys, stdin="a b", monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert err == "error: k must be at least 2\n"


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


@pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 39])
def test_factor_enumerate_prints_factor_permutation_at_every_axis(n, capsys):
    # a random cycle on n points; --enumerate reuses each S as the next axis's T
    order = list(range(n))
    random.Random(n).shuffle(order)
    perm = [0] * n
    for a, b in zip(order, order[1:] + order[:1]):
        perm[a] = b
    want = ""
    for axis in range(n):
        pair = factor_permutation(Permutation(perm), axis)
        want += "S: %s\nT: %s\n" % (cycle_notation(pair.s), cycle_notation(pair.t))
    assert run_cli(["factor", "--enumerate", " ".join(map(str, perm))], capsys) == (0, want, "")


def test_factor_enumerate_needs_a_single_cycle(capsys):
    code, _, err = run_cli(["factor", "--enumerate", "1 0 3 2"], capsys)
    assert code == 2
    assert "single-cycle" in err


def test_factor_rejects_non_permutations(capsys):
    for bad in ("0 0 1", "5 1 2", "zebra"):
        code, _, _ = run_cli(["factor", bad], capsys)
        assert code == 2, bad


def test_factor_enumerate_prints_each_factorization_as_it_is_made(monkeypatch):
    # a 300-point cycle: its 600 output lines hold 0.75 MB, and its 300 factorizations held at once 1.5 MiB
    order = list(range(300))
    random.Random(7).shuffle(order)
    perm = [0] * len(order)
    for a, b in zip(order, order[1:] + order[:1]):
        perm[a] = b
    want = hashlib.sha256()
    for axis in range(len(perm)):
        pair = factor_permutation(Permutation(perm), axis)
        want.update(("S: %s\nT: %s\n" % (cycle_notation(pair.s), cycle_notation(pair.t))).encode())

    class Digest:  # an output that holds nothing of what it is given
        def __init__(self):
            self.sha = hashlib.sha256()

        def write(self, text):
            self.sha.update(text.encode())
            return len(text)

    got = Digest()
    monkeypatch.setattr("sys.stdout", got)
    text = " ".join(map(str, perm))
    gc.collect()
    tracemalloc.start()
    try:
        code = main(["factor", "--enumerate", text])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert got.sha.digest() == want.digest()
    assert peak < 0.5 * (1 << 20), peak


def test_network_perm_from_stdin(capsys, monkeypatch):
    # 2**16 positions are 379 KB of text, past what Linux takes as one argument (128 KiB)
    perm = list(range(2 ** 16))
    random.Random(11).shuffle(perm)
    code, out, err = run_cli(["network", "--perm", "-"], capsys, stdin=" ".join(map(str, perm)) + "\n",
                             monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    assert out == emit_text(build_network("factorization", Permutation(perm)))


def test_network_that_cannot_fit_in_memory_exits_2_before_it_is_built(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("build_network ran")

    monkeypatch.setattr(cli, "build_network", never)
    code, out, err = run_cli(["network", "--k", "2", "--exp", "40"], capsys)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: out of memory: "), err


def test_network_memory_floor_follows_the_row_width(capsys, monkeypatch):
    # 2**20 positions are held in uint32 rows: a swap takes at least 8 + 6 bytes, not the 16 + 6 of intp rows,
    # so 14 MiB of physical memory is enough to build the network and one page less is not
    real_sysconf = os.sysconf
    monkeypatch.setattr(cli, "emit_text", lambda net: "swaps=%d\n" % net.total_swaps)
    for pages, code, out in ((14 << 8, 0, "swaps=1047040\n"), ((14 << 8) - 1, 2, "")):
        monkeypatch.setattr(os, "sysconf", lambda name: {"SC_PHYS_PAGES": pages, "SC_PAGE_SIZE": 4096}.get(name)
                            or real_sysconf(name))
        got = run_cli(["network", "--k", "2", "--exp", "20"], capsys)
        assert got[:2] == (code, out), (pages, got[2])
        assert got[2] == ("" if code == 0 else "error: out of memory: a network of N=1048576 positions holds about "
                          "N swaps of at least 14 bytes, more than the %d bytes of physical memory\n" % (pages << 12))


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


@pytest.mark.parametrize("sizes", [["--exp", "1"], ["--n", "2"], ["--k", "2"], ["--k", "2", "--n", "2"]])
def test_network_perm_takes_no_size_flags(capsys, sizes):
    code, out, err = run_cli(["network", "--perm", "1 0"] + sizes, capsys)
    assert code == 2
    assert out == ""
    assert err == "error: --perm takes no --exp, --n or --k\n"


def test_network_overflow_exit_code(capsys):
    code, _, err = run_cli(["network", "--k", "2", "--exp", "63"], capsys)
    assert code == 4
    assert "error:" in err


def test_network_exp_is_bounded_before_n_is_built(capsys):
    # 2**100000 has more digits than Python will print
    code, out, err = run_cli(["network", "--k", "2", "--exp", "100000"], capsys)
    assert (code, out) == (4, "")
    assert err == "error: N=2**100000 exceeds the index arithmetic limit\n"


@pytest.mark.parametrize("exp", ["0", "-1"])
def test_network_exp_below_one_exits_3(capsys, exp):
    code, out, err = run_cli(["network", "--k", "2", "--exp", exp], capsys)
    assert (code, out) == (3, "")
    assert err == "error: --exp %s gives no positions; it must be at least 1\n" % exp


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads the address space size from /proc")
def test_network_out_of_memory_exits_2_without_a_traceback():
    # 2**22 positions take about 235 MiB past the interpreter and numpy, so 100 MiB of address space past what the
    # child has mapped runs out
    child = ("import os, resource, sys; from shuffleworks.cli import main; "
             "size = int(open('/proc/self/statm').read().split()[0]) * os.sysconf('SC_PAGE_SIZE') + (100 << 20); "
             "resource.setrlimit(resource.RLIMIT_AS, (size, size)); "
             "sys.exit(main(['network', '--k', '2', '--exp', '22']))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", child], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: "), proc.stderr[-2000:]


def test_profile_past_the_euclid_lanes_exits_4(capsys):
    # N = 3 * 2**60 passes the index limit, but 3 * (N - 1) does not fit in int64
    code, out, err = run_cli(["profile", "--k", "3", "--m-range", "%d..%d" % (1 << 60, 1 << 60)], capsys)
    assert (code, out) == (4, "")
    assert err.startswith("error: k*(N-1) exceeds the int64 Euclid lanes")


def test_profile_single_row(capsys):
    code, out, _ = run_cli(["profile", "--k", "3", "--m-range", "9..9"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,euclid_iterations,gcd_calls,swaps"
    assert len(lines) == 2
    n, iters, calls, swaps = map(int, lines[1].split(","))
    assert n == 27
    assert swaps == 20
    assert run_cli(["profile", "--k", "3", "--m-range", "9"], capsys)[:2] == (0, out)  # one M, without ".."


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


def test_selftest_max_n_below_two_exits_2(capsys):
    # below N = 2 no size is checked, so the run would pass with 0 checks
    for max_n in ("-5", "0", "1"):
        code, out, err = run_cli(["selftest", "--max-n", max_n], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: --max-n %s " % max_n), err
    assert run_cli(["selftest", "--max-n", "2"], capsys)[:2] == (0, "selftest: 8 checks, 0 failures\n")


def test_selftest_reports_injected_fault(capsys, monkeypatch):
    real = cli.shuffle_modinv

    def corrupted(array, *rest):
        real(array, *rest)
        array[0], array[-1] = array[-1], array[0]

    monkeypatch.setattr(cli, "shuffle_modinv", corrupted)
    code, out, err = run_cli(["selftest", "--max-n", "12"], capsys)
    assert code == 1
    assert "FAIL modinv" in err
    assert "0 failures" not in out


def test_selftest_reports_a_fault_in_the_tiled_route(capsys, monkeypatch):
    # Only ndarrays, as every shuffle --records and --lines run holds them, take the tiled rounds.
    real = shuffle_bitrev._revswap_round_tiled

    def corrupted(array, t, spec):
        swaps = real(array, t, spec)
        if t == spec.n:  # in the last round only, or the two swaps would cancel
            array[[0, -1]] = array[[-1, 0]]
        return swaps

    monkeypatch.setattr(shuffle_bitrev, "_revswap_round_tiled", corrupted)
    code, out, err = run_cli(["selftest", "--max-n", "16"], capsys)
    assert code == 1
    fails = err.splitlines()
    assert fails and all(line.startswith("FAIL bitrev ") for line in fails)
    assert {line.split()[-1] for line in fails} == {"int64", "void"}
    assert "0 failures" not in out


def test_each_shuffle_and_selftest_case_routes_once(capsys, monkeypatch, tmp_path):
    calls = []
    real = cli._route

    def counted(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(cli, "_route", counted)
    src = tmp_path / "in.bin"
    src.write_bytes(record_fixture(n=12, k=3, size=4))
    runs = [(["shuffle", "--k", k, "--method", method], None) for k in ("2", "3") for method in ("auto", "oracle")]
    runs += [(["shuffle", "--records", str(src), "-o", str(tmp_path / "out.bin")], None),
             (["shuffle", "--records", "--in-place", str(src)], None)]
    for argv, _ in runs:
        calls.clear()
        monkeypatch.setattr("sys.stdin", io.StringIO(" ".join(map(str, range(12)))))
        assert main(argv) == 0
        assert len(calls) == 1, (argv, calls)
    capsys.readouterr()
    calls.clear()
    assert main(["selftest", "--max-n", "12"]) == 0
    cases = [(N, k) for N in range(2, 13) for k in (2, 3, 4, 5) if N % k == 0]
    assert sorted(calls) == sorted((method, "shuffle") for _ in cases for method in ("bitrev", "modinv"))


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


@pytest.mark.parametrize("to_stdout", [False, True])
def test_text_write_scratch_is_bounded(tmp_path, monkeypatch, to_stdout):
    # A text stream encodes each str it is given into one bytes copy, so an
    # 8 MiB str written whole would cost 8 MiB of scratch.
    text = "w" * (8 << 20)
    dst = tmp_path / "out.txt"
    stdout = open(dst, "w") if to_stdout else None
    if to_stdout:
        monkeypatch.setattr("sys.stdout", stdout)
    tracemalloc.start()
    try:
        _write(None if to_stdout else str(dst), [text, "\n"])
        scratch = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        if stdout is not None:
            stdout.close()
    assert scratch < 3 << 20
    assert dst.read_text() == text + "\n"


# Every --method x k x container mode at N = 0, k**3 and 11k, recorded from
# the CLI before its report types were merged into OpCounter: exit code,
# stderr (the --stats line or the error) and the first 16 hex digits of the
# SHA-256 of the output file.  The euclid_iters fields of the modinv rows
# were re-recorded when each J_r value dropped to one extended-Euclid run.

def _golden_run(method, k, mode, N, tmp_path, capsys):
    src, dst = tmp_path / "in", tmp_path / "out"
    if mode == "lines":
        src.write_text(" ".join("w%d" % i for i in range(N)))
    else:
        src.write_bytes(make_record_file(k, 3, bytes((i * 37 + j) % 256 for i in range(N) for j in range(3))).to_bytes())
    argv = ["shuffle", "--method", method, "--stats", str(src)]
    if mode == "lines":
        argv += ["--k", str(k), "-o", str(dst)]
    elif mode == "copy":
        argv += ["--records", "-o", str(dst)]
    else:
        argv += ["--records", "--in-place"]
        dst = src
    code, out, err = run_cli(argv, capsys)
    assert out == ""
    digest = hashlib.sha256(dst.read_bytes()).hexdigest()[:16] if dst.exists() else "-"
    return "%s %d %s %d %d %s %s" % (method, k, mode, N, code, digest, err.strip())


def test_stats_golden_matrix(tmp_path, capsys):
    rows = []
    for method in ("auto", "bitrev", "modinv", "oracle"):
        for k in (2, 3, 4, 5):
            for mode in ("lines", "copy", "inplace"):
                for N in (0, k ** 3, 11 * k):
                    rows.append(_golden_run(method, k, mode, N, tmp_path, capsys))
                    for f in tmp_path.iterdir():
                        f.unlink()
    assert "\n".join(rows) == GOLDEN.strip()


GOLDEN = """
auto 2 lines 0 0 e3b0c44298fc1c14 swaps=0 rounds=2 euclid_iters=0
auto 2 lines 8 0 e8440a4b99c8ab0b swaps=4 rounds=2 euclid_iters=0
auto 2 lines 22 0 61d9c63910d78175 swaps=11 rounds=4 euclid_iters=0
auto 2 copy 0 0 efbeffdf324f2821 swaps=0 rounds=2 euclid_iters=0
auto 2 copy 8 0 303b2d27e7ec9ca6 swaps=4 rounds=2 euclid_iters=0
auto 2 copy 22 0 dfe98f6a8f2f6991 swaps=11 rounds=4 euclid_iters=0
auto 2 inplace 0 0 efbeffdf324f2821 swaps=0 rounds=2 euclid_iters=0
auto 2 inplace 8 0 303b2d27e7ec9ca6 swaps=4 rounds=2 euclid_iters=0
auto 2 inplace 22 0 dfe98f6a8f2f6991 swaps=11 rounds=4 euclid_iters=0
auto 3 lines 0 0 e3b0c44298fc1c14 swaps=0 rounds=2 euclid_iters=0
auto 3 lines 27 0 12fcd0b0bb0b67ae swaps=18 rounds=2 euclid_iters=0
auto 3 lines 33 0 0a101c48506a0513 swaps=23 rounds=2 euclid_iters=242
auto 3 copy 0 0 78ad0561023a3557 swaps=0 rounds=2 euclid_iters=0
auto 3 copy 27 0 080220b9f84179bf swaps=18 rounds=2 euclid_iters=0
auto 3 copy 33 0 82ed8fdb9d7bdd83 swaps=23 rounds=2 euclid_iters=242
auto 3 inplace 0 0 78ad0561023a3557 swaps=0 rounds=2 euclid_iters=0
auto 3 inplace 27 0 080220b9f84179bf swaps=18 rounds=2 euclid_iters=0
auto 3 inplace 33 0 82ed8fdb9d7bdd83 swaps=23 rounds=2 euclid_iters=242
auto 4 lines 0 0 e3b0c44298fc1c14 swaps=0 rounds=2 euclid_iters=0
auto 4 lines 64 0 777cb8d77a9c046d swaps=48 rounds=2 euclid_iters=0
auto 4 lines 44 0 3fc7aaa991e00501 swaps=40 rounds=2 euclid_iters=394
auto 4 copy 0 0 68a17c9ae0f1463e swaps=0 rounds=2 euclid_iters=0
auto 4 copy 64 0 d0df9bfefcc6cc70 swaps=48 rounds=2 euclid_iters=0
auto 4 copy 44 0 14973763115befaf swaps=40 rounds=2 euclid_iters=394
auto 4 inplace 0 0 68a17c9ae0f1463e swaps=0 rounds=2 euclid_iters=0
auto 4 inplace 64 0 d0df9bfefcc6cc70 swaps=48 rounds=2 euclid_iters=0
auto 4 inplace 44 0 14973763115befaf swaps=40 rounds=2 euclid_iters=394
auto 5 lines 0 0 e3b0c44298fc1c14 swaps=0 rounds=2 euclid_iters=0
auto 5 lines 125 0 706b067e8cda86f7 swaps=100 rounds=2 euclid_iters=0
auto 5 lines 55 0 7e75a0e1d89b3bf7 swaps=46 rounds=2 euclid_iters=440
auto 5 copy 0 0 e05c9cffabbed03f swaps=0 rounds=2 euclid_iters=0
auto 5 copy 125 0 d6d6dcaaa62b3350 swaps=100 rounds=2 euclid_iters=0
auto 5 copy 55 0 33dd8cfd2a9057c7 swaps=46 rounds=2 euclid_iters=440
auto 5 inplace 0 0 e05c9cffabbed03f swaps=0 rounds=2 euclid_iters=0
auto 5 inplace 125 0 d6d6dcaaa62b3350 swaps=100 rounds=2 euclid_iters=0
auto 5 inplace 55 0 33dd8cfd2a9057c7 swaps=46 rounds=2 euclid_iters=440
bitrev 2 lines 0 0 e3b0c44298fc1c14 swaps=0 rounds=2 euclid_iters=0
bitrev 2 lines 8 0 e8440a4b99c8ab0b swaps=4 rounds=2 euclid_iters=0
bitrev 2 lines 22 0 61d9c63910d78175 swaps=11 rounds=4 euclid_iters=0
bitrev 2 copy 0 0 efbeffdf324f2821 swaps=0 rounds=2 euclid_iters=0
bitrev 2 copy 8 0 303b2d27e7ec9ca6 swaps=4 rounds=2 euclid_iters=0
bitrev 2 copy 22 0 dfe98f6a8f2f6991 swaps=11 rounds=4 euclid_iters=0
bitrev 2 inplace 0 0 efbeffdf324f2821 swaps=0 rounds=2 euclid_iters=0
bitrev 2 inplace 8 0 303b2d27e7ec9ca6 swaps=4 rounds=2 euclid_iters=0
bitrev 2 inplace 22 0 dfe98f6a8f2f6991 swaps=11 rounds=4 euclid_iters=0
bitrev 3 lines 0 0 e3b0c44298fc1c14 swaps=0 rounds=2 euclid_iters=0
bitrev 3 lines 27 0 12fcd0b0bb0b67ae swaps=18 rounds=2 euclid_iters=0
bitrev 3 lines 33 3 - error: bitrev needs N = k**n, or k=2 with N even (N=33, k=3)
bitrev 3 copy 0 0 78ad0561023a3557 swaps=0 rounds=2 euclid_iters=0
bitrev 3 copy 27 0 080220b9f84179bf swaps=18 rounds=2 euclid_iters=0
bitrev 3 copy 33 3 - error: bitrev needs N = k**n, or k=2 with N even (N=33, k=3)
bitrev 3 inplace 0 0 78ad0561023a3557 swaps=0 rounds=2 euclid_iters=0
bitrev 3 inplace 27 0 080220b9f84179bf swaps=18 rounds=2 euclid_iters=0
bitrev 3 inplace 33 3 b98918f96f4ee969 error: bitrev needs N = k**n, or k=2 with N even (N=33, k=3)
bitrev 4 lines 0 0 e3b0c44298fc1c14 swaps=0 rounds=2 euclid_iters=0
bitrev 4 lines 64 0 777cb8d77a9c046d swaps=48 rounds=2 euclid_iters=0
bitrev 4 lines 44 3 - error: bitrev needs N = k**n, or k=2 with N even (N=44, k=4)
bitrev 4 copy 0 0 68a17c9ae0f1463e swaps=0 rounds=2 euclid_iters=0
bitrev 4 copy 64 0 d0df9bfefcc6cc70 swaps=48 rounds=2 euclid_iters=0
bitrev 4 copy 44 3 - error: bitrev needs N = k**n, or k=2 with N even (N=44, k=4)
bitrev 4 inplace 0 0 68a17c9ae0f1463e swaps=0 rounds=2 euclid_iters=0
bitrev 4 inplace 64 0 d0df9bfefcc6cc70 swaps=48 rounds=2 euclid_iters=0
bitrev 4 inplace 44 3 ea8d11dd49d72ae9 error: bitrev needs N = k**n, or k=2 with N even (N=44, k=4)
bitrev 5 lines 0 0 e3b0c44298fc1c14 swaps=0 rounds=2 euclid_iters=0
bitrev 5 lines 125 0 706b067e8cda86f7 swaps=100 rounds=2 euclid_iters=0
bitrev 5 lines 55 3 - error: bitrev needs N = k**n, or k=2 with N even (N=55, k=5)
bitrev 5 copy 0 0 e05c9cffabbed03f swaps=0 rounds=2 euclid_iters=0
bitrev 5 copy 125 0 d6d6dcaaa62b3350 swaps=100 rounds=2 euclid_iters=0
bitrev 5 copy 55 3 - error: bitrev needs N = k**n, or k=2 with N even (N=55, k=5)
bitrev 5 inplace 0 0 e05c9cffabbed03f swaps=0 rounds=2 euclid_iters=0
bitrev 5 inplace 125 0 d6d6dcaaa62b3350 swaps=100 rounds=2 euclid_iters=0
bitrev 5 inplace 55 3 5ee2ce41d836d800 error: bitrev needs N = k**n, or k=2 with N even (N=55, k=5)
modinv 2 lines 0 0 e3b0c44298fc1c14 swaps=0 rounds=2 euclid_iters=0
modinv 2 lines 8 0 e8440a4b99c8ab0b swaps=4 rounds=2 euclid_iters=38
modinv 2 lines 22 0 61d9c63910d78175 swaps=15 rounds=2 euclid_iters=140
modinv 2 copy 0 0 efbeffdf324f2821 swaps=0 rounds=2 euclid_iters=0
modinv 2 copy 8 0 303b2d27e7ec9ca6 swaps=4 rounds=2 euclid_iters=38
modinv 2 copy 22 0 dfe98f6a8f2f6991 swaps=15 rounds=2 euclid_iters=140
modinv 2 inplace 0 0 efbeffdf324f2821 swaps=0 rounds=2 euclid_iters=0
modinv 2 inplace 8 0 303b2d27e7ec9ca6 swaps=4 rounds=2 euclid_iters=38
modinv 2 inplace 22 0 dfe98f6a8f2f6991 swaps=15 rounds=2 euclid_iters=140
modinv 3 lines 0 0 e3b0c44298fc1c14 swaps=0 rounds=2 euclid_iters=0
modinv 3 lines 27 0 12fcd0b0bb0b67ae swaps=20 rounds=2 euclid_iters=196
modinv 3 lines 33 0 0a101c48506a0513 swaps=23 rounds=2 euclid_iters=242
modinv 3 copy 0 0 78ad0561023a3557 swaps=0 rounds=2 euclid_iters=0
modinv 3 copy 27 0 080220b9f84179bf swaps=20 rounds=2 euclid_iters=196
modinv 3 copy 33 0 82ed8fdb9d7bdd83 swaps=23 rounds=2 euclid_iters=242
modinv 3 inplace 0 0 78ad0561023a3557 swaps=0 rounds=2 euclid_iters=0
modinv 3 inplace 27 0 080220b9f84179bf swaps=20 rounds=2 euclid_iters=196
modinv 3 inplace 33 0 82ed8fdb9d7bdd83 swaps=23 rounds=2 euclid_iters=242
modinv 4 lines 0 0 e3b0c44298fc1c14 swaps=0 rounds=2 euclid_iters=0
modinv 4 lines 64 0 777cb8d77a9c046d swaps=48 rounds=2 euclid_iters=542
modinv 4 lines 44 0 3fc7aaa991e00501 swaps=40 rounds=2 euclid_iters=394
modinv 4 copy 0 0 68a17c9ae0f1463e swaps=0 rounds=2 euclid_iters=0
modinv 4 copy 64 0 d0df9bfefcc6cc70 swaps=48 rounds=2 euclid_iters=542
modinv 4 copy 44 0 14973763115befaf swaps=40 rounds=2 euclid_iters=394
modinv 4 inplace 0 0 68a17c9ae0f1463e swaps=0 rounds=2 euclid_iters=0
modinv 4 inplace 64 0 d0df9bfefcc6cc70 swaps=48 rounds=2 euclid_iters=542
modinv 4 inplace 44 0 14973763115befaf swaps=40 rounds=2 euclid_iters=394
modinv 5 lines 0 0 e3b0c44298fc1c14 swaps=0 rounds=2 euclid_iters=0
modinv 5 lines 125 0 706b067e8cda86f7 swaps=112 rounds=2 euclid_iters=1254
modinv 5 lines 55 0 7e75a0e1d89b3bf7 swaps=46 rounds=2 euclid_iters=440
modinv 5 copy 0 0 e05c9cffabbed03f swaps=0 rounds=2 euclid_iters=0
modinv 5 copy 125 0 d6d6dcaaa62b3350 swaps=112 rounds=2 euclid_iters=1254
modinv 5 copy 55 0 33dd8cfd2a9057c7 swaps=46 rounds=2 euclid_iters=440
modinv 5 inplace 0 0 e05c9cffabbed03f swaps=0 rounds=2 euclid_iters=0
modinv 5 inplace 125 0 d6d6dcaaa62b3350 swaps=112 rounds=2 euclid_iters=1254
modinv 5 inplace 55 0 33dd8cfd2a9057c7 swaps=46 rounds=2 euclid_iters=440
oracle 2 lines 0 0 e3b0c44298fc1c14 swaps=0 rounds=0 euclid_iters=0
oracle 2 lines 8 0 e8440a4b99c8ab0b swaps=0 rounds=0 euclid_iters=0
oracle 2 lines 22 0 61d9c63910d78175 swaps=0 rounds=0 euclid_iters=0
oracle 2 copy 0 0 efbeffdf324f2821 swaps=0 rounds=0 euclid_iters=0
oracle 2 copy 8 0 303b2d27e7ec9ca6 swaps=0 rounds=0 euclid_iters=0
oracle 2 copy 22 0 dfe98f6a8f2f6991 swaps=0 rounds=0 euclid_iters=0
oracle 2 inplace 0 0 efbeffdf324f2821 swaps=0 rounds=0 euclid_iters=0
oracle 2 inplace 8 0 303b2d27e7ec9ca6 swaps=0 rounds=0 euclid_iters=0
oracle 2 inplace 22 0 dfe98f6a8f2f6991 swaps=0 rounds=0 euclid_iters=0
oracle 3 lines 0 0 e3b0c44298fc1c14 swaps=0 rounds=0 euclid_iters=0
oracle 3 lines 27 0 12fcd0b0bb0b67ae swaps=0 rounds=0 euclid_iters=0
oracle 3 lines 33 0 0a101c48506a0513 swaps=0 rounds=0 euclid_iters=0
oracle 3 copy 0 0 78ad0561023a3557 swaps=0 rounds=0 euclid_iters=0
oracle 3 copy 27 0 080220b9f84179bf swaps=0 rounds=0 euclid_iters=0
oracle 3 copy 33 0 82ed8fdb9d7bdd83 swaps=0 rounds=0 euclid_iters=0
oracle 3 inplace 0 0 78ad0561023a3557 swaps=0 rounds=0 euclid_iters=0
oracle 3 inplace 27 0 080220b9f84179bf swaps=0 rounds=0 euclid_iters=0
oracle 3 inplace 33 0 82ed8fdb9d7bdd83 swaps=0 rounds=0 euclid_iters=0
oracle 4 lines 0 0 e3b0c44298fc1c14 swaps=0 rounds=0 euclid_iters=0
oracle 4 lines 64 0 777cb8d77a9c046d swaps=0 rounds=0 euclid_iters=0
oracle 4 lines 44 0 3fc7aaa991e00501 swaps=0 rounds=0 euclid_iters=0
oracle 4 copy 0 0 68a17c9ae0f1463e swaps=0 rounds=0 euclid_iters=0
oracle 4 copy 64 0 d0df9bfefcc6cc70 swaps=0 rounds=0 euclid_iters=0
oracle 4 copy 44 0 14973763115befaf swaps=0 rounds=0 euclid_iters=0
oracle 4 inplace 0 0 68a17c9ae0f1463e swaps=0 rounds=0 euclid_iters=0
oracle 4 inplace 64 0 d0df9bfefcc6cc70 swaps=0 rounds=0 euclid_iters=0
oracle 4 inplace 44 0 14973763115befaf swaps=0 rounds=0 euclid_iters=0
oracle 5 lines 0 0 e3b0c44298fc1c14 swaps=0 rounds=0 euclid_iters=0
oracle 5 lines 125 0 706b067e8cda86f7 swaps=0 rounds=0 euclid_iters=0
oracle 5 lines 55 0 7e75a0e1d89b3bf7 swaps=0 rounds=0 euclid_iters=0
oracle 5 copy 0 0 e05c9cffabbed03f swaps=0 rounds=0 euclid_iters=0
oracle 5 copy 125 0 d6d6dcaaa62b3350 swaps=0 rounds=0 euclid_iters=0
oracle 5 copy 55 0 33dd8cfd2a9057c7 swaps=0 rounds=0 euclid_iters=0
oracle 5 inplace 0 0 e05c9cffabbed03f swaps=0 rounds=0 euclid_iters=0
oracle 5 inplace 125 0 d6d6dcaaa62b3350 swaps=0 rounds=0 euclid_iters=0
oracle 5 inplace 55 0 33dd8cfd2a9057c7 swaps=0 rounds=0 euclid_iters=0
"""


def _ndarrays_only(swap_chunks):
    """swap_chunks, refusing any container but an ndarray."""
    def guarded(array, chunks):
        if not isinstance(array, np.ndarray):
            raise AssertionError("a round ran on a %s" % type(array).__name__)
        return swap_chunks(array, chunks)
    return guarded


@pytest.mark.parametrize("k, N, method", [
    (2, 2 ** 10, "auto"),   # digit reversal
    (2, 2 * 1001, "auto"),  # rotations, then power-of-two blocks; M odd
    (3, 27, "bitrev"),
    (3, 3 * 401, "auto"),
    (3, 3 * 401, "modinv"),
    (3, 3 * 401, "oracle"),
])
def test_lines_take_the_ndarray_routes(k, N, method, capsys, monkeypatch):
    # the swap rounds look swap_chunks, the one round executor, up in their own modules
    for module in (importlib.import_module("shuffleworks.shuffle_modinv"), shuffle_bitrev):
        monkeypatch.setattr(module, "swap_chunks", _ndarrays_only(module.swap_chunks))
    tokens = ["t%d" % i for i in range(N)]
    code, out, err = run_cli(
        ["shuffle", "--lines", "--k", str(k), "--method", method],
        capsys, stdin=" ".join(tokens), monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    assert out == " ".join(oracle_shuffle(tokens, k)) + "\n"


# Every character str.split splits on.
SEPARATORS = ("\t\n\v\f\r\x1c\x1d\x1e\x1f \x85\xa0\u1680" + "".join(map(chr, range(0x2000, 0x200b)))
              + "\u2028\u2029\u202f\u205f\u3000")


def _dense_text():
    """Tokens numpy would read as numbers, booleans, lists or None if it were asked to
    guess their type, between runs of one to three of every separator in turn."""
    words = ["nan", "1e5", "True", "[0]", "None", "-0", "inf", "0x1f", "b''", "()"]
    tokens = [words[i % len(words)] + ("" if i < len(words) else str(i)) for i in range(6 * len(SEPARATORS))]
    text = SEPARATORS[-1] + "".join(t + SEPARATORS[i % len(SEPARATORS)] * (1 + i % 3) for i, t in enumerate(tokens))
    assert text.split() == tokens
    return text


@pytest.mark.parametrize("k", [2, 3])
def test_lines_split_on_every_whitespace_and_keep_tokens_as_text(k, capsys, monkeypatch):
    assert set(SEPARATORS) == {c for c in map(chr, range(0x110000)) if c.isspace()}
    text = _dense_text()
    code, out, _ = run_cli(["shuffle", "--k", str(k)], capsys, stdin=text, monkeypatch=monkeypatch)
    assert code == 0
    assert out == " ".join(oracle_shuffle(text.split(), k)) + "\n"
    code, out, _ = run_cli(["shuffle", "--k", str(k)], capsys, stdin=SEPARATORS, monkeypatch=monkeypatch)
    assert (code, out) == (0, "")


@pytest.mark.parametrize("k", [2, 3])
def test_lines_split_a_mapped_file_on_every_whitespace_across_step_ends(k, tmp_path, capsys, monkeypatch):
    # The dense text, then each separator of two or three UTF-8 bytes once
    # for each of its bytes, placed so that a split step's end, _CODE_CHUNK
    # bytes past the step's start, falls just before that byte.  The next
    # step starts at the separator, whether the end fell there or backed off.
    monkeypatch.setattr(locale, "getpreferredencoding", lambda do_setlocale=True: "utf-8")
    step, dense = cli._CODE_CHUNK, _dense_text()
    filler = (dense * (step // len(dense) + 2)).encode()
    blob, lo, placed = bytearray(dense.encode()), 0, []
    for sep in (c.encode() for c in SEPARATORS if c > "\x7f"):
        for j in range(len(sep)):
            at = lo + step - j  # where sep starts, so that the step ends before its byte j
            blob += filler[:at - len(blob) - 1].decode("utf-8", "ignore").encode()  # whole characters
            blob += b"x" * (at - len(blob)) + sep
            placed.append((at, sep))
            lo = at
    assert len(placed) == 2 * 2 + 17 * 3
    assert all(blob[at:at + len(sep)] == sep for at, sep in placed)
    text = blob.decode("utf-8")
    text += " t" * (-len(text.split()) % 6)
    src = tmp_path / "in.txt"
    src.write_bytes(text.encode("utf-8"))
    assert _lines_to_stdout(src, capsys, k) == " ".join(oracle_shuffle(text.split(), k)) + "\n"


def test_lines_split_only_on_separators_among_characters_sharing_their_lead_bytes(tmp_path, capsys, monkeypatch):
    # every character UTF-8 writes with a lead byte C2, E1, E2 or E3, each inside a token of its own
    monkeypatch.setattr(locale, "getpreferredencoding", lambda do_setlocale=True: "utf-8")
    text = " ".join("a%sb" % chr(c) for c in [*range(0x80, 0xC0), *range(0x1000, 0x4000)])
    text += " t" * (len(text.split()) % 2)
    assert {0xC2, 0xE1, 0xE2, 0xE3} <= set(text.encode())
    src = tmp_path / "in.txt"
    src.write_bytes(text.encode("utf-8"))
    expected = " ".join(oracle_shuffle(text.split(), 2)) + "\n"
    assert _lines_to_stdout(src, capsys) == expected
    assert run_cli(["shuffle"], capsys, stdin=text, monkeypatch=monkeypatch) == (0, expected, "")


def test_lines_split_on_three_byte_separators_right_next_to_quotes(tmp_path, capsys, monkeypatch):
    # typographic quotes (E2 80 98 to 9F) and characters that share a separator's lead, second or last byte
    # (U+1000, U+1681, U+200B, U+2040, U+205E, U+3001), on both sides of every three-byte separator
    monkeypatch.setattr(locale, "getpreferredencoding", lambda do_setlocale=True: "utf-8")
    neighbours = [*map(chr, range(0x2018, 0x2020)), "\u1000", "\u1681", "\u200b", "\u2040", "\u205e", "\u3001"]
    seps = [c for c in SEPARATORS if len(c.encode()) == 3]
    assert len(seps) == 17
    text = "".join(a + sep + b for sep in seps for a in neighbours for b in neighbours)
    text += " t" * (len(text.split()) % 2)
    assert len(text.split()) == 17 * 14 * 14 + 2
    src = tmp_path / "in.txt"
    src.write_bytes(text.encode("utf-8"))
    expected = " ".join(oracle_shuffle(text.split(), 2)) + "\n"
    assert _lines_to_stdout(src, capsys) == expected
    assert run_cli(["shuffle"], capsys, stdin=text, monkeypatch=monkeypatch) == (0, expected, "")


@pytest.mark.parametrize("argv", [["IN", "-o", "OUT"], ["--in-place", "IN"]], ids=["copy", "in_place"])
def test_lines_output_step_never_holds_the_joined_text(tmp_path, capsys, monkeypatch, argv):
    # the peak from the end of the shuffle to the end of the run, above what
    # is held when the shuffle ends (the words, 4 bytes a token): what writing
    # the tokens out costs, the gather's index, ramp and buffers, written as
    # they are
    real, held = cli._check, []

    def check_then_reset_peak_after_the_run(*args):
        run = real(*args)

        def run_then_reset_peak(array):
            counter = run(array)
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return counter
        return run_then_reset_peak

    monkeypatch.setattr(cli, "_check", check_then_reset_peak_after_the_run)
    src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
    paths = {"IN": str(src), "OUT": str(dst)}
    for N in (2 ** 17, 2 ** 19):
        text = " ".join("w%07d" % i for i in range(N))
        src.write_text(text)
        gc.collect()
        tracemalloc.start()
        try:
            code = main(["shuffle", "--k", "2", *(paths.get(a, a) for a in argv)])
            scratch = tracemalloc.get_traced_memory()[1] - held[-1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert (dst if "OUT" in argv else src).read_text() == " ".join(oracle_shuffle(text.split(), 2)) + "\n"
        # the joined text is 1.1 MiB at 2**17 tokens and 4.5 MiB at 2**19
        assert scratch < 0.75 * (1 << 20), (N, scratch)


@pytest.mark.parametrize("runs", [[(20000, 98)], [(3001, 1), (301, 200), (5000, 1), (1, 200), (97, 200)]],
                         ids=["98_bytes", "runs_of_1_and_200_bytes"])
def test_lines_gather_of_long_and_mixed_tokens_keeps_every_byte(runs, tmp_path, capsys):
    # a gather step takes _TOKEN_CHUNK tokens while they fit its buffer;
    # long tokens fill the buffer first, and runs of 1- and 200-byte
    # tokens cross steps of either kind
    tokens = [("%0*d" % (size, i))[-size:] for count, size in runs for i in range(count)]
    assert len(tokens) % 2 == 0
    src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_text(" ".join(tokens) + "\n")
    assert run_cli(["shuffle", "--k", "2", str(src), "-o", str(dst)], capsys) == (0, "", "")
    assert dst.read_bytes() == (" ".join(oracle_shuffle(tokens, 2)) + "\n").encode()


def test_lines_pass_undecodable_stdin_bytes_through(monkeypatch):
    # a stream decoding with surrogateescape turns b"\xff" into "\udcff";
    # the bytes expected are what the str-token route printed
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"a\xff b c d"), "utf-8", "surrogateescape"))
    sink, err = io.BytesIO(), io.StringIO()
    monkeypatch.setattr("sys.stdout", io.TextIOWrapper(sink, "utf-8", "surrogateescape", write_through=True))
    monkeypatch.setattr("sys.stderr", err)
    assert main(["shuffle"]) == 0
    assert sink.getvalue() == b"a\xff c b d\n"
    assert err.getvalue() == ""


def test_lines_output_file_gets_the_bytes_stdout_gets(tmp_path, monkeypatch):
    # the lone surrogate a surrogateescape stdin makes of b"\xff" goes out as that byte, to a file as to stdout;
    # OUT is truncated before the first token is encoded, so a refusal would have lost its old contents
    dst = tmp_path / "out.txt"
    dst.write_bytes(b"old contents")
    sink = io.BytesIO()
    monkeypatch.setattr("sys.stdout", io.TextIOWrapper(sink, "utf-8", "surrogateescape", write_through=True))
    for argv in (["shuffle"], ["shuffle", "-o", str(dst)]):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"a\xff b c d"), "utf-8", "surrogateescape"))
        assert main(argv) == 0, argv
    assert dst.read_bytes() == sink.getvalue() == b"a\xff c b d\n"


@pytest.mark.parametrize("encoding", ["utf-8", "latin-1", "utf-16"])
def test_lines_mapped_text_goes_out_in_stdout_s_encoding(tmp_path, monkeypatch, encoding):
    # a mapped file's bytes go out as they are only to a UTF-8 stdout; any other stdout encodes the tokens
    monkeypatch.setattr(locale, "getpreferredencoding", lambda do_setlocale=True: "utf-8")
    text = "caf\u00e9 na\u00efve \u00e0 b"
    src = tmp_path / "in.txt"
    src.write_bytes(text.encode())
    sink = io.BytesIO()
    monkeypatch.setattr("sys.stdout", io.TextIOWrapper(sink, encoding))
    sys.stdout.write("head ")  # held in the text stream, and still written before the tokens
    assert main(["shuffle", str(src)]) == 0
    sys.stdout.flush()
    assert sink.getvalue() == ("head " + " ".join(oracle_shuffle(text.split(), 2)) + "\n").encode(encoding)


def test_lines_in_place_scratch_is_the_text_and_16_bytes_a_token(tmp_path, capsys):
    # one str per token cost about 57 B each, and a second copy of the
    # (start, end) offsets would cost 16 B more
    src = tmp_path / "in.txt"
    for N in (2 ** 17, 2 ** 19):
        text = " ".join("w%07d" % i for i in range(N))
        src.write_text(text)
        gc.collect()
        tracemalloc.start()
        try:
            code = main(["shuffle", "--in-place", str(src)])
            scratch = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert src.read_text() == " ".join(oracle_shuffle(text.split(), 2)) + "\n"
        assert scratch < len(text) + 16 * N + (2 << 20), (N, scratch, len(text) + 16 * N)


def _scratch_of_in_place(src, text):
    """The traced peak of one --in-place run on text written to src, checked against the oracle."""
    src.write_text(text)
    gc.collect()
    tracemalloc.start()
    try:
        code = main(["shuffle", "--in-place", str(src)])
        scratch = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert src.read_text() == " ".join(oracle_shuffle(text.split(), 2)) + "\n"
    return scratch


def test_lines_mapped_in_place_scratch_is_4_bytes_a_token(tmp_path):
    # a UTF-8 file is mapped as its own bytes, so the scratch is the uint32
    # words, whatever the characters' widths, and one output step (its
    # index and ramp, 256 KiB): peak - 4N read 0.46-0.47 MiB at both sizes
    for fmt in ("w%07d", "\u00e9%07d", "\u4e2d%07d", "\U0001f600%07d"):
        for N in (2 ** 17, 2 ** 19):
            scratch = _scratch_of_in_place(tmp_path / "in.txt", " ".join(fmt % i for i in range(N)))
            assert scratch < 4 * N + 0.6 * (1 << 20), (fmt, N, scratch, 4 * N)


def test_lines_split_scratch_of_one_byte_tokens_is_under_three_quarters_of_a_mib(tmp_path, monkeypatch):
    # every other byte starts or ends a token, so a 64 KiB step finds 64 Ki
    # edges: 512 KiB as int64 offsets, held once at a time
    monkeypatch.setattr(locale, "getpreferredencoding", lambda do_setlocale=True: "utf-8")
    src = tmp_path / "in.txt"
    src.write_text(" ".join("abcdefghij"[i % 10] for i in range(2 ** 20)))
    gc.collect()
    tracemalloc.start()
    try:
        codes, words, _ = cli._read_tokens(str(src))
        scratch = tracemalloc.get_traced_memory()[1] - words.nbytes
    finally:
        tracemalloc.stop()
    starts, lengths = _unpack(codes, words[:1])
    assert len(words) == 2 ** 20 and bytes(codes[starts[0]:starts[0] + lengths[0]]) == b"a"
    assert scratch < 0.75 * (1 << 20), scratch


def _text_with_a_long_token(total, size, before=0):
    """total bytes of ASCII tokens: before 7-byte ones, one of size bytes, and then 7-byte ones, the last
    stretched to make up the total, with an even number of tokens in all."""
    head = "".join("%07d " % i for i in range(before)) + "L" * size + " "
    rest = total - len(head)
    m = (rest + 1) // 8
    m -= (before + 1 + m) % 2
    text = head + " ".join("%07d" % i for i in range(m)) + "p" * (rest - (8 * m - 1))
    assert len(text) == total and len(text.split()) % 2 == 0 and max(map(len, text.split())) == max(size, 7)
    return text


@pytest.mark.parametrize("before", [0, 8190], ids=["inside_a_step", "across_a_step_end"])
@pytest.mark.parametrize("size, word", [(4095, np.uint32), (4096, np.uint64)], ids=["4095", "4096"])
def test_lines_word_edge_a_token_of_2_to_the_12_bytes_beside_20_bits_of_start(tmp_path, capsys, monkeypatch,
                                                                             size, word, before):
    # 1 012 988 bytes take 20 bits of start, which leave 12 of length in a
    # uint32: a token of 4095 bytes fits one, and one of 4096 makes every word
    # a uint64; 8190 tokens in, the long token runs past a split step's end
    monkeypatch.setattr(locale, "getpreferredencoding", lambda do_setlocale=True: "utf-8")
    text = _text_with_a_long_token(1_012_988, size, before)
    assert (len(text) - 1).bit_length() == 20
    src = tmp_path / "in.txt"
    src.write_text(text)
    assert cli._read_tokens(str(src))[1].dtype == word
    expected = " ".join(oracle_shuffle(text.split(), 2)) + "\n"
    assert _lines_to_stdout(src, capsys) == expected
    assert run_cli(["shuffle"], capsys, stdin=text, monkeypatch=monkeypatch) == (0, expected, "")
    assert run_cli(["shuffle", "--in-place", str(src)], capsys) == (0, "", "")
    assert src.read_text() == expected


@pytest.mark.parametrize("argv", [["--in-place", "IN"], ["IN", "-o", "OUT"], ["-"]], ids=["in_place", "copy", "stdin"])
def test_lines_token_too_long_for_every_word_exits_2_and_leaves_in_whole(tmp_path, capsys, monkeypatch, argv):
    # with words of at most 16 bits, 1000 bytes of text take 10 bits of
    # start and leave 6 of length: a uint8 has no room, a 63-byte token fits
    # a uint16 and a 64-byte one fits nothing
    monkeypatch.setattr(cli, "_WORDS", (np.uint8, np.uint16))
    monkeypatch.setattr(locale, "getpreferredencoding", lambda do_setlocale=True: "utf-8")
    src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
    paths = {"IN": str(src), "OUT": str(dst)}
    for size in (63, 64):
        text = _text_with_a_long_token(1000, size, before=20)
        src.write_text(text)
        if argv != ["-"]:
            assert (cli._read_tokens(str(src))[1].dtype if size == 63 else None) in (np.uint16, None)
        stdin = text if argv == ["-"] else None
        code, out, err = run_cli(["shuffle", *(paths.get(a, a) for a in argv)], capsys, stdin=stdin,
                                 monkeypatch=monkeypatch)
        expected = " ".join(oracle_shuffle(text.split(), 2)) + "\n"
        if size == 63:
            assert (code, err) == (0, "")
            assert {"-": out, "OUT": dst.read_text() if dst.exists() else None}.get(argv[-1], src.read_text()) == expected
            dst.unlink(missing_ok=True)
        else:
            assert (code, out) == (2, "")
            assert err == "error: a token is too long: in 1000 bytes of text, one of 64 bytes or more cannot be held\n"
            assert src.read_text() == text and os.listdir(tmp_path) == ["in.txt"]


def _unpack(codes, words):
    """The starts and lengths, as Python ints, of the tokens that _read_tokens packed into words."""
    shift = 8 * words.itemsize - (len(codes) - 1).bit_length()
    return [int(w) >> shift for w in words], [int(w) & ((1 << shift) - 1) for w in words]


def _lines_to_stdout(path, capsys, k=2):
    code, out, err = run_cli(["shuffle", "--k", str(k), str(path)], capsys)
    assert (code, err) == (0, "")
    return out


def test_lines_mapped_crlf_and_lone_cr_separate_tokens(tmp_path, capsys):
    # the mapped bytes keep the \r that a text stream turns into \n
    text = "a b\r\nc\rd\r\r\ne\tf\r\n\rg h\r"
    src = tmp_path / "crlf.txt"
    src.write_bytes(text.encode("ascii"))
    assert _lines_to_stdout(src, capsys) == " ".join(oracle_shuffle(text.split(), 2)) + "\n"
    assert run_cli(["shuffle", "--in-place", str(src)], capsys) == (0, "", "")
    assert src.read_text() == " ".join(oracle_shuffle(text.split(), 2)) + "\n"


@pytest.mark.parametrize("at", [0, 1], ids=["last_byte_checked_first", "first_byte_checked_second"])
def test_lines_non_ascii_byte_past_the_first_check_step_is_decoded(tmp_path, capsys, at):
    step = cli._CODE_CHUNK
    words = ["w%06d" % i for i in range(step // 7 + 2)]
    text = " ".join(words)
    cut = step - 1 + at  # where the \u00e9 starts: its first UTF-8 byte is >= 0x80
    text = text[:cut] + "\u00e9" + text[cut:]
    src = tmp_path / "in.txt"
    src.write_bytes(text.encode("utf-8"))
    assert src.read_bytes().index(b"\xc3") == cut
    assert _lines_to_stdout(src, capsys) == " ".join(oracle_shuffle(text.split(), 2)) + "\n"


# Files that are not UTF-8, each wrong past the first bytes of the first 16-byte chunk.
INVALID_UTF8 = {
    "stray_ff_in_a_later_chunk": "\u00e9 a b c ".encode() * 4 + b"\xff x y",
    "cut_off_at_eof": b"a b c d " * 3 + "\u4e2d".encode()[:2],
    "encoded_surrogate": b"a b c d " * 3 + b"\xed\xa0\x80 e f",
    "lead_byte_before_an_ascii_chunk": b"a b c d e f g h" + b"\xc3" + b" i j k l m n o p",
}


@pytest.mark.parametrize("argv", [["--in-place", "IN"], ["IN", "-o", "OUT"]], ids=["in_place", "copy"])
@pytest.mark.parametrize("case", sorted(INVALID_UTF8))
def test_lines_invalid_utf8_file_exits_2_naming_the_offset_and_leaves_in_whole(tmp_path, capsys, monkeypatch,
                                                                                argv, case):
    monkeypatch.setattr(cli, "_CODE_CHUNK", 16)
    monkeypatch.setattr(locale, "getpreferredencoding", lambda do_setlocale=True: "utf-8")
    blob = INVALID_UTF8[case]
    with pytest.raises(UnicodeDecodeError) as exc:
        blob.decode("utf-8")
    offset = exc.value.start
    assert offset >= 15, case  # past the first chunk's first bytes
    src = tmp_path / "in.txt"
    src.write_bytes(blob)
    paths = {"IN": str(src), "OUT": str(tmp_path / "out.txt")}
    code, out, err = run_cli(["shuffle", *(paths.get(a, a) for a in argv)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and re.search(r"\b%d\b" % offset, err), (offset, err)
    assert src.read_bytes() == blob
    assert os.listdir(tmp_path) == ["in.txt"]


def test_lines_invalid_utf8_run_of_continuation_bytes_across_a_step_end_is_named_where_it_is(tmp_path, capsys,
                                                                                             monkeypatch):
    # a four-byte character, then a stray continuation byte on which a
    # 16-byte step ends: backing off three bytes would cut the character
    # and blame its lead byte, 4 bytes early
    monkeypatch.setattr(cli, "_CODE_CHUNK", 16)
    monkeypatch.setattr(locale, "getpreferredencoding", lambda do_setlocale=True: "utf-8")
    blob = b"abc def ghi " + "\U0001f600".encode() + b"\x80 x y"
    with pytest.raises(UnicodeDecodeError) as exc:
        blob.decode("utf-8")
    assert exc.value.start == 16
    src = tmp_path / "in.txt"
    src.write_bytes(blob)
    code, out, err = run_cli(["shuffle", "--in-place", str(src)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: invalid UTF-8 at byte 16: invalid start byte\n"
    assert src.read_bytes() == blob


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_lines_from_a_named_pipe(tmp_path, capsys):
    # a FIFO can be read only once, so it is decoded from the handle that was opened
    fifo, text = tmp_path / "in.fifo", "a b c d e f\n1 2 3 4 5 6"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "w") as out:
            out.write(text)

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    try:
        assert _lines_to_stdout(fifo, capsys) == " ".join(oracle_shuffle(text.split(), 2)) + "\n"
    finally:
        feeder.join(timeout=60)
    assert not feeder.is_alive()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("argv", [["--in-place", "IN"], ["IN", "-o", "IN"]], ids=["in_place", "output_is_input"])
def test_lines_onto_a_named_pipe_are_refused_before_it_is_read(tmp_path, capsys, argv):
    # tokens onto IN go into a new file renamed over it, which would leave a regular file where the pipe was
    fifo = tmp_path / "in.fifo"
    os.mkfifo(fifo)

    def feed():  # a run that reads the pipe gets its text rather than waiting for a writer
        with open(fifo, "w") as out:
            out.write("a b c d")

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    try:
        code, out, err = run_cli(["shuffle", *(str(fifo) if a == "IN" else a for a in argv)], capsys)
    finally:
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # lets a feeder still waiting for a reader write
        feeder.join(timeout=60)
        os.close(reader)
    assert not feeder.is_alive()
    assert (code, out) == (2, "")
    assert err == "error: %s is not a regular file, so tokens cannot be written onto it\n" % fifo
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_lines_in_an_encoding_that_is_not_ascii_compatible_are_decoded(tmp_path, capsys, monkeypatch):
    # UTF-7 writes \u00e9 as the ASCII bytes "+AOk-", which the mapped route would take as they are
    text = "\u00e9t\u00e9 a b c na\u00efve +x 1+ 2"
    src = tmp_path / "in.txt"
    src.write_bytes(text.encode("utf-7"))
    assert max(src.read_bytes()) < 0x80
    monkeypatch.setattr(locale, "getpreferredencoding", lambda do_setlocale=True: "utf-7")
    assert _lines_to_stdout(src, capsys) == " ".join(oracle_shuffle(text.split(), 2)) + "\n"
