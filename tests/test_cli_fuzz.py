"""CLI fuzz: malformed record containers and flag combinations never crash,
and lines mode splits and shuffles any text as str.split and the oracle do.

Every run must end in one of the documented exit codes for a shuffle
(0 success, 2 unparsable input, 3 arity mismatch, 4 overflow) and print no
traceback, whatever the header, the body length and the flags.
"""

import contextlib
import io
import locale
import os
import struct
import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from shuffleworks import cli
from shuffleworks.cli import main
from shuffleworks.oracle import oracle_shuffle
from shuffleworks.recordfile import MAGIC, VERSION
from test_cli import SEPARATORS, _unpack


def mostly(valid, bad):
    """valid three times in four, so that whole valid containers come up too."""
    return st.integers(0, 3).flatmap(lambda i: st.just(valid) if i else bad)


headers = st.fixed_dictionaries({
    "magic": mostly(MAGIC, st.sampled_from([b"IVSX", b"\0\0\0\0"])),
    "version": mostly(VERSION, st.sampled_from([0, 2, 255])),
    "n": st.integers(0, 40),
    "count": mostly(None, st.sampled_from([0, 1, 41, 2 ** 32, 2 ** 64 - 1])),
    "k": st.integers(0, 6),
    "size": st.integers(0, 17),
    "delta": mostly(0, st.integers(-3, 3)),
})

flags = st.fixed_dictionaries({
    "records": st.booleans(),
    "in_place": st.booleans(),
    "method": st.sampled_from(["auto", "bitrev", "modinv", "oracle"]),
    "k": mostly(None, st.integers(-1, 6)),
    "stats": st.booleans(),
    "source": mostly("file", st.just("stdin")),
    "output": mostly(None, st.sampled_from(["-", "file"])),
})


def container(h) -> bytes:
    """A header as drawn (count defaults to the true record count) and a
    body of n records cut or extended by delta bytes."""
    count = h["n"] if h["count"] is None else h["count"]
    head = struct.pack("<4sBQII", h["magic"], h["version"], count, h["k"], h["size"])
    body = bytes(i % 251 for i in range(max(0, h["n"] * h["size"] + h["delta"])))
    return head + body


@settings(max_examples=300, deadline=None)
@given(h=headers, f=flags)
def test_cli_survives_malformed_containers_and_flag_mixes(h, f):
    blob = container(h)
    with tempfile.TemporaryDirectory() as tmp:
        src, dst = os.path.join(tmp, "in"), os.path.join(tmp, "out")
        with open(src, "wb") as fh:
            fh.write(blob)
        argv = ["shuffle", "--method", f["method"]]
        argv += ["--records"] if f["records"] else []
        argv += ["--in-place"] if f["in_place"] else []
        argv += ["--stats"] if f["stats"] else []
        argv += [] if f["k"] is None else ["--k", str(f["k"])]
        argv += [src] if f["source"] == "file" else []
        argv += [] if f["output"] is None else ["-o", dst if f["output"] == "file" else "-"]
        stdin = io.TextIOWrapper(io.BytesIO(blob))
        stdout, stderr = io.TextIOWrapper(io.BytesIO()), io.StringIO()
        with mock.patch("sys.stdin", stdin), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(argv)
    assert code in (0, 2, 3, 4), (argv, code, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()


# Characters that are not whitespace but share a lead byte or a neighbouring
# code point with a separator.
NEAR_MISSES = "\x84\x86\xa1\u1679\u1681\u180e\u200b\u2027\u202a\u2030\u205e\u2060\u3001\ufeff"

# ASCII, Latin-1, the rest of the BMP, astral planes, every separator and
# its near misses: lines mode holds any text as its UTF-8 bytes, one to four
# a character.
text_chars = st.one_of(
    st.characters(max_codepoint=0x7f),
    st.characters(min_codepoint=0x80, max_codepoint=0xff),
    st.characters(min_codepoint=0x100, max_codepoint=0xffff),
    st.characters(min_codepoint=0x10000),
    st.sampled_from(SEPARATORS),
    st.sampled_from(NEAR_MISSES),
)


@settings(max_examples=300, deadline=None)
@given(text=st.text(text_chars, max_size=60), k=st.integers(2, 4),
       method=st.sampled_from(["auto", "modinv", "oracle"]), small_chunks=st.booleans())
def test_lines_shuffle_any_text_as_the_oracle_does(text, k, method, small_chunks):
    # small chunks put chunk edges inside tokens, characters and separators,
    # and make tokens longer than the output buffer
    assert not any(c.isspace() for c in NEAR_MISSES)
    tokens = text.split()
    surrogates = any("\ud800" <= c <= "\udfff" for c in text)  # no valid UTF-8 file holds one
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "in.txt")
        with open(src, "wb") as fh:
            fh.write(text.encode("utf-8", "surrogatepass"))
        # stdin is decoded, and a non-empty regular file is mapped as its own bytes
        for source in ([], [src]):
            chunks = mock.patch.multiple(cli, _CODE_CHUNK=8, _TOKEN_CHUNK=3) if small_chunks else contextlib.nullcontext()
            utf8 = mock.patch.object(locale, "getpreferredencoding", lambda do_setlocale=True: "utf-8")
            stdout, stderr = io.StringIO(), io.StringIO()
            with chunks, utf8, mock.patch("sys.stdin", io.StringIO(text)), contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = main(["shuffle", "--k", str(k), "--method", method, *source])
            if source and surrogates:
                assert (code, stdout.getvalue()) == (2, ""), stderr.getvalue()
                assert "invalid UTF-8 at byte" in stderr.getvalue()
            elif len(tokens) % k:
                assert (code, stdout.getvalue()) == (3, ""), (source, stderr.getvalue())
            else:
                assert (code, stderr.getvalue()) == (0, ""), source
                assert stdout.getvalue() == (" ".join(oracle_shuffle(tokens, k)) + "\n" if tokens else ""), source


# Texts of short tokens of any characters, every separator and long ASCII
# tokens, none a lone surrogate, so that a file of them is valid UTF-8.
word_texts = st.lists(st.one_of(
    st.text(text_chars.filter(lambda c: not "\ud800" <= c <= "\udfff"), max_size=12),
    st.integers(16, 300).map(lambda n: "L" * n),
), max_size=8).map("".join)


@settings(max_examples=200, deadline=None)
@given(text=word_texts, chunk=st.sampled_from([4, 8, 64]),
       words=st.sampled_from([cli._WORDS, (np.uint8, np.uint16, np.uint32, np.uint64)]))
def test_lines_words_unpack_to_the_tokens_of_str_split(text, chunk, words):
    # a word holds start << b | length, b being what the text's offsets
    # leave of the narrowest type every token fits: the narrow types make
    # long tokens (and texts past 127 bytes) climb from uint8 to uint64
    tokens = [t.encode() for t in text.split()]
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "in.txt")
        with open(src, "wb") as fh:
            fh.write(text.encode())
        utf8 = mock.patch.object(locale, "getpreferredencoding", lambda do_setlocale=True: "utf-8")
        with utf8, mock.patch.multiple(cli, _CODE_CHUNK=chunk, _WORDS=words), mock.patch("sys.stdin", io.StringIO(text)):
            for source in (src, None):  # a mapped file, unless it is empty, and stdin
                codes, packed, checked = cli._read_tokens(source)
                assert checked == (source is not None and len(text) > 0)
                bits = (len(codes) - 1).bit_length()
                fits = [w for w in words if 8 * np.dtype(w).itemsize > bits and
                        max(map(len, tokens), default=0) >> (8 * np.dtype(w).itemsize - bits) == 0]
                assert packed.dtype == fits[0]
                starts, lengths = _unpack(codes, packed)
                assert [bytes(codes[a:a + n]) for a, n in zip(starts, lengths)] == tokens
                gathered = b"".join(bytes(b) for b in cli._token_text(codes, packed))
                assert gathered == (b" ".join(tokens) + b"\n" if tokens else b"")
