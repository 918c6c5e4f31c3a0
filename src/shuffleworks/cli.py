"""Command line front end.

Subcommands: shuffle, factor, network, profile, selftest.  Data goes to
stdout, diagnostics to stderr.  Exit codes are part of the interface:
0 success, 1 selftest failure, 2 unparsable input (k below 2, a file that
cannot be read or written, a token too long to pack, or no memory left),
3 arity mismatch (length vs k, or a method that cannot handle the length),
4 index arithmetic overflow.
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import functools
import io
import locale
import mmap
import os
import random
import stat
import sys
import tempfile

import numpy as np

from . import recordfile
from .involution_factor import factor_permutation
from .network import apply_network, build_network, emit_dot, emit_text, min_swap_bytes
from .oracle import oracle_apply, oracle_shuffle
from .perm_core import (
    OpCounter,
    Permutation,
    cycle_decompose,
    cycle_notation,
)
from .shuffle_bitrev import INDEX_LIMIT, ShuffleSpec, shuffle_general_k2, shuffle_power
from .shuffle_modinv import j_map, shuffle_modinv, swap_count_modinv


class ParseFailure(ValueError):
    """Input that could not be understood (exit 2)."""


class ArityFailure(ValueError):
    """Input whose shape does not fit the requested operation (exit 3)."""


def _route(target, method: str, purpose: str):
    """Resolve --method for target, a ShuffleSpec or network --perm's Permutation, in this one place.

    Returns (name, run); run(array) shuffles once, in place, looking cli's executors up as it runs, and
    returns the OpCounter that the executor filled.
    """
    if isinstance(target, Permutation) or method == "factorization":
        if method not in ("auto", "factorization"):
            raise ParseFailure("--perm only makes sense with the factorization method")
        if not isinstance(target, Permutation):
            raise ParseFailure("factorization networks need --perm")
        return "factorization", None
    if method in ("auto", "bitrev") and target.n is not None:
        return "bitrev", lambda array: shuffle_power(array, target)
    if method in ("auto", "bitrev") and target.k == 2 and purpose == "shuffle":
        return "rotations", lambda array: shuffle_general_k2(array)
    if method == "bitrev" and target.N:  # no positions, nothing to reverse: auto's route does nothing too
        raise ArityFailure(("bitrev needs N = k**n, or k=2 with N even" if purpose == "shuffle" else
                            "bitrev network needs N = k**n") + " (N=%d, k=%d)" % (target.N, target.k))
    if method == "oracle":  # every array the CLI shuffles is an ndarray
        return "oracle", lambda array: np.copyto(array, oracle_shuffle(array, target.k)) or OpCounter()
    return "modinv", lambda array: shuffle_modinv(array, target.k, OpCounter())


def _check(N: int, k: int, method: str, what: str):
    """_route's run for N elements shuffled k ways by --method; ArityFailure if there is none."""
    if N % k:
        raise ArityFailure("%d %s is not a multiple of k=%d" % (N, what, k))
    return _route(ShuffleSpec.for_length(N, k), method, "shuffle")[1]


def cmd_shuffle(args) -> int:
    src, dst = args.input, args.output
    if args.in_place:
        if src in (None, "-") or dst is not None:
            raise ParseFailure("--in-place needs an input file path and no -o")
        dst = src  # --in-place is -o IN
    from_file, to_file = src not in (None, "-"), dst not in (None, "-")
    onto_src = from_file and to_file and os.path.exists(dst) and os.path.samefile(src, dst)
    if args.records:
        # Records are shuffled in one array: OUT's mapped body when OUT is a
        # regular file or none yet, else a buffer written out behind the
        # header.  OUT is touched only once the checks have passed, and both
        # readers refuse it until its real header is written last.
        mapped = to_file and (not os.path.exists(dst) or stat.S_ISREG(os.stat(dst).st_mode))
        with open(src, "rb", buffering=0) if from_file else contextlib.nullcontext(sys.stdin.buffer) as fin:
            N, header_k, size = recordfile.read_header(fin)
            run = _check(N, args.k or header_k, args.method, "records")
            array = recordfile.copy_records(fin, dst if mapped else None, N, size, onto_src)
        counter = run(array)
        if mapped:  # no msync: the header, written last through the same page cache, guards the body
            recordfile.write_header(dst, N, header_k, size)
        else:
            with open(dst, "wb") if to_file else contextlib.nullcontext(sys.stdout.buffer) as fout:
                fout.writelines([recordfile.RecordFile(N, header_k, size, array).header_bytes(), array.view(np.uint8)])
    else:
        # Tokens are words packing their start and length; onto IN they replace it whole.
        if onto_src and not stat.S_ISREG(os.stat(src).st_mode):  # a FIFO or device would become a file
            raise ParseFailure("%s is not a regular file, so tokens cannot be written onto it" % src)
        codes, words, checked = _read_tokens(src)
        run = _check(len(words), args.k or 2, args.method, "tokens")
        counter = run(words)
        # a checked text (a mapped file's, so the locale's encoding is UTF-8) holds no lone surrogate: its bytes go
        # out as they are to a file or a UTF-8 stdout, where a text stream would encode them back as they were
        raw = checked and os.linesep == "\n" and (
            to_file or hasattr(sys.stdout, "buffer") and codecs.lookup(sys.stdout.encoding).name == "utf-8")
        text = _token_text(codes, words)
        (_replace if onto_src else _write)(dst, text if raw else (str(b, "utf-8", "surrogatepass") for b in text), raw)
    if args.stats:
        print("swaps=%d rounds=%d euclid_iters=%d" % (counter.swaps, counter.rounds, counter.euclid_iterations),
              file=sys.stderr)
    return 0


_CODE_CHUNK = 1 << 16  # bytes per step of the token split and the text write, four times a gather step's; at least 4
_TOKEN_CHUNK = 1 << 11  # tokens per step of the output gather
_WORDS = (np.uint32, np.uint64)  # the types a token's word may take, narrowest first
# str.split's separators past U+007F lie below U+4000: two or three UTF-8 bytes, led by C2, E1, E2 or E3
# and then 80, 81, 85, 9A or A0.
_WIDE_SPACE = np.zeros(0x4000, bool)  # whether a code point is one
_WIDE_SPACE[[0x85, 0xA0, 0x1680, *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000]] = True
_WIDE_END = np.zeros(0x100, bool)  # whether a byte ends one: 85 or A0 of two bytes; 80-8A, 9F, A8, A9, AF of three
_WIDE_END[[chr(c).encode()[-1] for c in np.flatnonzero(_WIDE_SPACE)]] = True


def _read_tokens(path: str | None) -> tuple[np.ndarray, np.ndarray, bool]:
    """The text at path (or stdin) as UTF-8 bytes, its str.split tokens as words, and whether it was checked.

    A token's word is start << b | length: the offset of its first byte,
    in the bit_length(len(codes) - 1) bits above b, and its byte count, in
    the b bits below.  Words are uint32 while every token is shorter than
    2**b bytes (511 bytes in a text of 4 to 8 MiB), else uint64, which holds
    any token of a text below 2**32 bytes; a longer text's token of 2**b
    bytes or more fits neither, and is refused.  One pass over the text
    counts the token edges and a second packs the tokens, so only the
    words are held whole; the second pass starts again, into uint64, at
    the first token too long for uint32.  A pass takes at most _CODE_CHUNK
    bytes at a time, up to where a character starts, and sorts them into
    separators' bytes and tokens' bytes by value.  A byte below 0x80 is a
    separator when str.split splits on it; a byte at or above it is in a
    token, unless it is part of a multi-byte separator, which is looked
    for at the lead bytes it can start with, where a second and a last
    byte it can have follow.  UTF-8 is self-synchronising, so that is
    exact.  The first pass checks a mapped file's non-ASCII chunks
    strictly: such a text is the checked one, and holds no lone surrogate.
    """
    codes, unchecked = _read_codes(path)

    def chunks(check):  # each chunk's offset, and whether each byte starts or ends a token
        lo, before = 0, True  # whether the byte before the chunk is a separator's
        while lo < len(codes):
            hi = lo + _CODE_CHUNK
            # back off continuation bytes (10xxxxxx) onto a lead byte; four in a row are invalid, and are
            # left where they are for the check to find
            for cut in range(hi, hi - 4, -1):
                if cut >= len(codes) or (codes[cut] & 0xC0) != 0x80:
                    hi = cut
                    break
            chunk = codes[lo:hi]
            spaces = np.empty(len(chunk) + 1, bool)
            spaces[0], space = before, spaces[1:]
            # str.split's ASCII separators are 9-13 and 28-32, the bytes whose uint8 differences from 9 or 28,
            # which wrap round below 0, are below 5
            np.less(np.minimum(chunk - 9, chunk - 28), 5, out=space)
            if chunk.max() >= 0x80:
                if check:
                    try:
                        str(chunk, "utf-8")
                    except UnicodeDecodeError as exc:
                        raise ParseFailure("invalid UTF-8 at byte %d: %s" % (lo + exc.start, exc.reason)) from None
                at = np.flatnonzero((chunk == 0xC2) | (chunk - 0xE1 < 3))  # where a separator past U+007F may start
                second = chunk[at + 1]
                at = at[(second - 0x80 < 2) | (second == 0x85) | (second == 0x9A) | (second == 0xA0)]
                two = chunk[at] == 0xC2
                last = at + 2 - two  # where the character ends
                ends = _WIDE_END[chunk[last]]  # typographic quotes, E2 80 9C and 9D, stop here, before the decode
                at, last, two = at[ends], last[ends], two[ends]
                lead, second = chunk[at].astype(np.uint16), chunk[at + 1].astype(np.uint16)
                point = np.where(two, second, (lead & 0xF) << 12 | (second & 0x3F) << 6 | chunk[last] & 0x3F)
                found = _WIDE_SPACE[point]
                at, last = at[found], last[found]
                space[at] = space[at + 1] = space[last] = True  # continuation bytes take their lead byte's class
            yield lo, spaces[1:] != spaces[:-1]
            lo, before = hi, spaces[-1]
        if not before:  # a token runs to the end of the text, and ends with it
            yield len(codes), np.ones(1, bool)

    n = sum(np.count_nonzero(changes) for _, changes in chunks(unchecked))
    bits = (len(codes) - 1).bit_length()  # a start's

    def pack(word):  # the tokens as words of type word, or None at the first that is too long for it
        shift = 8 * np.dtype(word).itemsize - bits  # a length's bits
        if shift < 1:
            return None
        words, at, carry = np.empty(n // 2, word), 0, None  # carry: the start of a token that runs past its chunk
        for lo, changes in chunks(False):
            found = np.flatnonzero(changes).view(np.uint64)  # edges' offsets in the chunk: intp, so below 2**63
            del changes  # before the next chunk's is made, as found is below
            if carry is not None and len(found):  # found[0] ends it
                length = lo + int(found[0]) - carry
                if length >> shift:
                    return None
                words[at] = carry << shift | length
                at, carry, found = at + 1, None, found[1:]
            if len(found) % 2:
                carry, found = lo + int(found[-1]), found[:-1]
            found[1::2] -= found[::2]  # lengths, in place in the odd slots
            if len(found) and int(found[1::2].max()) >> shift:
                return None
            found[::2] += lo
            found[::2] <<= shift
            found[::2] |= found[1::2]
            words[at:at + len(found) // 2] = found[::2]
            at += len(found) // 2
            del found
        return words

    for words in map(pack, _WORDS):  # the narrowest type that holds every token
        if words is not None:
            return codes, words, unchecked
    raise ParseFailure("a token is too long: in %d bytes of text, one of %d bytes or more cannot be held"
                       % (len(codes), 1 << 8 * np.dtype(_WORDS[-1]).itemsize - bits))


def _read_codes(path: str | None) -> tuple[np.ndarray, bool]:
    """The text at path (or stdin) as uint8 UTF-8 bytes, and whether they are yet to be checked as UTF-8.

    When open() would decode as UTF-8, a regular, non-empty file is mapped
    read-only as its own bytes, unchecked.  Other text is decoded as open()
    would and encoded once, with surrogatepass so that lone surrogates (a
    surrogateescape stream's undecodable bytes) return.
    """
    if path in (None, "-"):
        text = sys.stdin.read()
    else:
        encoding = locale.getpreferredencoding(False)  # what open() would use
        with open(path, "rb") as fh:
            info = os.fstat(fh.fileno())
            if stat.S_ISREG(info.st_mode) and info.st_size and codecs.lookup(encoding).name == "utf-8":
                return np.frombuffer(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ), np.uint8), True
            with io.TextIOWrapper(fh, encoding) as stream:  # a FIFO reads once, from this handle
                text = stream.read()
    return np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8), False


def _token_text(codes: np.ndarray, words: np.ndarray):
    """The UTF-8 bytes of the tokens that words hold, each followed by a space and the last by a newline.

    A step unpacks at most _TOKEN_CHUNK words, each token's start as the
    word >> b and its length as the b bits below, with b as _read_tokens
    packed them, and gathers at most _CODE_CHUNK // 4 bytes of them into
    one buffer; a longer token goes out alone, as a view of codes.  A token
    and the separator after it end at stop in the buffer, so buffer
    position q takes codes[end - stop + q + 1]: the token's end - stop,
    repeated over its bytes, plus a ramp of q + 1.
    """
    shift = 8 * words.itemsize - (len(codes) - 1).bit_length()
    wide = np.uint64 if words.itemsize == 8 else np.int64  # to unpack into, then read as int64
    n, i = len(words), 0
    ramp = np.arange(1, _CODE_CHUNK // 4 + 1, dtype=np.int64)  # q + 1
    while i < n:
        word = words[i:i + _TOKEN_CHUNK]
        end = np.right_shift(word, shift, dtype=wide).view(np.int64)
        length = np.bitwise_and(word, (1 << shift) - 1, dtype=wide).view(np.int64)
        end += length
        length += 1  # each token and its separator
        stop = np.cumsum(length)
        take = int(np.searchsorted(stop, len(ramp), "right"))
        i += max(take, 1)
        if not take:
            yield from (codes[end[0] - length[0] + 1:end[0]], b" " if i < n else b"\n")
            continue
        stop = stop[:take]
        index = np.repeat(end[:take] - stop, length[:take])
        index += ramp[:len(index)]
        out = codes.take(index, mode="clip")  # the last separator may lie past codes
        out[stop - 1] = ord(" ")
        out[-1] = ord(" " if i < n else "\n")
        yield out


def _write(path: str | int | None, data, raw: bool = False) -> None:
    """Write data to path (or open file descriptor, left open), or to stdout for None and "-".

    Raw data is bytes-like and goes out as it is, through a binary file or
    stdout's buffer.  Other data is strs.  A text stream encodes each str
    it gets into one bytes copy, so strs go out _CODE_CHUNK characters at a
    time.  A file encodes them with surrogateescape, so the lone surrogates
    that a surrogateescape stdin makes of undecodable bytes go out as those
    bytes, as they do on a UTF-8 mode stdout.
    """
    chunks = data if raw else (s[i:i + _CODE_CHUNK] for s in data for i in range(0, len(s), _CODE_CHUNK))
    if path in (None, "-"):
        if raw:
            sys.stdout.flush()  # what went before goes out first
        (sys.stdout.buffer if raw else sys.stdout).writelines(chunks)
    else:
        with open(path, "wb" if raw else "w", errors=None if raw else "surrogateescape",
                  closefd=not isinstance(path, int)) as fh:
            fh.writelines(chunks)


def _replace(path: str, data, raw: bool) -> None:
    """_write data (raw or not) into a new file beside path, then rename it over path.

    The new file is made with O_TMPFILE, so it has no name until it is
    whole; it is then linked in under a temporary name and renamed over
    path.  A run that fails or is killed leaves path as it was, and leaves
    nothing beside it unless it is killed between the link and the rename.
    Where O_TMPFILE is missing or refused, the file is named from the
    start, and a kill leaves it.  It takes the permission bits of the file
    path names and replaces that file, so a symlink at path stays a link;
    other hard links keep the old contents.
    """
    real = os.path.realpath(path)
    folder = os.path.dirname(real)
    try:
        fd, tmp = os.open(folder, os.O_TMPFILE | os.O_WRONLY, 0o600), None
    except (AttributeError, OSError):  # not Linux, or a file system without it
        fd, tmp = tempfile.mkstemp(dir=folder)
    try:
        _write(fd, data, raw)
        os.fchmod(fd, stat.S_IMODE(os.stat(real).st_mode))
        if tmp is None:
            name, dirfd = "tmp" + os.urandom(4).hex(), os.open(folder, os.O_PATH)  # O_PATH needs no read permission
            try:  # with a dir_fd, link follows the /proc link to the open file
                os.link("/proc/self/fd/%d" % fd, name, dst_dir_fd=dirfd, follow_symlinks=True)
            finally:
                os.close(dirfd)
            tmp = os.path.join(folder, name)
        os.replace(tmp, real)
    except BaseException:
        if tmp is not None:
            os.unlink(tmp)
        raise
    finally:
        os.close(fd)


def _parse_permutation(arg: str | None) -> Permutation:
    """The permutation in arg, a one-line image list, or on stdin for None and "-"."""
    text = sys.stdin.read() if arg in (None, "-") else arg
    try:
        values = [int(tok) for tok in text.split()]
    except ValueError as exc:
        raise ParseFailure("permutation must be a list of integers") from exc
    try:
        return Permutation(values)
    except ValueError as exc:
        raise ParseFailure(str(exc)) from exc


def cmd_factor(args) -> int:
    p = _parse_permutation(args.perm)
    if args.enumerate and len(cycle_decompose(p)) != 1:
        raise ParseFailure("--enumerate needs a single-cycle permutation")
    pair = factor_permutation(p)
    s, t = cycle_notation(pair.s), cycle_notation(pair.t)
    for axis in range(p.size if args.enumerate else 1):  # each pair printed as it is made
        if axis:  # on one cycle, T about an axis is S about the axis before it
            s, t = cycle_notation(factor_permutation(p, axis).s), s
        print("S: " + s)
        print("T: " + t)
    return 0


def cmd_network(args) -> int:
    if args.perm is not None:
        if (args.exp, args.n, args.k) != (None, None, None):
            raise ParseFailure("--perm takes no --exp, --n or --k")
        target = _parse_permutation(args.perm)
    else:
        k = args.k or 2
        if args.exp is not None and args.n is not None:
            raise ParseFailure("give either --exp or --n, not both")
        if args.exp is not None:
            if args.exp < 1:
                raise ArityFailure("--exp %d gives no positions; it must be at least 1" % args.exp)
            if args.exp >= INDEX_LIMIT.bit_length() or k ** args.exp > INDEX_LIMIT:  # k**exp >= 2**exp
                raise OverflowError("N=%d**%d exceeds the index arithmetic limit" % (k, args.exp))
            N = k ** args.exp
        elif args.n is not None:
            N = args.n
        else:
            raise ParseFailure("need --exp, --n, or --perm")
        if N < 2 or N % k:
            raise ArityFailure("N=%d is not a positive multiple of k=%d" % (N, k))
        target = ShuffleSpec.for_length(N, k)
    method = _route(target, args.method, "network")[0]
    if method != "factorization":  # one that cannot be built is refused before it is
        swap_bytes = min_swap_bytes(target.N)  # two rounds hold about one swap per position
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        if target.N * swap_bytes > memory:
            raise MemoryError("out of memory: a network of N=%d positions holds about N swaps of at least %d bytes, "
                              "more than the %d bytes of physical memory" % (target.N, swap_bytes, memory))
    net = build_network(method, target)
    sys.stdout.write(emit_dot(net) if args.format == "dot" else emit_text(net))
    return 0


def cmd_profile(args) -> int:
    lo, hi = _parse_range(args.m_range)
    if args.step < 1:
        raise ParseFailure("--step must be positive")
    rows = []  # all made before the header is printed, so a size that fails prints nothing
    for N in range(args.k * lo, args.k * hi + 1, args.k * args.step):
        report = swap_count_modinv(N, args.k)
        rows.append("%d,%d,%d,%d\n" % (N, report.euclid_iterations, report.gcd_calls, report.swaps))
    sys.stdout.write("N,euclid_iterations,gcd_calls,swaps\n" + "".join(rows))
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise ParseFailure("range must look like LO..HI") from exc
    if lo < 1 or hi < lo:
        raise ParseFailure("range %d..%d is empty or negative" % (lo, hi))
    return lo, hi


def cmd_selftest(args) -> int:
    if args.max_n < 2:
        raise ParseFailure("--max-n %d leaves nothing to check; it must be at least 2" % args.max_n)
    results = []  # (passed, what) per check
    rng = random.Random(20240915)
    for N in range(2, args.max_n + 1):
        for k in (2, 3, 4, 5):
            if N % k:
                continue
            spec = ShuffleSpec.for_length(N, k)
            expected = oracle_shuffle(list(range(N)), k)
            for method in ("bitrev", "modinv"):
                try:
                    run = _route(spec, method, "shuffle")[1]
                except ArityFailure:
                    continue
                # a list, and ndarrays of a native dtype (as records) and a void one (as tokens)
                values = np.arange(N, dtype=np.int64)
                for kind, got in (("list", values.tolist()), ("int64", values.copy()), ("void", values.view("V8"))):
                    run(got)
                    got = got if kind == "list" else got.view(np.int64).tolist()
                    results.append((got == expected, "%s N=%d k=%d %s" % (method, N, k, kind)))
            ok = all(
                j_map(r, j_map(r, x, spec), spec) == x
                for r in (1, k)
                for x in range(spec.m)
            )
            results.append((ok, "involution law N=%d k=%d" % (N, k)))
        perm = list(range(N))
        rng.shuffle(perm)
        p = Permutation(perm)
        arr = list(range(N))
        apply_network(arr, build_network("factorization", p))
        results.append((arr == oracle_apply(p, list(range(N))), "factor round trip N=%d" % N))
    failures = [what for passed, what in results if not passed]
    for what in failures:
        print("FAIL %s" % what, file=sys.stderr)
    print("selftest: %d checks, %d failures" % (len(results), len(failures)))
    return 1 if failures else 0


@functools.cache  # built once per process: a parser is a cyclic graph the collector frees late
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shuffleworks",
        description="In-place k-way perfect shuffles in two rounds of swaps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shuffle", help="shuffle tokens or fixed-size records in place")
    p.add_argument("input", nargs="?", help="input path, or - / omitted for stdin")
    p.add_argument("--k", type=int, default=None, help="shuffle arity (default 2, or the record header)")
    p.add_argument(
        "--method",
        choices=["bitrev", "modinv", "auto", "oracle"],
        default="auto",
        help="auto: chosen by N and k, as README says; bitrev: digit reversal; modinv: modular inverses; oracle: reference",
    )
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--lines", action="store_true", help="whitespace tokens (default)")
    mode.add_argument("--records", action="store_true", help="binary record container")
    p.add_argument("--in-place", action="store_true", help="rewrite the input file itself")
    p.add_argument("--stats", action="store_true", help="print work counters to stderr")
    p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_shuffle)

    p = sub.add_parser("factor", help="split a permutation into two involutions")
    p.add_argument("perm", nargs="?", help="image list like '1 2 0', or stdin")
    p.add_argument(
        "--enumerate",
        action="store_true",
        help="print all N factorizations (single-cycle input only)",
    )
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("network", help="emit the explicit swap network")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--exp", type=int, default=None, help="build for N = k**EXP")
    p.add_argument("--n", type=int, default=None, help="build for N positions")
    p.add_argument("--perm", default=None, help="factor this permutation instead")
    p.add_argument(
        "--method",
        choices=["bitrev", "modinv", "factorization", "auto"],
        default="auto",
    )
    p.add_argument("--format", choices=["text", "dot"], default="text")
    p.set_defaults(func=cmd_network)

    p = sub.add_parser("profile", help="CSV of index-arithmetic cost per size")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--m-range", required=True, help="M values LO..HI")
    p.add_argument("--step", type=int, default=1)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("selftest", help="cross-check the shuffle routines")
    p.add_argument("--max-n", type=int, default=64)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "k", None) is not None and args.k < 2:
            raise ParseFailure("k must be at least 2")
        return args.func(args)
    except ArityFailure as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except OverflowError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4
    except MemoryError as exc:  # input too large to hold; the exception usually has no text
        print("error: %s" % (str(exc) or "out of memory"), file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        # anything the library rejects, and any file that cannot be read or
        # written, is bad input
        print("error: %s" % exc, file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
