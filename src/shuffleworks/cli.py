"""Command line front end.

Subcommands: shuffle, factor, network, profile, selftest.  Data goes to
stdout, diagnostics to stderr.  Exit codes are part of the interface:
0 success, 1 selftest failure, 2 unparsable input (k below 2, a file that
cannot be read or written, or no memory left), 3 arity mismatch (length vs
k, or a method that cannot handle the length), 4 index arithmetic overflow.
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
        # Tokens are 8-byte (start, end) records; onto IN they replace it whole.
        if onto_src and not stat.S_ISREG(os.stat(src).st_mode):  # a FIFO or device would become a file
            raise ParseFailure("%s is not a regular file, so tokens cannot be written onto it" % src)
        codes, edges = _read_tokens(src)
        run = _check(len(edges) // 2, args.k or 2, args.method, "tokens")
        counter = run(edges.view("V%d" % (2 * edges.itemsize)))
        (_replace if onto_src else _write)(dst, _token_text(codes, edges))
    if args.stats:
        print("swaps=%d rounds=%d euclid_iters=%d" % (counter.swaps, counter.rounds, counter.euclid_iterations),
              file=sys.stderr)
    return 0


_CODE_CHUNK = 1 << 16  # bytes per step of the token split and the text write, four times a gather step's; at least 4
_TOKEN_CHUNK = 1 << 11  # tokens per step of the output gather
# str.split's separators past U+007F lie below U+4000: two or three UTF-8 bytes, led by C2, E1, E2 or E3
# and then 80, 81, 85, 9A or A0.
_WIDE_SPACE = np.zeros(0x4000, bool)  # whether a code point is one
_WIDE_SPACE[[0x85, 0xA0, 0x1680, *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000]] = True
_WIDE_END = np.zeros(0x100, bool)  # whether a byte ends one: 85 or A0 of two bytes; 80-8A, 9F, A8, A9, AF of three
_WIDE_END[[chr(c).encode()[-1] for c in np.flatnonzero(_WIDE_SPACE)]] = True


def _read_tokens(path: str | None) -> tuple[np.ndarray, np.ndarray]:
    """The text at path (or stdin) as UTF-8 bytes, and the byte offsets where its str.split tokens start and end.

    The edges alternate start and end, int32 below 2**31 bytes, so that a
    token takes 8 bytes: one pass over the text counts them and a second
    stores them, so only the result is held whole.  A pass takes at most
    _CODE_CHUNK bytes at a time, up to where a character starts, and sorts
    them into separators' bytes and tokens' bytes by value.  A byte below
    0x80 is a separator when str.split splits on it; a byte at or above it
    is in a token, unless it is part of a multi-byte separator, which is
    looked for at the lead bytes it can start with, where a second and a
    last byte it can have follow.  UTF-8 is self-synchronising, so that is
    exact.  The first pass checks a mapped file's non-ASCII chunks
    strictly.
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

    n = sum(np.count_nonzero(changes) for _, changes in chunks(unchecked))
    edges = np.empty(n + n % 2, np.int32 if len(codes) < 1 << 31 else np.int64)
    edges[n:] = len(codes)  # a token that runs to the end of the text
    at = 0
    for lo, changes in chunks(False):
        found = np.flatnonzero(changes)
        edges[at:at + len(found)] = found
        edges[at:at + len(found)] += lo  # found + lo would be a second int64 array
        at += len(found)
        del found  # before the next chunk's is made
    return codes, edges


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


def _token_text(codes: np.ndarray, edges: np.ndarray):
    """The tokens at edges in the UTF-8 bytes codes as strs, each followed by a space and the last by a newline.

    At most _TOKEN_CHUNK tokens and _CODE_CHUNK // 4 bytes go through one
    buffer at a time; a longer token is decoded on its own.  A token and
    the separator after it end at stop in the buffer, so buffer position q
    takes codes[end - stop + q + 1]: the token's end - stop, repeated over
    its bytes, plus a ramp of q + 1.
    """
    n, i = len(edges) // 2, 0
    ramp = np.arange(1, _CODE_CHUNK // 4 + 1, dtype=np.int64)  # q + 1
    while i < n:
        start, end = edges[2 * i:2 * (i + _TOKEN_CHUNK):2], edges[2 * i + 1:2 * (i + _TOKEN_CHUNK):2]
        length = np.subtract(end, start, dtype=np.int64)
        length += 1  # each token and its separator
        stop = np.cumsum(length)
        take = int(np.searchsorted(stop, len(ramp), "right"))
        i += max(take, 1)
        if not take:
            yield from (str(codes[start[0]:end[0]], "utf-8", "surrogatepass"), " " if i < n else "\n")
            continue
        stop = stop[:take]
        index = np.repeat(end[:take] - stop, length[:take])
        index += ramp[:len(index)]
        out = codes.take(index, mode="clip")  # the last separator may lie past codes
        out[stop - 1] = ord(" ")
        out[-1] = ord(" " if i < n else "\n")
        yield str(out, "utf-8", "surrogatepass")


def _write(path: str | int | None, data) -> None:
    """Write the strs of data to path (or open file descriptor, left open), or to stdout for None and "-".

    A text stream encodes each str it gets into one bytes copy, so strs go
    out _CODE_CHUNK characters at a time.  A file encodes them with
    surrogateescape, so the lone surrogates that a surrogateescape stdin
    makes of undecodable bytes go out as those bytes, as they do on a
    UTF-8 mode stdout.
    """
    chunks = (s[i:i + _CODE_CHUNK] for s in data for i in range(0, len(s), _CODE_CHUNK))
    if path in (None, "-"):
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", errors="surrogateescape", closefd=not isinstance(path, int)) as fh:
            fh.writelines(chunks)


def _replace(path: str, data) -> None:
    """_write data into a new file beside path, then rename it over path.

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
        _write(fd, data)
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
