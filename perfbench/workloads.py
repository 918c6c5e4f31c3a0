"""The benchmark's workloads: inputs made from a seed, one CLI call, an oracle check.

Every workload runs one ``shuffleworks`` command through ``cli.main`` in
this process.  The seed sets the payloads, and for two workloads also the
length M, drawn from a window of +-1% around a stated value so that no
change can tune itself to a single length's bit pattern or to the factors
of N-1.  Each record or token carries its own starting index, and every
output is compared with ``oracle_shuffle`` applied to the previous state.
"""

from __future__ import annotations

import contextlib
import io
import struct
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from shuffleworks import cli
from shuffleworks.network import network_permutation, parse_text
from shuffleworks.oracle import inshuffle_permutation, oracle_shuffle
from shuffleworks.shuffle_bitrev import (
    ShuffleSpec,
    rotation_cost,
    rotation_plan,
    shuffle_general_k2,
    swap_counts,
)
from shuffleworks.shuffle_modinv import OpCounter, swap_count_modinv

# The IVSH record container header as documented in recordfile:
# magic, version, record count, arity, record size.
HEADER = struct.Struct("<4sBQII")


def _window(rng: np.random.Generator, centre: int) -> int:
    return int(rng.integers(centre - centre // 100, centre + centre // 100 + 1))


def _block_swaps(M: int) -> tuple[int, int]:
    """Closed-form round swaps summed over the aligned blocks of a k=2 shuffle."""
    pairs = [swap_counts(ShuffleSpec.for_length(2 * m, 2)) for m in rotation_plan(M).segment_sizes]
    return sum(p[0] for p in pairs), sum(p[1] for p in pairs)


class Workload:
    """One input shape.  Subclasses set k, N, record_size and the command."""

    name = ""
    k = 2
    record_size = 0  # bytes per record; 0 for text workloads
    reference = "python"  # the reference task that scales its times: "python" or "numpy"

    def __init__(self, seed: int, small: bool):
        self.seed = seed
        self.workdir: Path | None = None

    def describe(self) -> dict:
        return {"N": self.N, "k": self.k, "record_size": self.record_size, "argv": self.argv()}

    def payload_rng(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, 1])

    def generate(self) -> Path:
        """Write the input into the work directory; return the file's path."""
        raise NotImplementedError

    def argv(self) -> list[str]:
        raise NotImplementedError

    def operate(self) -> tuple[float, bool]:
        """Run the command once; return its wall seconds and whether it exited 0."""
        err = io.StringIO()
        with contextlib.redirect_stderr(err), self._stdout():
            start = time.perf_counter()
            try:
                rc = cli.main(self.argv())
            except Exception:
                traceback.print_exc()
                rc = -1
            seconds = time.perf_counter() - start
        if rc != 0:
            print("%s: exit %s\n%s" % (self.name, rc, err.getvalue()), file=sys.stderr)
        return seconds, rc == 0

    def _stdout(self):
        return contextlib.nullcontext()

    def check(self) -> bool:
        """Compare the command's output with the oracle; resynchronise on a mismatch."""
        raise NotImplementedError

    def corrupt(self) -> None:
        """Damage the last output on purpose, to prove that check() notices."""
        raise NotImplementedError

    def oracle_input(self):
        """An in-memory copy of the current input for timing the oracle."""
        raise NotImplementedError

    def expected_counts(self) -> dict[str, int]:
        """Counts a traced operation must report; asked for after extras()."""
        return {}

    def extras(self) -> tuple[dict[str, float], bool]:
        """Layer measurements outside the CLI call, and whether they were correct."""
        return {}, True


class _Records(Workload):
    """Fixed-size records in an IVSH container; each record holds its index."""

    def make_records(self) -> np.ndarray:
        rng = self.payload_rng()
        index = np.arange(self.N, dtype=np.uint64)
        if self.record_size == 8:
            return (rng.integers(0, 1 << 32, self.N, dtype=np.uint64) << np.uint64(32)) | index
        rows = np.empty((self.N, self.record_size), dtype=np.uint8)
        rows[:, :8] = index.view(np.uint8).reshape(self.N, 8)
        rows[:, 8:] = rng.integers(0, 256, (self.N, self.record_size - 8), dtype=np.uint8)
        return rows.view(np.dtype((np.void, self.record_size))).ravel()

    def generate(self) -> Path:
        records = self.make_records()
        self.header = HEADER.pack(b"IVSH", 1, self.N, self.k, self.record_size)
        self.input = self.workdir / "input.ivsh"
        with open(self.input, "wb") as fh:
            fh.write(self.header)
            fh.write(records.view(np.uint8).data)
        self.state = records
        return self.input

    def matches(self, path: Path, expected: np.ndarray) -> tuple[bool, np.ndarray]:
        """Whether the file holds the header and expected records; also its records."""
        data = np.fromfile(path, dtype=np.uint8)
        header, body = data[: HEADER.size].tobytes(), data[HEADER.size:]
        want = expected.view(np.uint8).reshape(-1)
        ok = header == self.header and body.size == want.size and np.array_equal(body, want)
        return ok, body.view(self.state.dtype)

    def corrupt_file(self, path: Path) -> None:
        r = self.record_size
        with open(path, "r+b") as fh:
            fh.seek(HEADER.size + r)
            pair = fh.read(2 * r)
            fh.seek(HEADER.size + r)
            fh.write(pair[r:] + pair[:r])

    def oracle_input(self):
        return self.state.copy()


class RecordsInPlace(_Records):
    """``shuffle --records --in-place``: the same file is shuffled again each time."""

    def argv(self) -> list[str]:
        return ["shuffle", "--records", "--in-place", str(self.input)]

    def check(self) -> bool:
        expected = oracle_shuffle(self.state, self.k)
        ok, got = self.matches(self.input, expected)
        self.state = expected if ok else got.copy()
        return ok

    def corrupt(self) -> None:
        self.corrupt_file(self.input)


class RecPow2InPlace(RecordsInPlace):
    name = "rec-pow2-inplace"
    record_size = 8
    reference = "numpy"

    def __init__(self, seed, small):
        super().__init__(seed, small)
        self.N = 1 << (10 if small else 22)

    def expected_counts(self):
        r0, r1 = swap_counts(ShuffleSpec.for_length(self.N, 2))
        return {"shuffle_bitrev.round0_swaps": r0, "shuffle_bitrev.round1_swaps": r1}


class RecK3InPlace(RecordsInPlace):
    name = "rec-k3-inplace"
    k = 3
    record_size = 8

    def __init__(self, seed, small):
        super().__init__(seed, small)
        # M is odd, so N-1 is even: half the positions share the factor 2 with
        # N-1 and take a second Euclid call.  Left to the seed, that parity
        # alone swings the Euclid work by a quarter between seeds.
        self.M = _window(np.random.default_rng([seed, 0]), 300 if small else 12_000) | 1
        self.N = 3 * self.M

    def extras(self):
        counter = OpCounter()
        start = time.perf_counter()
        swap_count_modinv(self.N, self.k, counter)
        seconds = time.perf_counter() - start
        self.modinv_counts = {
            "shuffle_modinv.euclid_iters": counter.euclid_iterations,
            "shuffle_modinv.gcd_calls": counter.gcd_calls,
            "shuffle_modinv.swaps": counter.swaps,
        }
        return {"shuffle_modinv.pairgen_s": seconds}, True

    def expected_counts(self):
        # Filled by extras(): swap_count_modinv walks the same pairs without moving data.
        return getattr(self, "modinv_counts", {})


class RecEvenCopy(_Records):
    """``shuffle --records IN -o OUT``: parse, shuffle in memory, serialise."""

    name = "rec-even-copy"
    record_size = 12
    reference = "numpy"

    def __init__(self, seed, small):
        super().__init__(seed, small)
        centre = (1 << 9) + (1 << 8) + (1 << 3) + 3 if small else (1 << 20) + (1 << 19) + (1 << 13) + 3
        self.M = _window(np.random.default_rng([seed, 0]), centre)
        self.N = 2 * self.M
        self.expected = None

    def generate(self):
        path = super().generate()
        self.output = self.workdir / "output.ivsh"
        self.expected = None
        return path

    def argv(self):
        return ["shuffle", "--records", str(self.input), "-o", str(self.output)]

    def check(self):
        if self.expected is None:
            self.expected = oracle_shuffle(self.state, self.k)
        return self.matches(self.output, self.expected)[0]

    def corrupt(self):
        self.corrupt_file(self.output)

    def expected_counts(self):
        r0, r1 = _block_swaps(self.M)
        return {
            "shuffle_bitrev.round0_swaps": r0,
            "shuffle_bitrev.round1_swaps": r1,
            "shuffle_bitrev.rotate_moved": rotation_cost(self.M),
        }


class LinesK2InPlace(Workload):
    """``shuffle --lines --in-place``: whitespace tokens, the CLI's default mode."""

    name = "lines-k2-inplace"

    def __init__(self, seed, small):
        super().__init__(seed, small)
        self.M = 600 if small else 200_000
        self.N = 2 * self.M

    def generate(self):
        tags = self.payload_rng().integers(0, 1 << 16, self.N).tolist()
        self.state = ["%x.%04x" % (i, t) for i, t in enumerate(tags)]
        self.input = self.workdir / "tokens.txt"
        self.input.write_text(" ".join(self.state) + "\n")
        return self.input

    def argv(self):
        return ["shuffle", "--lines", "--in-place", str(self.input)]

    def check(self):
        expected = oracle_shuffle(self.state, self.k)
        text = self.input.read_text()
        ok = text == " ".join(expected) + "\n"
        self.state = expected if ok else text.split()
        return ok

    def corrupt(self):
        tokens = self.input.read_text().split()
        tokens[1], tokens[2] = tokens[2], tokens[1]
        self.input.write_text(" ".join(tokens) + "\n")

    def oracle_input(self):
        return list(self.state)

    def expected_counts(self):
        return {
            "shuffle_bitrev.general_swaps": sum(_block_swaps(self.M)),
            "shuffle_bitrev.general_moved": rotation_cost(self.M),
        }

    def extras(self):
        tokens = list(self.state)
        start = time.perf_counter()
        shuffle_general_k2(tokens, ruler="counter")
        seconds = time.perf_counter() - start
        return {"shuffle_bitrev.scalar_counter_s": seconds}, tokens == oracle_shuffle(self.state, self.k)


class NetK2Text(Workload):
    """``network --k 2 --exp E`` in text format, stdout sent to a file."""

    name = "net-k2-text"

    def __init__(self, seed, small):
        super().__init__(seed, small)
        self.exp = 6 if small else 15
        self.N = 1 << self.exp
        self.target = None

    def generate(self):
        # The command takes no input file; the seed has nothing to vary here.
        self.output = self.workdir / "network.txt"
        return None

    def argv(self):
        return ["network", "--k", "2", "--exp", str(self.exp)]

    @contextlib.contextmanager
    def _stdout(self):
        with open(self.output, "w") as fh, contextlib.redirect_stdout(fh):
            yield fh

    def check(self):
        if self.target is None:
            self.target = inshuffle_permutation(self.N, self.k)
        try:
            net = parse_text(self.output.read_text())
        except ValueError:
            return False
        return network_permutation(net) == self.target

    def corrupt(self):
        # Running the rounds in the wrong order realises the inverse permutation.
        lines = self.output.read_text().splitlines()
        head0, _, body0 = lines[2].partition(":")
        head1, _, body1 = lines[3].partition(":")
        lines[2], lines[3] = head0 + ":" + body1, head1 + ":" + body0
        self.output.write_text("\n".join(lines) + "\n")

    def oracle_input(self):
        return list(range(self.N))

    def expected_counts(self):
        return {"network.swaps": sum(swap_counts(ShuffleSpec.for_length(self.N, 2)))}


WORKLOADS = {
    w.name: w for w in (RecPow2InPlace, RecEvenCopy, RecK3InPlace, LinesK2InPlace, NetK2Text)
}
