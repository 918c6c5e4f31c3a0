"""The benchmark's own self-test, run as part of the suite.

perfbench/ wraps public names of cli, recordfile and shuffle_bitrev
(shuffle_power, shuffle_general_k2, shuffle_modinv, build_network,
emit_text, parse_record_file, open_records_inplace, RecordFile.to_bytes,
revswap_round, rotate_left) and checks its counts against swap_counts,
rotation_cost and swap_count_modinv.  It reads the OpCounter that
shuffle_general_k2 returns (.swaps, .moved) and the one the CLI passes to
shuffle_modinv as its third positional argument.  A rename or a changed
return value in the package would break the benchmark without failing
any other test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest: 0 failures" in proc.stdout
