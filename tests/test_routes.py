"""The route table: which construction each --method takes, as README states it and as cli runs it."""

import argparse
import io
from pathlib import Path

import pytest

from shuffleworks import cli
from shuffleworks.cli import main
from shuffleworks.oracle import oracle_shuffle
from shuffleworks.shuffle_bitrev import ShuffleSpec

README = " ".join((Path(__file__).resolve().parent.parent / "README.md").read_text().split())

# The auto rule README gives each subcommand; the tables below hold the routes it names.
README_AUTO = {
    "shuffle": "`--method` is `auto` (digit reversal when `N` is a power of k, the rotation reduction when "
               "`k = 2` and `N` is even, otherwise modular inverses)",
    "network": "`--method auto` is digit reversal when `N` is a power of k and modular inverses otherwise",
}

# (N, k) for N = k**n, k=2 with N even and not a power, k>2 with N not a power, and N = 0:
# the route each --method takes, or the exit code of its refusal.
SHUFFLE = {
    (8, 2): {"auto": "bitrev", "bitrev": "bitrev", "modinv": "modinv", "oracle": "oracle"},
    (9, 3): {"auto": "bitrev", "bitrev": "bitrev", "modinv": "modinv", "oracle": "oracle"},
    (12, 2): {"auto": "rotations", "bitrev": "rotations", "modinv": "modinv", "oracle": "oracle"},
    (12, 3): {"auto": "modinv", "bitrev": 3, "modinv": "modinv", "oracle": "oracle"},
    (0, 2): {"auto": "rotations", "bitrev": "rotations", "modinv": "modinv", "oracle": "oracle"},
    (0, 3): {"auto": "modinv", "bitrev": "modinv", "modinv": "modinv", "oracle": "oracle"},  # nothing to reverse
}
NETWORK = {
    (8, 2): {"auto": "bitrev", "bitrev": "bitrev", "modinv": "modinv", "factorization": 2},
    (9, 3): {"auto": "bitrev", "bitrev": "bitrev", "modinv": "modinv", "factorization": 2},
    (12, 2): {"auto": "modinv", "bitrev": 3, "modinv": "modinv", "factorization": 2},
    (12, 3): {"auto": "modinv", "bitrev": 3, "modinv": "modinv", "factorization": 2},
    (0, 2): {"auto": 3, "bitrev": 3, "modinv": 3, "factorization": 3},  # no positions, whatever the method
    (0, 3): {"auto": 3, "bitrev": 3, "modinv": 3, "factorization": 3},
}
PERM = {"auto": "factorization", "bitrev": 2, "modinv": 2, "factorization": "factorization"}


def method_choices(command):
    subcommands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return set(next(a for a in subcommands.choices[command]._actions if a.dest == "method").choices)


def test_readme_states_the_auto_rule_of_each_subcommand():
    for command, rule in README_AUTO.items():
        assert rule in README, command
    assert all(set(row) == method_choices("shuffle") for row in SHUFFLE.values())
    assert all(set(row) == method_choices("network") for row in NETWORK.values())
    assert set(PERM) == method_choices("network")


@pytest.mark.parametrize("N, k", list(SHUFFLE))
def test_shuffle_takes_the_route_readme_states(N, k, capsys, monkeypatch):
    tokens = ["t%d" % i for i in range(N)]
    for method, want in SHUFFLE[N, k].items():
        monkeypatch.setattr("sys.stdin", io.StringIO(" ".join(tokens)))
        code = main(["shuffle", "--k", str(k), "--method", method])
        out, err = capsys.readouterr()
        if isinstance(want, int):
            assert (code, out) == (want, ""), method
            assert err.startswith("error: bitrev needs N = k**n"), method
        else:
            assert (code, err) == (0, ""), method
            assert out == (" ".join(oracle_shuffle(tokens, k)) + "\n" if tokens else ""), method
            assert cli._route(ShuffleSpec.for_length(N, k), method, "shuffle")[0] == want, method


@pytest.mark.parametrize("N, k", list(NETWORK))
def test_network_takes_the_route_readme_states(N, k, capsys):
    for method, want in NETWORK[N, k].items():
        code = main(["network", "--k", str(k), "--n", str(N), "--method", method])
        out, err = capsys.readouterr()
        if isinstance(want, int):
            assert (code, out) == (want, ""), method
            assert err.startswith("error: "), method
        else:
            assert (code, err) == (0, ""), method
            assert out.splitlines()[1].startswith("N=%d method=%s " % (N, want)), method


def test_network_perm_takes_only_factorization(capsys):
    for method, want in PERM.items():
        code = main(["network", "--perm", "2 0 3 1", "--method", method])
        out, err = capsys.readouterr()
        if isinstance(want, int):
            assert (code, out, err) == (want, "", "error: --perm only makes sense with the factorization method\n")
        else:
            assert (code, err) == (0, "")
            assert out.splitlines()[1].startswith("N=4 method=%s " % want), method


EXECUTORS = ("shuffle_power", "shuffle_general_k2", "shuffle_modinv", "build_network", "emit_text")


@pytest.mark.parametrize("argv, n_tokens, called", [
    (["shuffle", "--k", "2"], 16, ["shuffle_power"]),
    (["shuffle", "--k", "2"], 12, ["shuffle_general_k2"]),
    (["shuffle", "--k", "3"], 12, ["shuffle_modinv"]),
    (["shuffle", "--k", "3", "--method", "oracle"], 12, []),
    (["network", "--k", "2", "--exp", "4"], None, ["build_network", "emit_text"]),
    (["network", "--k", "3", "--n", "12", "--format", "dot"], None, ["build_network"]),
    (["network", "--perm", "2 0 3 1"], None, ["build_network", "emit_text"]),
], ids=["bitrev", "rotations", "modinv", "oracle", "network_text", "network_dot", "network_perm"])
def test_routes_call_the_executors_cli_holds_when_they_run(argv, n_tokens, called, capsys, monkeypatch):
    # the benchmark's tracer swaps these names of cli for wrappers during a traced run; a route that
    # held the functions themselves would skip the wrappers and leave their spans empty
    seen = []

    def spy(name, real):
        def counted(*args, **kwargs):
            seen.append(name)
            return real(*args, **kwargs)
        return counted

    for name in EXECUTORS:
        monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
    if n_tokens is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(" ".join(map(str, range(n_tokens)))))
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if n_tokens is not None:
        assert out == " ".join(map(str, oracle_shuffle(list(range(n_tokens)), int(argv[2])))) + "\n"
    assert seen == called
