"""The digests of ``tests/digests.py`` on seed 43, pinned: a change that
alters any transition, legacy transition, reduction or harmony report of
its corpora, or how the congruence keys group its targets, fails here.
``tau_order`` is not a result (it follows the engine's derivation order),
so it is not pinned.

The script runs in a fresh interpreter, because user atoms take their ids
from a global counter that the other tests advance."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "digests.py"

PINNED = {
    "transitions": "e998500b39787d3058340edd024564242523f524449686d7391bc5a360412c1f",
    "legacy_transitions": "0e23d34b5a3f5de07e63f40570eaed770d843b6e29fed236f1b7c0d96edd2901",
    "reductions": "9415cc22da9e32083536ded9ed7e0820dc3dfad209d5389f02665939ba465430",
    "harmony": "80af58a111b2289c7c1cffbb25e065c1a1489baf6bb72d9283c77b0a77801809",
    "keys": "2970957b335764a83c9695f17c3b458d9959508dac19c51a634501ecf284d05a",
}


def test_digests_of_seed_43_are_pinned():
    run = subprocess.run([sys.executable, str(SCRIPT), "43"], capture_output=True,
                         text=True, check=True, timeout=600)
    got = {}
    for line in run.stdout.splitlines():
        _, seed, kind, digest = line.split()
        assert seed == "43", line
        got[kind] = digest
    assert {kind: got.get(kind) for kind in PINNED} == PINNED
