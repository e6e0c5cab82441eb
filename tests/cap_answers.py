"""The answers pinned at the size cap: fourteen ``riordan`` runs at size 200, each
pinned byte for byte by the sha256 of its stdout.

``tests/test_cap_answers.py`` runs each one through ``riordan.cli.main`` in-process.
Run as a script, this module prints one line per answer for a shell loop over the
installed ``riordan`` script (CI's ``console script`` step): the timeout in seconds,
the sha256, the name and then the arguments, shell-quoted, so that
``while read -r seconds digest name args; do eval "set -- $args"; ...`` reads them back.

The three long literals are made here by plain Fraction recurrences, not by the
library they check.
"""

from __future__ import annotations

import json
import shlex
from fractions import Fraction
from typing import NamedTuple


class CapAnswer(NamedTuple):
    name: str
    seconds: int  # the shell loop's timeout
    argv: tuple[str, ...]
    sha256: str


def dense_ones_omega() -> str:
    """``x/(1-x)`` read dense, ``[0, 1, 1, ..., 1]`` through degree 200: its ``g = 1 - x``
    is short, so the table takes the g rule."""
    return str([0] + [1] * 200)


def x_over_g_omega() -> str:
    """``x/g`` for ``g = -3/2 + x + 2x^2/5``, read dense through degree 200: its
    coefficients have growing denominators, and the table takes the g rule."""
    q = [Fraction(0), Fraction(-2, 3)]
    for _ in range(199):
        q.append((q[-1] + Fraction(2, 5) * q[-2]) * Fraction(2, 3))
    return json.dumps(["0"] + [str(c) for c in q[1:]])


def dense_bell_g() -> str:
    """``1/(1 + x/3 + 2x^2)`` read dense through degree 200, the ``g`` of
    ``bell(1 + x/3 + 2x^2)``: its ``omega = x/g`` has 3 taps, so the group inverse fills
    the table on the omega side."""
    r = [Fraction(0), Fraction(1)]
    for _ in range(200):
        r.append(-(r[-1] / 3 + 2 * r[-2]))
    return json.dumps([str(c) for c in r[1:]])


DENSE_F, DENSE_G = '[1,"1/3",2]', '["-3/2",1,"2/5"]'

CAP_ANSWERS = (
    CapAnswer("invert200", 60, (
        "invert", "--omega", '[0,1,"1/3",-2,"2/5",1,"-1/2",3]', "--precision", "200",
        "--format", "json"),
        "5c301c1c055b992d37080d23e68acf85edcce0b6266903cac1de50867c1c970f"),
    # the omega rule with zeros inside omega's tail
    CapAnswer("invert200_gapped", 60, (
        "invert", "--omega", '[0,"1/2",0,0,3,0,0,"-2/5"]', "--precision", "200",
        "--format", "json"),
        "bd589bef73c685784cb9b90e26aa7971707ec0f73462006b1bd7d2d7d4ab34bf"),
    CapAnswer("invert200_dense", 60, (
        "invert", "--omega", dense_ones_omega(), "--precision", "200", "--format", "json"),
        "bfdf10618b6867bbcf448ba1780569c2a117bcf294e2431cdfd8fbaf6bfe2f9f"),
    CapAnswer("product200", 60, (
        "product", "--f1", DENSE_F, "--g1", DENSE_G, "--f2", "arithgeo",
        "--g2", '[2,"1/7",-1]', "--depth", "200", "--format", "json"),
        "632681692113c579a403dc8949ac70eeda149c3425d6611d44ce80d44a476ee7"),
    # g1's taps g_j/g0 have no common base, so the kernel's scale that both
    # substitutions read takes its window path
    CapAnswer("product200_window", 60, (
        "product", "--f1", DENSE_F, "--g1", '["-3/2",0,"1/5",0,0,"2/7"]', "--f2", "arithgeo",
        "--g2", '[2,"1/7",-1]', "--depth", "200", "--format", "json"),
        "4efd779c85b2b8d51f9cee92a45b2d077c059b019e5d9c1943be1f19daef966e"),
    CapAnswer("trace200", 60, (
        "trace", "--scheme", "curious", "--steps", "200", "--format", "json"),
        "a065c98db278990f0ab006957761d7f8143d68b3d0002155aae51f4945ea4d21"),
    # the column scheme's step maps
    CapAnswer("trace200_column", 60, (
        "trace", "--scheme", "column", "--n", "7", "--steps", "200", "--format", "csv"),
        "3ef3a823b1dc88c932e3f2c1c18c0cadc48edb3131d8bf9b163573fd9f111971"),
    # the pretty renderer
    CapAnswer("trace200_arithgeo", 60, (
        "trace", "--scheme", "arithgeo", "--steps", "200"),
        "36e370bce9eed5fb602a02aeb9b1479b7238b045b49ff46afd416ba879f1920c"),
    CapAnswer("inverse200", 60, (
        "inverse", "--f", DENSE_F, "--g", DENSE_G, "--depth", "200", "--format", "json"),
        "8e0270fc8fb27f81f6c2515e7cd252ced1e65bb8466f71f193108691d03f2739"),
    CapAnswer("azseq200", 60, (
        "azseq", "--f", DENSE_F, "--g", DENSE_G, "--precision", "200", "--format", "json"),
        "7c3e6a6e20c1963f272d283a789c1a66d775976f9d4dbcd2387aaacfa61b10a3"),
    # under 10 s since the (1, T) table uses the division kernel's per-degree scale
    CapAnswer("invert200_xg", 10, (
        "invert", "--precision", "200", "--format", "json", "--omega", x_over_g_omega()),
        "b8292fb7dafab0fbb42bc7c6f7d5893382601bab1e66ce1b55c926e5239236eb"),
    CapAnswer("azseq200_bell", 10, (
        "azseq", "--f", "one", "--precision", "200", "--format", "json", "--g", dense_bell_g()),
        "536a61496752a2ba818a700d8818ad8022ebad65616f84c70db0a8fc1e6056db"),
    # the geometric g's omega = x/g is short: the table fills the omega side
    CapAnswer("azseq200_geometric", 60, (
        "azseq", "--f", "arithgeo", "--g", "geometric", "--precision", "200", "--format", "json"),
        "5b6b19c7fc0b1b6ee163e44c92daa15702ebc79f1362ab7d8b9970a03008c22d"),
    CapAnswer("inverse200_bell", 60, (
        "inverse", "--f", "one", "--depth", "200", "--format", "json", "--g", dense_bell_g()),
        "8fa9c3a07e338748b3da4ee60b3904150dd983ccb8e4dae25eca73210e4c1544"),
)


if __name__ == "__main__":
    for answer in CAP_ANSWERS:
        print(answer.seconds, answer.sha256, answer.name, shlex.join(answer.argv))
