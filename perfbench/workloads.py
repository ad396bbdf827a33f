"""The four workloads: inputs made from the seed, the public entry point
each one calls, and the check its verdict must pass.

The seed orders Q_POOL; a run visits every q of the pool in that order and
starts over, so runs with different seeds do the same mix of work. One q
alone is not steady, because the cost depends on q: duality_report(2, 4) is
1.5x cheaper at q = -2, where z = [2]_q = -1. z = [n]_q follows from q. The
package only receives these parameters. Entry points are looked up on their
module at call time, so the tracer's in-place wrappers see the call.

Sizes were cut so that a run holds many verdicts: the Gram certificate runs
at r = 3 (34 x 34), as r = 4 takes about a minute per verdict, and the
duality cases are (4, 2) and (3, 2), as (3, 3) and (2, 4) take 7-20 s.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# Rational, outside {0, 1, -1}, so never a root of unity. Holds the release
# gate's 2, 1/2 and -2.
Q_POOL = (Fraction(2), Fraction(1, 2), Fraction(-2))

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())


def q_order(seed: int) -> list[Fraction]:
    order = list(Q_POOL)
    random.Random(seed).shuffle(order)
    return order


def quantum(m: int, q: Fraction) -> Fraction:
    """[m]_q = 1 + q + ... + q^(m-1)."""
    return sum((q**j for j in range(m)), Fraction(0))


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is in BENCHMARK.json."""

    name: str
    build: Callable[[Fraction], object]  # q -> inputs; runs in set-up
    run: Callable[[object], object]  # inputs -> verdict; the timed call
    check: Callable[[object, Fraction], tuple[dict, str | None]]  # -> (facts, problem)
    layers: tuple[str, ...]  # per-layer metrics this workload must move


# -- duality --------------------------------------------------------------------


def _duality(n: int, r: int):
    def build(q):
        from braidrook.burau import BurauParams

        return BurauParams.preset(n, q)

    def run(params):
        from braidrook import tensor

        return tensor.duality_report(n, r, params)

    def check(report, q):
        dims = [
            int(m.group(1))
            for c in report["checks"]
            if c["name"] == "centralizer_dimension_sum"
            for m in [re.search(r"centralizer dim (\d+)", c["detail"])]
            if m
        ]
        facts = {
            "all_pass": report["all_pass"],
            "faithful": report["faithful"],
            "centralizer_dim": dims[0] if dims else None,
            "z": report["z"],
        }
        want = EXPECTED["duality"][f"{n},{r}"]
        if not report["all_pass"]:
            bad = [c["name"] for c in report["checks"] if c["status"] != "pass"]
            return facts, f"checks failed: {bad}"
        if report["faithful"] != (n > r):
            return facts, f"faithful is {report['faithful']}, expected {n > r}"
        if facts["centralizer_dim"] != want["centralizer_dim"]:
            return facts, f"centralizer dim {facts['centralizer_dim']} != {want['centralizer_dim']}"
        if report["z"] != str(quantum(n, q)):
            return facts, f"z is {report['z']}, expected {quantum(n, q)}"
        return facts, None

    return build, run, check


_DUALITY_LAYERS = (
    "tensor.centralizer_of_braid.s",
    "tensor.rook_image.s",
    "tensor.enveloping_braid.s",
    "tensor.diagram_op.calls",
    "tensor.diagram_op.s",
    "linalg.commutant.s",
    "linalg.nullspace_of_rows.rows",
    "linalg.nullspace_of_rows.cols",
    "linalg.span_closure.s",
    "linalg.spans_equal.s",
    "linalg.VectorSpan.add.calls",
    "matrix.matmul.calls",
    "matrix.kron.calls",
)

# -- Gram certificate -------------------------------------------------------------

GRAM_R = 3


def _gram_build(q):
    return quantum(3, q)


def _gram_run(z):
    from braidrook import cellular

    return cellular.semisimplicity_certificate(GRAM_R, z)


def _gram_check(cert, q):
    facts = {
        "semisimple": cert["semisimple"],
        "gram_size": cert["gram_size"],
        "gram_det": cert["gram_det"],
    }
    want = EXPECTED["gram"]
    if not cert["semisimple"]:
        return facts, "not semisimple"
    if cert["gram_size"] != want["gram_size"]:
        return facts, f"gram size {cert['gram_size']} != {want['gram_size']}"
    if cert["gram_det"] != want["gram_det"].get(str(q)):
        return facts, f"gram det {cert['gram_det']} differs from the pinned value"
    return facts, None


# -- Lie closures -----------------------------------------------------------------

LIE_SIZES = (8, 9, 10)


def _lie_build(q):
    from braidrook import lieclosure

    return [
        (n, family, gens(n, q))
        for n in LIE_SIZES
        for family, gens in (("u", lieclosure.u_generators), ("v", lieclosure.v_generators))
    ]


def _lie_run(families):
    from braidrook import lieclosure

    return [(n, family, lieclosure.bracket_closure(gens).dim) for n, family, gens in families]


def _lie_check(dims, q):
    facts = {f"{family}{n}": dim for n, family, dim in dims}
    for n, family, dim in dims:
        want = (n - 1) ** 2 if family == "u" else (n - 1) ** 2 - 1
        if dim != want:
            return facts, f"{family} closure at n={n} has dim {dim}, expected {want}"
    return facts, None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "duality-modular",
            *_duality(4, 2),
            _DUALITY_LAYERS
            + (
                "linalg.nullspace.modular_calls",
                "linalg.VectorSpan.add.accepted",
                "linalg.VectorSpan.add.accept_ratio",
                "modlinalg.certified_nullspace.s",
                "modlinalg.primes_tried",
                "modlinalg.rref_mod.s",
                "modlinalg.verify.s",
                "matrix.matmul.s",
            ),
        ),
        Workload(
            "duality-exact",
            *_duality(3, 2),
            _DUALITY_LAYERS + ("linalg.nullspace.exact_calls", "linalg.rref.s"),
        ),
        Workload(
            "gram-trace",
            _gram_build,
            _gram_run,
            _gram_check,
            (
                "diagrams.compose.calls",
                "linalg.det.s",
                "cellular.semisimplicity_certificate.s",
                "cellular.gram_build.s",
            ),
        ),
        Workload(
            "lie-bracket",
            _lie_build,
            _lie_run,
            _lie_check,
            (
                "lieclosure.bracket_closure.s",
                "lieclosure.commutator.calls",
                "matrix.matmul.calls",
                "matrix.matmul.s",
                "linalg.VectorSpan.add.calls",
                "linalg.VectorSpan.add.accepted",
                "linalg.VectorSpan.add.accept_ratio",
            ),
        ),
    )
}
