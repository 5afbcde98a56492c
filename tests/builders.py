"""Test-only builders: random inputs that no verdict needs."""

from pqnverify.expr import Chart
from pqnverify.fields import Endomorphism
from pqnverify.verify import random_polynomial


def random_endomorphism(chart: Chart, gen, **kw) -> Endomorphism:
    """An endomorphism whose entries are small random polynomials, driven
    by a splitmix64 iterator."""
    dim = chart.dim
    return Endomorphism(
        chart,
        tuple(
            tuple(random_polynomial(chart, gen, **kw) for _ in range(dim))
            for _ in range(dim)
        ),
    )
