from fractions import Fraction

import pytest

import genosc.quantization
from genosc import AlgebraElement
from genosc.exact import ZERO


@pytest.fixture
def no_half_form_shift(monkeypatch):
    """quantize with weight 2 k_b in place of 2 k_b + delta_ab: Q(e) less
    hbar (sum_a c_aa) / 2 times the identity.  Returns the list of elements
    it quantized, so a test can see that the patch is reached."""
    quantize = genosc.quantization.quantize
    calls = []

    def unshifted(e, l):
        calls.append(e)
        trace = sum((c for (a, b), c in e.terms.items() if a == b), ZERO)
        half_trace = AlgebraElement(e.m, constant=trace * Fraction(1, 2))
        return quantize(e, l) - quantize(half_trace, l).shift_hbar(1)

    monkeypatch.setattr(genosc.quantization, "quantize", unshifted)
    return calls
