"""Chirp waveform family: correlations, PAPR, and design constraints.
=====================================================================

Builds the three-waveform family used throughout the demos (rates 1, 2, 4
at period 128), prints where the autocorrelation comb sits, verifies that
cross-correlations vanish at every lag, and walks the design-constraint
check through a few scenarios.
"""

import numpy as np

from chirpsounder import (
    check_design_constraints,
    closed_form_autocorrelation,
    cyclic_correlation,
    generate_chirp,
    papr,
)

N = 128
rates = [1, 2, 4]
waveforms = {p: generate_chirp(p, N) for p in rates}

print(f"waveform family: rates {rates}, period {N}")
for p, w in waveforms.items():
    print(f"  p={p}: |s[n]| = {abs(w.samples[0]):.6f} (= 1/sqrt(N)), "
          f"PAPR = {papr(w.samples):.12f}")

print("\nautocorrelation comb (nonzero lags only):")
for p, w in waveforms.items():
    comb = [
        (tau, closed_form_autocorrelation(p, N, tau))
        for tau in range(N)
        if closed_form_autocorrelation(p, N, tau) != 0
    ]
    marks = ", ".join(f"R[{tau}]={v:+d}" for tau, v in comb)
    print(f"  p={p}: {marks}")
    # the periodic correlation at lag tau is c[-tau mod N] of the cyclic one
    c = cyclic_correlation(w.samples, w.samples)
    worst = max(
        abs(c[-tau % N] - closed_form_autocorrelation(p, N, tau)) for tau in range(N)
    )
    print(f"        measured deviation from the closed form: {worst:.2e}")

print("\ncross-correlations vanish at every lag:")
for a in range(len(rates)):
    for b in range(a + 1, len(rates)):
        wa, wb = waveforms[rates[a]], waveforms[rates[b]]
        worst = np.max(np.abs(cyclic_correlation(wa.samples, wb.samples)))
        print(f"  (p={rates[a]}, q={rates[b]}): max |C[tau]| = {worst:.2e}")

print("\ndesign constraints (N must exceed 2*pmax*window):")
cases = [  # (label, span L, pulse half-support M; M = 0 for integer offsets)
    ("integer offsets, 15-tap span", 15, 0),
    ("integer offsets, 16-tap span", 16, 0),
    ("fractional offsets, M=4 pulse", 15, 4),
]
for label, L, M in cases:
    report = check_design_constraints(4, N, L, M)
    status = "pass" if report.passed else "FAIL"
    print(f"  {label}: {status} (bound {report.bound}, slack {report.slack})")
print("  -> the fractional case needs a longer period; N = 256 passes:",
      check_design_constraints(4, 256, 15, M=4).passed)
