"""Joint estimation of the fractional clock offset and the channel taps.
========================================================================

With a fractional offset the matched filter returns the taps smeared by the
pulse-shaping matrix G(mu).  This demo sounds a single link at a known mu,
shows the smeared output, then recovers (mu, h) jointly and compares with a
brute-force profile search.  Finally a short noisy sweep shows the
degradation relative to the integer-offset bound.
"""

import numpy as np

from chirpsounder import (
    build_pulse,
    build_shaping_matrix,
    build_sounding_matrix,
    generate_chirp,
    joint_estimate,
    matched_filter_fractional,
    preset,
    receive_fractional,
    run_mse_experiment,
)
from chirpsounder.channel import MimoScenario

L, M, N = 15, 4, 256
pulse = build_pulse(rolloff=0.25, M=M)
rng = np.random.default_rng(2024)

mu_true = 0.37
taps = np.zeros(L, dtype=complex)
block = rng.standard_normal(10) + 1j * rng.standard_normal(10)
taps[5:] = block / np.linalg.norm(block)

w = generate_chirp(1, N)
sc = MimoScenario(  # one link: taps[0, 0], offset d + mu = 5 + mu_true
    taps=taps[None, None], d=np.array([[5]]), mu=np.array([[mu_true]]), sigma2=np.zeros(1)
)
r = receive_fractional(sc, [w], pulse)
S = build_sounding_matrix(w, L, M)
hF = matched_filter_fractional(S, r[0])

print(f"true offset mu = {mu_true}, 10 active taps at lags 5..14")
print("matched filter output magnitude (length 2M+L-1 = 22):")
print("  " + " ".join(f"{abs(v):.2f}" for v in hF))
print("  (the taps leak into neighbouring lags through the pulse)")

rep = joint_estimate(hF, pulse, L)
print(f"\njoint estimate: mu_hat = {rep.mu_hat:.8f} "
      f"(error {abs(rep.mu_hat - mu_true):.2e}), "
      f"{rep.iterations} polish steps, relative residual {rep.residual:.2e}")
print(f"tap error: {np.linalg.norm(rep.h_hat - taps):.2e}")

# brute-force profile search as a cross-check
mus = np.linspace(0.0, 0.5, 2001)
best = min(
    mus,
    key=lambda mu: float(
        np.sum(
            np.abs(
                hF
                - build_shaping_matrix(pulse, float(mu), L)
                @ np.linalg.lstsq(build_shaping_matrix(pulse, float(mu), L), hF, rcond=None)[0]
            )
            ** 2
        )
    ),
)
print(f"profile grid search picks mu = {best:.6f} (step 2.5e-4)")

print("\nnoisy sweep: 100 trials at 25 dB, offsets redrawn per trial")
cfg = preset("paper-sec5-fractional").replace(trials=100)
result = run_mse_experiment(cfg)
for row in result.antennas:
    print(f"  rx {row.rx}: MSE/bound = {row.ratio:.2f}  "
          f"(integer-offset sounding would sit at 1.00)")
