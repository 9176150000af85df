"""Monte-Carlo sounding MSE against the estimator variance bound.
================================================================

Runs the two-user preset at 25 dB for a quick 2000-trial sweep: with only
integer clock offsets the matched filter is exact up to filtered noise, so
the per-antenna MSE should sit on the bound 2*L*sigma^2 (ratio 1).  The
sign-corrected average over the 2p replica segments is also compared to a
single segment: the replicas carry perfectly anti-correlated noise, so
averaging buys nothing.
"""

import numpy as np

from chirpsounder import (
    average_segments,
    awgn,
    build_sounding_matrix,
    derive_rng,
    generate_chirp,
    preset,
    receive_integer,
    run_mse_experiment,
    segmented_output,
    synthesize_channels,
)

cfg = preset("paper-sec5").replace(trials=2000)
result = run_mse_experiment(cfg)

print(f"preset {cfg.name}: {cfg.trials} trials at {cfg.snr_db[0]:g} dB")
print("per receive antenna:")
for row in result.antennas:
    print(f"  rx {row.rx}: MSE {row.mse:.4e}  bound {row.crb:.4e}  "
          f"ratio {row.ratio:.4f}")

print("\nper link (tx, rx, ratio):")
for row in result.links:
    print(f"  ({row.tx}, {row.rx}): {row.ratio:.4f}")

# ---- averaging the replica segments does not reduce the MSE ----
scenario = synthesize_channels(cfg, derive_rng(cfg.seed, 0))
waveforms = [generate_chirp(p, cfg.waveform_length) for p in cfg.chirp_rates]
matrices = [build_sounding_matrix(w, cfg.total_length) for w in waveforms]
r0 = receive_integer(scenario, matrices)  # noiseless; awgn adds the noise below
taps = scenario.taps[2, 0]
gen = derive_rng(cfg.seed, 1, 0)
err_single = err_avg = 0.0
trials = 5000
for _ in range(trials):
    r = awgn(r0[:1], scenario.sigma2[:1], gen)
    segments = segmented_output(waveforms[2], r[0])
    err_single += np.sum(np.abs(segments[0][: len(taps)] - taps) ** 2)
    err_avg += np.sum(np.abs(average_segments(segments)[: len(taps)] - taps) ** 2)
print(f"\nsegment averaging over {trials} noisy trials (tx 2, p=4, 8 segments):")
print(f"  single-segment MSE : {err_single / trials:.6e}")
print(f"  averaged MSE       : {err_avg / trials:.6e}")
print(f"  ratio              : {err_avg / err_single:.4f}  (1.0 = no gain; "
      f"a white-noise average would have shown {1 / 8:.3f})")
