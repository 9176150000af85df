"""Sounding a 3x3 asynchronous scenario and reading the replica segments.
=========================================================================

Synthesizes the two-user scenario (three tx antennas, integer offsets 0 and
5, ten active taps per link), sounds it noiselessly, recovers every link
with the matched filter, then shows how the full-period matched filter
output repeats the channel response 2p times with alternating sign.
"""

import numpy as np

from chirpsounder import (
    build_sounding_matrix,
    derive_rng,
    generate_chirp,
    matched_filter_integer,
    preset,
    receive_integer,
    segmented_output,
    synthesize_channels,
)

cfg = preset("paper-sec5")
scenario = synthesize_channels(cfg, derive_rng(cfg.seed, 0))
waveforms = [generate_chirp(p, cfg.waveform_length) for p in cfg.chirp_rates]
r = receive_integer(scenario, waveforms)  # noiseless, to expose the structure

print("noiseless matched-filter recovery (worst tap error per link):")
for i, w in enumerate(waveforms):
    S = build_sounding_matrix(w, cfg.total_length)
    for m in range(scenario.nr):
        h_hat = matched_filter_integer(S, r[m])
        err = np.max(np.abs(h_hat - scenario.link(i, m).taps))
        print(f"  tx {i} (p={w.p}) -> rx {m}: {err:.2e}")

print("\nfull-period output of tx 2 (p=4) at rx 0: 8 replicas, signs + - + - ...")
w = waveforms[2]
segments = segmented_output(w, r[0])  # (2p, N/(2p)): one row per replica
stride = segments.shape[1]
taps = scenario.link(2, 0).taps
for j, segment in enumerate(segments):
    sign = "+" if j % 2 == 0 else "-"
    expected = taps if j % 2 == 0 else -taps
    dev = np.max(np.abs(segment[: len(taps)] - expected))
    peak = np.max(np.abs(segment))
    print(f"  segment {j} (lags {j * stride:3d}..{(j + 1) * stride - 1:3d}): "
          f"sign {sign}, peak {peak:.3f}, replica deviation {dev:.2e}")

print("\ncoarse magnitude profile of the 128-length output (16 bins):")
mags = np.abs(segments.ravel())
bins = mags.reshape(16, -1).max(axis=1)
scalebar = max(bins)
for k, v in enumerate(bins):
    bar = "#" * int(round(24 * v / scalebar))
    print(f"  n={8 * k:3d}..{8 * k + 7:3d} |{bar}")
