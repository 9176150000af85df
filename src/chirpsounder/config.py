"""Scenario configuration: parsing, validation, presets and canonical form.

A scenario file is JSON with the following top-level keys (all required
unless noted; unknown keys anywhere are rejected):

    name               free-form label
    nodes              {"tx": Mt, "rx": Mr}
    antennas           {"tx_node": [node of each tx antenna],
                        "rx_node": [node of each rx antenna]}
    channel            {"total_length": L, "active_taps": n or [[per link]],
                        "integer_offsets": [[d per (tx node, rx node)]],
                        "normalize_taps": bool, "redraw_per_trial": bool}
    fractional         {"enabled": bool, "mu": "uniform" | x | [[per pair]]}
                       ("mu" required only when enabled)
    waveform           {"length": N, "chirp_rates": [p per tx antenna]}
    pulse              {"kind": "raised-cosine", "rolloff": b, "half_support": M}
    snr_db             scalar or [per rx antenna]
    lo_topology        "independent" | "tx-shared" | "rx-shared"
    capacity           {"rho_db": [...], "bins": K}
    trials, seed       integers

Integer clock offsets (and fractional ones, when fixed) are specified per
(transmit node, receive node) pair, not per antenna link: antennas on the
same pair of nodes share local oscillators and therefore share the clock
mismatch, so per-link freedom would only invite inconsistent inputs.
"""

import json
import sys
from dataclasses import dataclass, asdict

import numpy as np

from .errors import ConfigError
from .waveform import check_design_constraints, _is_pow2

LO_TOPOLOGIES = ("independent", "tx-shared", "rx-shared")


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated, normalized experiment description."""

    name: str
    tx_node: tuple
    rx_node: tuple
    total_length: int
    active_taps: tuple  # (nt, nr) grid
    integer_offsets: tuple  # (mt, mr) grid
    normalize_taps: bool
    redraw_per_trial: bool
    fractional: bool
    mu_values: tuple  # (mt, mr) grid, or None for uniform / non-fractional
    waveform_length: int
    chirp_rates: tuple
    pulse_rolloff: float
    pulse_half_support: int
    snr_db: tuple
    lo_topology: str
    rho_db: tuple
    capacity_bins: int
    trials: int
    seed: int

    @property
    def mt(self):
        return max(self.tx_node) + 1

    @property
    def mr(self):
        return max(self.rx_node) + 1

    @property
    def nt(self):
        return len(self.tx_node)

    @property
    def nr(self):
        return len(self.rx_node)

    def per_link(self, pairs):
        """The (nt, nr) array of antenna links from an (mt, mr) grid of node pairs."""
        return np.asarray(pairs)[np.ix_(self.tx_node, self.rx_node)]

    @property
    def lead(self):
        """Lag origin M of the sounding window: 0 unless offsets are fractional."""
        return self.pulse_half_support if self.fractional else 0

    def design_report(self):
        """Waveform design-constraint report for this configuration."""
        return check_design_constraints(
            max(self.chirp_rates), self.waveform_length, self.total_length, self.lead
        )

    def to_dict(self):
        mu = "uniform" if self.mu_values is None else _degrid(self.mu_values)
        fractional = {"enabled": self.fractional}
        if self.fractional:
            fractional["mu"] = mu
        return {
            "name": self.name,
            "nodes": {"tx": self.mt, "rx": self.mr},
            "antennas": {"tx_node": list(self.tx_node), "rx_node": list(self.rx_node)},
            "channel": {
                "total_length": self.total_length,
                "active_taps": _degrid(self.active_taps),
                "integer_offsets": [list(row) for row in self.integer_offsets],
                "normalize_taps": self.normalize_taps,
                "redraw_per_trial": self.redraw_per_trial,
            },
            "fractional": fractional,
            "waveform": {
                "length": self.waveform_length,
                "chirp_rates": list(self.chirp_rates),
            },
            "pulse": {
                "kind": "raised-cosine",
                "rolloff": self.pulse_rolloff,
                "half_support": self.pulse_half_support,
            },
            "snr_db": _descalar(self.snr_db),
            "lo_topology": self.lo_topology,
            "capacity": {"rho_db": list(self.rho_db), "bins": self.capacity_bins},
            "trials": self.trials,
            "seed": self.seed,
        }

    def canonical_json(self):
        """Deterministic serialized form (sorted keys, two-space indent)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def replace(self, **kwargs):
        """This configuration with ``kwargs`` fields changed, validated anew."""
        return _from_dict(ScenarioConfig(**{**asdict(self), **kwargs}).to_dict())


def _degrid(grid):
    """Collapse a constant grid back to a scalar for compact serialization."""
    flat = [v for row in grid for v in row]
    if all(v == flat[0] for v in flat):
        return flat[0]
    return [list(row) for row in grid]


def _descalar(values):
    if all(v == values[0] for v in values):
        return values[0]
    return list(values)


class _Reader:
    """Strict mapping reader that records every problem it sees."""

    def __init__(self, data, context, problems, missing=None):
        if not isinstance(data, dict):
            problems.append(f"{context}: expected an object")
            data = {}
        self.data = data
        self.context = context
        self.problems = problems
        self.missing = set() if missing is None else missing  # absent required fields
        self.seen = set()

    def child(self, key):
        """Reader of the required object under ``key``."""
        return _Reader(self.get(key, default={}) or {}, key, self.problems, self.missing)

    def get(self, key, required=True, default=None):
        self.seen.add(key)
        if key not in self.data:
            if required:
                self.problems.append(f"{self.context}: missing key {key!r}")
                self.missing.add(key if self.context == "config" else f"{self.context}.{key}")
            return default
        return self.data[key]

    def flag(self, key, required=False, default=False):
        value = self.get(key, required, default)
        if type(value) is not bool:
            self.problems.append(
                f"{self.context}.{key}: expected true or false, got {value!r}"
            )
            return False
        return value

    def finish(self):
        unknown = sorted(set(self.data) - self.seen)
        for key in unknown:
            self.problems.append(f"{self.context}: unknown key {key!r}")


def _as_int(value, what, problems, minimum=0):
    """The integer ``value``, or ``minimum`` if rejected, so that parsing goes on."""
    if not isinstance(value, int) or isinstance(value, bool):
        problems.append(f"{what}: expected an integer, got {value!r}")
        return minimum
    if value < minimum:
        problems.append(f"{what}: must be >= {minimum}, got {value}")
        return minimum
    return value


def _as_number(value, what, problems, db=0):
    """The finite number ``value``, or 0.0 if rejected, so that parsing goes on.

    With ``db`` = +1 or -1 it is a dB level whose 10**(db*value/10) must not overflow.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.append(f"{what}: expected a number, got {value!r}")
        return 0.0
    if not abs(value) <= sys.float_info.max:  # NaN, +-inf, or an int past any float
        problems.append(f"{what}: expected a finite number, got {value!r}")
        return 0.0
    try:
        10.0 ** (db * value / 10.0)
    except OverflowError:
        problems.append(f"{what}: {value} dB overflows as a power ratio")
        return 0.0
    return float(value)


def _as_nodes(value, count, what, problems):
    """Node index of each antenna: a nonempty list covering [0, count), if count is known."""
    if not isinstance(value, list) or not value:
        problems.append(f"{what}: expected a nonempty list")
        return ()
    if count is not None and not all(type(v) is int and 0 <= v < count for v in value):
        problems.append(f"{what}: node indices must lie in [0, {count})")
    elif count is not None and set(value) != set(range(count)):
        problems.append(f"{what}: every node in [0, {count}) needs an antenna")
    return tuple(value)


def _as_grid(value, rows, cols, what, problems, cast):
    """Accept a scalar (broadcast) or a rows x cols nested list.

    With ``cast=int`` every entry must be an integer, with ``float`` a finite number.
    """
    if rows is None:  # node counts unknown: no shape to read the grid against
        return ()
    zeros = tuple(tuple(cast(0) for _ in range(cols)) for _ in range(rows))
    if not isinstance(value, list):
        value = [[value] * cols for _ in range(rows)]
    elif len(value) != rows or any(
        not isinstance(r, list) or len(r) != cols for r in value
    ):
        problems.append(f"{what}: expected a {rows}x{cols} grid")
        return zeros
    kinds, noun = ((int,), "an integer") if cast is int else ((int, float), "a finite number")
    if any(type(v) not in kinds for row in value for v in row) or (
        cast is float and not all(abs(v) <= sys.float_info.max for row in value for v in row)
    ):
        problems.append(f"{what}: expected {noun} or a {rows}x{cols} grid of them")
        return zeros
    return tuple(tuple(cast(v) for v in row) for row in value)


def from_dict(data):
    """Build a validated ScenarioConfig from a parsed JSON object."""
    return _from_dict(data)


def _from_dict(data):
    """``from_dict``'s body; ``replace`` calls it, adding no public config call."""
    problems = []
    top = _Reader(data, "config", problems)

    def passed(*fields):  # a rejected field holds a placeholder, not the user's value
        return not any(line.split(":")[0] in fields for line in problems)

    name = top.get("name", default="")
    if not isinstance(name, str):
        problems.append("config: 'name' must be a string")
        name = ""

    nodes = top.child("nodes")
    mt = _as_int(nodes.get("tx"), "nodes.tx", problems, minimum=1)
    mr = _as_int(nodes.get("rx"), "nodes.rx", problems, minimum=1)
    nodes.finish()
    if not passed("nodes.tx", "nodes.rx"):  # the indices and grids below need node counts
        mt = mr = None

    ants = top.child("antennas")
    tx_node = _as_nodes(ants.get("tx_node"), mt, "antennas.tx_node", problems)
    rx_node = _as_nodes(ants.get("rx_node"), mr, "antennas.rx_node", problems)
    ants.finish()
    nt, nr = max(len(tx_node), 1), max(len(rx_node), 1)

    chan = top.child("channel")
    total_length = _as_int(chan.get("total_length"), "channel.total_length", problems, 1)
    active = _as_grid(
        chan.get("active_taps"), nt, nr, "channel.active_taps", problems, int
    )
    offsets = _as_grid(
        chan.get("integer_offsets"), mt, mr, "channel.integer_offsets", problems, int
    )
    normalize = chan.flag("normalize_taps", default=True)
    redraw = chan.flag("redraw_per_trial")
    chan.finish()
    if any(v < 0 for row in active for v in row):
        problems.append("channel.active_taps: counts must be >= 0")
    if any(v < 0 for row in offsets for v in row):
        problems.append("channel.integer_offsets: offsets must be >= 0")

    frac = top.child("fractional")
    enabled = frac.flag("enabled", required=True)
    mu_values = None
    if enabled:
        mu = frac.get("mu")
        if isinstance(mu, (int, float, list)) and not isinstance(mu, bool):
            mu_values = _as_grid(mu, mt, mr, "fractional.mu", problems, float)
            if passed("fractional.mu") and not all(0.0 < v <= 0.5 for r in mu_values for v in r):
                problems.append("fractional.mu: fixed offsets must lie in (0, 0.5]")
        elif mu != "uniform":
            problems.append(
                "fractional.mu: expected 'uniform', a number, or a per-pair grid"
            )
    frac.finish()

    wf = top.child("waveform")
    wf_length = _as_int(wf.get("length"), "waveform.length", problems, 1)
    rates = wf.get("chirp_rates", default=[]) or []
    wf.finish()
    if not isinstance(rates, list) or (len(rates) != nt and passed("antennas.tx_node")):
        problems.append(f"waveform.chirp_rates: expected one rate per tx antenna ({nt})")
    elif any(not _is_pow2(v) for v in rates):
        problems.append("waveform.chirp_rates: every rate must be a power of 2")
    elif len(set(rates)) != len(rates):
        problems.append("waveform.chirp_rates: rates must be distinct")
    elif passed("waveform.length") and (
        not _is_pow2(wf_length) or wf_length <= 2 * max(rates, default=0)
    ):
        problems.append("waveform.length: must be a power of 2 exceeding twice the largest rate")

    pulse = top.child("pulse")
    pulse_kind = pulse.get("kind", required=False, default="raised-cosine")
    rolloff = _as_number(pulse.get("rolloff", required=False, default=0.25),
                         "pulse.rolloff", problems)
    half_support = _as_int(pulse.get("half_support", required=False, default=4),
                           "pulse.half_support", problems, 1)
    pulse.finish()
    if pulse_kind != "raised-cosine":
        problems.append(f"pulse.kind: unsupported kind {pulse_kind!r}")
    if not 0.0 <= rolloff <= 1.0:
        problems.append(f"pulse.rolloff: must lie in [0, 1], got {rolloff}")

    snr_raw = top.get("snr_db")
    if isinstance(snr_raw, list):
        if len(snr_raw) != nr:
            problems.append(f"snr_db: expected one value per rx antenna ({nr})")
            snr_raw = [0.0] * nr
        snr = tuple(_as_number(v, "snr_db", problems, db=-1) for v in snr_raw)
    else:
        snr = tuple([_as_number(snr_raw, "snr_db", problems, db=-1)] * nr)

    topology = top.get("lo_topology", required=False, default="independent")
    if topology not in LO_TOPOLOGIES:
        problems.append(f"lo_topology: expected one of {LO_TOPOLOGIES}, got {topology!r}")

    cap = top.child("capacity")
    rho_raw = cap.get("rho_db", default=[]) or []
    bins = _as_int(cap.get("bins", required=False, default=256), "capacity.bins", problems, 1)
    cap.finish()
    if not isinstance(rho_raw, list) or not rho_raw:
        problems.append("capacity.rho_db: expected a nonempty list")
        rho_raw = [0.0]
    rho = tuple(  # -Infinity dB is rho = 0
        -np.inf if v == -np.inf else _as_number(v, "capacity.rho_db", problems, db=1)
        for v in rho_raw
    )
    if bins < total_length and passed("capacity.bins", "channel.total_length"):
        problems.append(
            f"capacity.bins: must be >= channel.total_length ({total_length}), got {bins}"
        )

    trials = _as_int(top.get("trials"), "trials", problems, 1)
    seed = _as_int(top.get("seed"), "seed", problems, 0)
    top.finish()

    # cross-field consistency, read only from fields that passed their own checks
    if passed("nodes.tx", "nodes.rx", "antennas.tx_node", "antennas.rx_node",
              "channel.total_length", "channel.active_taps", "channel.integer_offsets"):
        for i, m in np.ndindex(len(tx_node), len(rx_node)):
            d = offsets[tx_node[i]][rx_node[m]]
            if active[i][m] + d > total_length:
                problems.append(
                    f"link (tx {i}, rx {m}): active_taps + offset = "
                    f"{active[i][m]} + {d} exceeds total_length {total_length}"
                )
    if topology == "tx-shared":
        if any(tuple(row) != tuple(offsets[0]) for row in offsets):
            problems.append(
                "lo_topology tx-shared: integer_offsets rows must be identical"
            )
        if mu_values is not None and any(row != mu_values[0] for row in mu_values):
            problems.append("lo_topology tx-shared: fractional.mu rows must be identical")
    if topology == "rx-shared":
        if any(len(set(row)) != 1 for row in offsets):
            problems.append(
                "lo_topology rx-shared: each integer_offsets row must be constant"
            )
        if mu_values is not None and any(len(set(row)) != 1 for row in mu_values):
            problems.append(
                "lo_topology rx-shared: each fractional.mu row must be constant"
            )

    if problems:  # a missing key is reported once, not again by its placeholder's checks
        lines = [line for line in problems if line.split(":")[0] not in top.missing]
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(lines))

    return ScenarioConfig(
        name=name,
        tx_node=tx_node,
        rx_node=rx_node,
        total_length=total_length,
        active_taps=active,
        integer_offsets=offsets,
        normalize_taps=normalize,
        redraw_per_trial=redraw,
        fractional=enabled,
        mu_values=mu_values,
        waveform_length=wf_length,
        chirp_rates=tuple(rates),
        pulse_rolloff=rolloff,
        pulse_half_support=half_support,
        snr_db=snr,
        lo_topology=topology,
        rho_db=rho,
        capacity_bins=bins,
        trials=trials,
        seed=seed,
    )


def from_json(text):
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past int's digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return from_dict(data)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    return from_json(text)


def _preset_paper_sec5():
    return {
        "name": "paper-sec5",
        "nodes": {"tx": 2, "rx": 3},
        "antennas": {"tx_node": [0, 0, 1], "rx_node": [0, 1, 2]},
        "channel": {
            "total_length": 15,
            "active_taps": 10,
            "integer_offsets": [[0, 0, 0], [5, 5, 5]],
            "normalize_taps": True,
            "redraw_per_trial": False,
        },
        "fractional": {"enabled": False},
        "waveform": {"length": 128, "chirp_rates": [1, 2, 4]},
        "pulse": {"kind": "raised-cosine", "rolloff": 0.25, "half_support": 4},
        "snr_db": 25.0,
        "lo_topology": "independent",
        "capacity": {"rho_db": [0.0, 5.0, 10.0, 20.0], "bins": 256},
        "trials": 10000,
        "seed": 3581,
    }


def _preset_paper_sec5_fractional():
    cfg = _preset_paper_sec5()
    cfg["name"] = "paper-sec5-fractional"
    cfg["fractional"] = {"enabled": True, "mu": "uniform"}
    # the fractional window 2M + L - 1 = 22 needs N > 2*4*22 with rates up
    # to 4, so the period doubles relative to the integer-offset preset
    cfg["waveform"]["length"] = 256
    return cfg


def _preset_capacity(name, offsets, mu):
    topology = {
        "capacity-tx-shared": "tx-shared",
        "capacity-rx-shared": "rx-shared",
        "capacity-multi-lo": "independent",
    }[name]
    return {
        "name": name,
        "nodes": {"tx": 2, "rx": 2},
        "antennas": {"tx_node": [0, 1], "rx_node": [0, 1]},
        "channel": {
            "total_length": 11,
            "active_taps": 3,
            "integer_offsets": offsets,
            "normalize_taps": True,
            "redraw_per_trial": False,
        },
        "fractional": {"enabled": True, "mu": mu},
        "waveform": {"length": 128, "chirp_rates": [1, 2]},
        "pulse": {"kind": "raised-cosine", "rolloff": 0.25, "half_support": 4},
        "snr_db": 25.0,
        "lo_topology": topology,
        "capacity": {"rho_db": [0.0, 5.0, 10.0, 20.0], "bins": 256},
        "trials": 1,
        "seed": 90125,
    }


PRESETS = {
    "paper-sec5": _preset_paper_sec5,
    "paper-sec5-fractional": _preset_paper_sec5_fractional,
    "capacity-tx-shared": lambda: _preset_capacity(
        "capacity-tx-shared", [[3, 7], [3, 7]], [[0.3, 0.15], [0.3, 0.15]]
    ),
    "capacity-rx-shared": lambda: _preset_capacity(
        "capacity-rx-shared", [[3, 3], [7, 7]], [[0.2, 0.2], [0.45, 0.45]]
    ),
    "capacity-multi-lo": lambda: _preset_capacity(
        "capacity-multi-lo", [[2, 5], [7, 3]], [[0.1, 0.3], [0.25, 0.45]]
    ),
}


def preset(name):
    """Load a built-in named configuration."""
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    return from_dict(PRESETS[name]())
