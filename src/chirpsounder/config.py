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
    trials, seed       integers: 1 <= trials <= 2**32 (a cap on run length, far
                       inside the 64-bit counter word that trial t sets), seed >= 0

Validation reports each fault it finds once, all in one ConfigError: a section that
is not an object (null and [] included) is one fault, and a check that needs a
rejected field is skipped.

Integer clock offsets (and fractional ones, when fixed) are specified per
(transmit node, receive node) pair, not per antenna link: antennas on the
same pair of nodes share local oscillators and therefore share the clock
mismatch, so per-link freedom would only invite inconsistent inputs.
"""

import json
import sys
from dataclasses import dataclass

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
        """The (..., nt, nr) links of an (mt, mr) grid of node pairs or a (..., mt, mr) stack."""
        return np.asarray(pairs).take(self.tx_node, -2).take(self.rx_node, -1)

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
        return _from_dict(ScenarioConfig(**{**vars(self), **kwargs}).to_dict())


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
    """Strict reader of one JSON object, or of None if that object is missing or rejected."""

    def __init__(self, data, context, problems):
        self.data = data
        self.context = context
        self.problems = problems
        self.seen = set()

    def child(self, key):
        """Reader of the required object under ``key``."""
        return _Reader(self.field(key, _as_object), key, self.problems)

    def field(self, key, parse, *args, default=None):
        """``parse(value, what, problems, *args)`` of the value under ``key``.

        A field reads as its valid value or as None, and None means that a problem
        line is already written: its own, its object's or that of a count it needs.
        A key without a default is required.
        """
        self.seen.add(key)
        if self.data is None:
            return None
        if key not in self.data:
            if default is None:
                self.problems.append(f"{self.context}: missing key {key!r}")
            return default
        what = key if self.context == "config" else f"{self.context}.{key}"
        return parse(self.data[key], what, self.problems, *args)

    def finish(self):
        for key in sorted(set(self.data or ()) - self.seen):
            self.problems.append(f"{self.context}: unknown key {key!r}")


def _reject(problems, line):
    """Write a rejected field's one problem line; the field then reads as None."""
    problems.append(line)
    return None


def _checked(valid, fault):
    """A parser of the values ``valid`` accepts; ``fault`` formats a rejected one's line."""
    def parse(value, what, problems):
        return value if valid(value) else _reject(problems, fault.format(what=what, value=value))
    return parse


# Each parser returns the valid value, or _reject's None after one problem line.
_as_object = _checked(lambda v: isinstance(v, dict), "{what}: expected an object")
_as_name = _checked(lambda v: isinstance(v, str), "config: {what!r} must be a string")
_as_flag = _checked(lambda v: type(v) is bool, "{what}: expected true or false, got {value!r}")
_as_topology = _checked(
    lambda v: v in LO_TOPOLOGIES, f"{{what}}: expected one of {LO_TOPOLOGIES}, got {{value!r}}"
)
_as_pulse_kind = _checked(lambda v: v == "raised-cosine", "{what}: unsupported kind {value!r}")


def _as_int(value, what, problems, minimum=0, maximum=None):
    """An integer of at least ``minimum`` and, if one is given, at most ``maximum``."""
    if not isinstance(value, int) or isinstance(value, bool):
        return _reject(problems, f"{what}: expected an integer, got {value!r}")
    if value < minimum:
        return _reject(problems, f"{what}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        return _reject(problems, f"{what}: must be <= {maximum}, got {value}")
    return value


def _as_number(value, what, problems, span=None, db=0):
    """A finite number, as a float, inside the closed interval ``span`` if one is given.

    With ``db`` = +1 or -1 it is a dB level whose 10**(db*value/10) must not overflow.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return _reject(problems, f"{what}: expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, +-inf, or an int past any float
        return _reject(problems, f"{what}: expected a finite number, got {value!r}")
    try:
        10.0 ** (db * value / 10.0)
    except OverflowError:
        return _reject(problems, f"{what}: {value} dB overflows as a power ratio")
    if span is not None and not span[0] <= value <= span[1]:
        return _reject(problems, f"{what}: must lie in [{span[0]}, {span[1]}], got {float(value)}")
    return float(value)


def _as_levels(value, what, problems, db):
    """A nonempty list of dB levels (see ``_as_number``), -Infinity included where ``db`` = +1."""
    if not isinstance(value, list) or not value:
        return _reject(problems, f"{what}: expected a nonempty list")
    for v in value:  # the first rejected entry is the field's one problem line
        if not (db > 0 and v == -np.inf) and _as_number(v, what, problems, db=db) is None:
            return None
    return tuple(map(float, value))


def _as_snr(value, what, problems, count):
    """SNR in dB at each of ``count`` rx antennas: a scalar, or one value per antenna."""
    if not isinstance(value, list):
        level = _as_number(value, what, problems, db=-1)
        return None if None in (level, count) else (level,) * count
    if count is not None and len(value) != count:
        return _reject(problems, f"{what}: expected one value per rx antenna ({count})")
    return _as_levels(value, what, problems, -1)


def _as_nodes(value, what, problems, count):
    """Node index of each antenna: a nonempty list covering [0, count), if count is known."""
    if not isinstance(value, list) or not value:
        return _reject(problems, f"{what}: expected a nonempty list")
    if count is not None and not all(type(v) is int and 0 <= v < count for v in value):
        return _reject(problems, f"{what}: node indices must lie in [0, {count})")
    if count is not None and len(set(value)) != count:  # indices lie in [0, count)
        return _reject(problems, f"{what}: every node in [0, {count}) needs an antenna")
    return tuple(value)


def _as_rates(value, what, problems, count):
    """Distinct power-of-2 chirp rates, one per tx antenna if ``count`` is known."""
    if not isinstance(value, list) or not value:
        return _reject(problems, f"{what}: expected a nonempty list")
    if count is not None and len(value) != count:
        return _reject(problems, f"{what}: expected one rate per tx antenna ({count})")
    if not all(isinstance(v, int) and not isinstance(v, bool) and _is_pow2(v) for v in value):
        return _reject(problems, f"{what}: every rate must be an integer power of 2, got {value!r}")
    if len(set(value)) != len(value):
        return _reject(problems, f"{what}: rates must be distinct")
    return tuple(value)


def _as_grid(value, what, problems, rows, cols, cast, valid, rule):
    """A scalar (broadcast) or a rows x cols nested list whose entries are all ``valid``.

    With ``cast=int`` every entry must be an integer, with ``float`` a finite
    number; ``rule`` names what ``valid`` asks. Without a shape the grid is not read.
    """
    if None in (rows, cols):
        return None
    if not isinstance(value, list):
        value = [[value] * cols for _ in range(rows)]
    elif len(value) != rows or any(
        not isinstance(r, list) or len(r) != cols for r in value
    ):
        return _reject(problems, f"{what}: expected a {rows}x{cols} grid")
    kinds, noun = ((int,), "an integer") if cast is int else ((int, float), "a finite number")
    if any(type(v) not in kinds for row in value for v in row) or (
        cast is float and not all(abs(v) <= sys.float_info.max for row in value for v in row)
    ):
        return _reject(problems, f"{what}: expected {noun} or a {rows}x{cols} grid of them")
    if not all(valid(v) for row in value for v in row):
        return _reject(problems, f"{what}: {rule}")
    return tuple(tuple(cast(v) for v in row) for row in value)


def _as_mu(value, what, problems, rows, cols):
    """'uniform', or fixed fractional offsets in (0, 0.5]: a number or a per-pair grid."""
    if value == "uniform":
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float, list)):
        return _reject(problems, f"{what}: expected 'uniform', a number, or a per-pair grid")
    return _as_grid(value, what, problems, rows, cols, float,
                    lambda v: 0.0 < v <= 0.5, "fixed offsets must lie in (0, 0.5]")


def from_dict(data):
    """Build a validated ScenarioConfig from a parsed JSON object."""
    return _from_dict(data)


def _from_dict(data):
    """``from_dict``'s body; ``replace`` calls it, adding no public config call."""
    problems = []
    top = _Reader(_as_object(data, "config", problems), "config", problems)
    name = top.field("name", _as_name)

    nodes = top.child("nodes")
    mt = nodes.field("tx", _as_int, 1)
    mr = nodes.field("rx", _as_int, 1)
    nodes.finish()

    ants = top.child("antennas")
    tx_node = ants.field("tx_node", _as_nodes, mt)
    rx_node = ants.field("rx_node", _as_nodes, mr)
    ants.finish()
    nt, nr = tx_node and len(tx_node), rx_node and len(rx_node)  # None when rejected
    mt, mr = tx_node and mt, rx_node and mr  # grids are sized only by counts antennas cover

    chan = top.child("channel")
    total_length = chan.field("total_length", _as_int, 1)
    active = chan.field(
        "active_taps", _as_grid, nt, nr, int, lambda v: v >= 0, "counts must be >= 0"
    )
    offsets = chan.field(
        "integer_offsets", _as_grid, mt, mr, int, lambda v: v >= 0, "offsets must be >= 0"
    )
    normalize = chan.field("normalize_taps", _as_flag, default=True)
    redraw = chan.field("redraw_per_trial", _as_flag, default=False)
    chan.finish()

    frac = top.child("fractional")
    enabled = frac.field("enabled", _as_flag)
    mu_values = None  # uniform, or not fractional
    if enabled:
        mu = frac.field("mu", _as_mu, mt, mr)
        mu_values = None if mu == "uniform" else mu
    elif enabled is None:  # whether mu belongs here hangs on the rejected flag
        frac.seen.add("mu")
    frac.finish()

    wf = top.child("waveform")
    wf_length = wf.field("length", _as_int, 1)
    rates = wf.field("chirp_rates", _as_rates, nt)
    wf.finish()
    if None not in (wf_length, rates) and not (_is_pow2(wf_length) and wf_length > 2 * max(rates)):
        problems.append("waveform.length: must be a power of 2 exceeding twice the largest rate")

    pulse = top.child("pulse")
    pulse.field("kind", _as_pulse_kind, default="raised-cosine")
    rolloff = pulse.field("rolloff", _as_number, (0, 1), default=0.25)
    half_support = pulse.field("half_support", _as_int, 1, default=4)
    pulse.finish()

    snr = top.field("snr_db", _as_snr, nr)
    topology = top.field("lo_topology", _as_topology, default="independent")

    cap = top.child("capacity")
    rho = cap.field("rho_db", _as_levels, 1)
    bins = cap.field("bins", _as_int, 1, default=256)
    cap.finish()
    if None not in (bins, total_length) and bins < total_length:
        problems.append(
            f"capacity.bins: must be >= channel.total_length ({total_length}), got {bins}"
        )

    trials = top.field("trials", _as_int, 1, 2**32)
    seed = top.field("seed", _as_int, 0)
    top.finish()

    # cross-field consistency, read only from fields that are all valid
    if None not in (tx_node, rx_node, total_length, active, offsets):
        for i, m in np.ndindex(nt, nr):
            d = offsets[tx_node[i]][rx_node[m]]
            if active[i][m] + d > total_length:
                problems.append(
                    f"link (tx {i}, rx {m}): active_taps + offset = "
                    f"{active[i][m]} + {d} exceeds total_length {total_length}"
                )
    for grid, label in ((offsets, "integer_offsets"), (mu_values, "fractional.mu")):
        if topology == "tx-shared" and grid and any(row != grid[0] for row in grid):
            problems.append(f"lo_topology tx-shared: {label} rows must be identical")
        if topology == "rx-shared" and grid and any(len(set(row)) != 1 for row in grid):
            problems.append(f"lo_topology rx-shared: each {label} row must be constant")

    if problems:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(problems))

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
        chirp_rates=rates,
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


def _preset_capacity(name, topology, offsets, mu):
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
        "capacity-tx-shared", "tx-shared", [[3, 7], [3, 7]], [[0.3, 0.15], [0.3, 0.15]]
    ),
    "capacity-rx-shared": lambda: _preset_capacity(
        "capacity-rx-shared", "rx-shared", [[3, 3], [7, 7]], [[0.2, 0.2], [0.45, 0.45]]
    ),
    "capacity-multi-lo": lambda: _preset_capacity(
        "capacity-multi-lo", "independent", [[2, 5], [7, 3]], [[0.1, 0.3], [0.25, 0.45]]
    ),
}


def preset(name):
    """Load a built-in named configuration."""
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    return from_dict(PRESETS[name]())
