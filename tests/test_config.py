"""Scenario configuration: each invalid field or section is one problem line.

The other config tests are ``TestConfig`` in ``test_harness.py``.
"""

import pytest

from chirpsounder import PRESETS, ConfigError, from_dict


@pytest.mark.parametrize("data", [[], None, "?", 3.5], ids=["list", "null", "string", "number"])
def test_document_not_an_object(data):
    with pytest.raises(ConfigError) as exc:
        from_dict(data)
    assert str(exc.value).splitlines()[1:] == ["  config: expected an object"]


WRONG_TYPED = [None, "?", {}, [], True, 3.5]


def _json_type(value):
    return "number" if type(value) in (int, float) else type(value)


def test_one_line_per_wrong_typed_field():
    # every top-level and section key of every preset, set to a value of another JSON
    # type, is one fault: exactly one problem line, and it names the key
    cases, failures = 0, []
    for name, make in PRESETS.items():
        keys = [(key,) for key in make()]
        keys += [(key, sub) for key, section in make().items() if isinstance(section, dict)
                 for sub in section]
        for path in keys:
            for value in WRONG_TYPED:
                data = make()
                parent = data if len(path) == 1 else data[path[0]]
                if _json_type(parent[path[-1]]) == _json_type(value):
                    continue
                parent[path[-1]] = value
                cases += 1
                try:
                    from_dict(data)
                    lines = []  # accepted without a word
                except ConfigError as exc:
                    lines = str(exc).splitlines()[1:]
                if len(lines) != 1 or path[-1] not in lines[0]:
                    failures.append((name, path, value, lines))
    assert cases == 745
    assert failures == []
