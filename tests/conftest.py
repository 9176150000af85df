"""Shared test settings: every hypothesis property runs one fixed example set.

``derandomize=True`` seeds the example search from the test itself (and
keeps no example database), so tier-1 results do not vary between runs;
``deadline=None`` keeps slow first calls from failing a property.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")
