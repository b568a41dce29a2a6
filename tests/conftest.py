"""Shared test helpers.

``random_power_series`` is the generator the ``verify`` suites use, so
tests and suites draw their random inputs from one definition.
"""

from polyhardy.cli import _random_power_series as random_power_series  # noqa: F401
