"""Exception types shared across the package: one per refusal exit code.

A drift that turns non-finite is a :class:`ConfigError`, the configured
problem not being numerically well posed; a worker process that dies is a
:class:`ResourceLimitError`, as it most often runs out of memory.
"""

from __future__ import annotations

__all__ = ["ConfigError", "ResourceLimitError"]


class ConfigError(Exception):
    """Invalid experiment configuration (CLI exit code 2)."""


class ResourceLimitError(RuntimeError):
    """Work refused because a configured cost ceiling would be exceeded, or
    lost because a worker process died (CLI exit code 3)."""
