"""Exception types shared across the package.

The two subclasses are not exported on their own: callers that handle the
exported :class:`ConfigError` and :class:`ResourceLimitError` handle them
too, and the command line gives each its own message.
"""

from __future__ import annotations

__all__ = ["ConfigError", "ResourceLimitError"]


class ConfigError(Exception):
    """Invalid experiment configuration (CLI exit code 2)."""


class ResourceLimitError(RuntimeError):
    """Work refused because a configured cost ceiling would be exceeded
    (CLI exit code 3)."""


class NonFiniteDriftError(ConfigError, ArithmeticError):
    """The drift returned a non-finite value mid-recursion: the configured
    problem is not numerically well posed (CLI exit code 2)."""


class WorkerCrashError(ResourceLimitError):
    """A worker process died before returning its repetitions, for example
    killed for memory (CLI exit code 3)."""
