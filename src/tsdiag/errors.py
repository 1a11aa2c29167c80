"""Exception types shared across the pipeline, and the base of checked records."""


class Checked:
    """Mixin for a NamedTuple subclass whose ``_check`` raises on bad fields.

    It runs on each new record, and on each ``_replace``: namedtuple's
    ``_make`` would skip ``__new__``, so this one calls the constructor.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    _make = classmethod(lambda cls, values: cls(*values))


class ParseError(ValueError):
    """A malformed input file (bad field count, non-numeric token, ...)."""


class ValidationError(ValueError):
    """A syntactically valid value that violates a domain invariant."""


class ConfigError(ValueError):
    """A bad or inconsistent run configuration."""


class PipelineError(RuntimeError):
    """A pipeline stage failed; carries the stage name for diagnostics."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


class OutputError(RuntimeError):
    """An output file could not be written; the message leads with its path."""


class InputError(RuntimeError):
    """An input file could not be read or parsed; the message leads with its path."""
