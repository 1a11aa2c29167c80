"""Exception types shared across the pipeline."""


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
