"""Shared exception types for the pipeline."""


class ConfigurationError(ValueError):
    """Bad run configuration: invalid dates, broken profile file, missing decompressor."""


class DumpFormatError(RuntimeError):
    """The XML dump stream is malformed or a decompressor failed."""


class DataFormatError(RuntimeError):
    """An intermediate dataset file does not match its expected schema."""
