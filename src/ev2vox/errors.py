"""The package's errors: three families, each with one CLI exit code.

- ``ConfigError`` (exit 2): a human-authored input (config file, CLI flag,
  scene description) is malformed or self-contradictory.
- ``DataError`` (exit 3): runtime data (event files, meshes, checkpoints,
  datasets) violates a documented contract. ``FormatError`` (a file that
  does not match its declared format) and ``IoFailure`` (a file that cannot
  be read or written) are the two kinds the README names.
- ``InternalError`` (exit 4): an invariant the library itself is
  responsible for was broken; these indicate bugs rather than bad input.

A raise names its family and says what went wrong in its message. A new
class earns its place only with its own exit code or a caller that
catches it.
"""


class PipelineError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(PipelineError):
    """Malformed or inconsistent user-supplied configuration."""


class DataError(PipelineError):
    """Runtime data violates a format or content contract."""


class InternalError(PipelineError):
    """A library invariant was violated; indicates a bug."""


class FormatError(DataError):
    """A binary or text artifact does not match its declared format."""


class IoFailure(DataError):
    """A required file could not be read or written."""
