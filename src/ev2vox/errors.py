"""Exception taxonomy shared across the package.

Three broad families matter to callers:

- ``ConfigError``: a human-authored input (config file, CLI flag, scene
  description) is malformed or self-contradictory.
- ``DataError``: runtime data (event files, meshes, checkpoints, datasets)
  violates a documented contract.
- ``InternalError``: an invariant the library itself is responsible for
  was broken; these indicate bugs rather than bad input.

The CLI maps these to process exit codes 2, 3 and 4 respectively.
"""


class PipelineError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(PipelineError):
    """Malformed or inconsistent user-supplied configuration."""


class DataError(PipelineError):
    """Runtime data violates a format or content contract."""


class InternalError(PipelineError):
    """A library invariant was violated; indicates a bug."""


# Event streams


class NonMonotoneTimestamp(DataError):
    """Event timestamps decrease somewhere in the stream."""


class OutOfBoundsCoordinate(DataError):
    """An event's pixel coordinate lies outside the sensor."""


class InvalidPolarity(DataError):
    """An event's polarity is not -1 or +1."""


class TimestampOutOfRange(DataError):
    """An event timestamp is negative or exceeds the stream duration."""


class ZeroWindow(ConfigError):
    """A binning window of zero or negative length was requested."""


class NonDivisibleDimensions(ConfigError):
    """Spatial downscaling requested with a factor that does not divide
    the frame dimensions."""


# Meshes and voxel grids


class MalformedLine(DataError):
    """An OBJ line could not be parsed."""


class IndexOutOfRange(DataError):
    """An OBJ face references a vertex that does not exist."""


class EmptyMesh(DataError):
    """A mesh has no faces where at least one is required."""


class DegenerateExtent(DataError):
    """A mesh collapses to zero extent on every axis, so it cannot be
    normalized to the unit cube."""


class ResolutionZero(ConfigError):
    """A voxel grid resolution of zero was requested."""


class ThresholdOutOfRange(ConfigError):
    """A binarization threshold outside [0, 1] was requested."""


class ResolutionMismatch(DataError):
    """Two grids that must share a resolution do not."""


class NonPositiveDistance(ConfigError):
    """A distance tolerance that must be positive is not."""


# File formats


class FormatError(DataError):
    """A binary or text artifact does not match its declared format."""


# Network layers and models


class ShapeMismatch(InternalError):
    """A tensor does not have the rank or dimensions a layer requires."""


class ZeroBatchVolume(InternalError):
    """A tensor with a zero-sized axis reached a layer."""


class ChannelMismatch(ConfigError):
    """Adjacent layers disagree about channel counts."""


# Training


class StateShapeMismatch(InternalError):
    """Optimizer state does not line up with the parameters it serves."""


class EmptyDataset(DataError):
    """A dataset with no samples was supplied to a consumer that needs
    at least one."""


class ShapeInconsistency(DataError):
    """Samples within one dataset disagree on tensor dimensions."""


class CheckpointMismatch(DataError):
    """A checkpoint does not match the model it is being loaded into."""


# Simulation


class TimeOutOfRange(InternalError):
    """A trajectory was queried outside its duration."""


class ContrastNonPositive(ConfigError):
    """The event contrast threshold must be strictly positive."""


class FrameDimMismatch(DataError):
    """Video frames passed to event synthesis do not share one shape."""


class InvalidSceneSpec(ConfigError):
    """A scene description is malformed or names an unknown primitive."""


# CLI and manifests


class IoFailure(DataError):
    """A required file could not be read or written."""
