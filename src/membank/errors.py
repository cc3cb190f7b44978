"""Exception hierarchy shared across the package."""


class MembankError(Exception):
    """Base class for all package errors."""


class ShapeError(MembankError):
    """Operand dimensions are incompatible."""


class ConfigError(MembankError):
    """Invalid configuration value (zero capacity, zero k, bad counts)."""


class CapacityError(MembankError):
    """A memory bank would hold more frames than its capacity."""


class EmptyMemoryError(MembankError):
    """An operation that needs at least one stored frame got none."""


class ScriptError(MembankError):
    """A narrative script file failed parsing or schema validation."""
