"""Exception hierarchy. Each class maps to a stable CLI exit code (see the README's
exit-code table)."""


class OrbitDesignsError(Exception):
    """Base class for all package errors."""


class InputError(OrbitDesignsError):
    """Bad user input: unparseable spec/vector literal, invalid family parameters."""


class NumericRangeError(OrbitDesignsError):
    """A computation left the representable floating range (overflow / non-finite)."""


class SizeLimitError(OrbitDesignsError):
    """Group closure exceeded the configured maximum order."""


class KeyCollisionError(OrbitDesignsError):
    """Two distinct matrices hashed to the same quantized dedup key."""


class DegeneracyError(OrbitDesignsError):
    """The averaged Hermitian form is numerically singular; cannot unitarize."""


class ConsistencyError(OrbitDesignsError):
    """Internal invariant violated (e.g. non-uniform line multiplicities in an orbit)."""


class MismatchError(OrbitDesignsError):
    """Operands live in different dimensions or over different fields."""


class CertificateError(OrbitDesignsError):
    """A certificate file is structurally invalid (schema violation)."""


class NoSolutionError(OrbitDesignsError):
    """An operation that needs at least one quadratic root was given a rootless solution."""
