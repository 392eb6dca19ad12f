"""Exception hierarchy. Each class maps to a stable CLI exit code (see the README's
exit-code table)."""


class OrbitDesignsError(Exception):
    """Base class for all package errors."""


class InputError(OrbitDesignsError):
    """Bad user input: unparseable spec/vector literal, invalid family parameters."""


class NumericRangeError(OrbitDesignsError):
    """A computation left the representable floating range (overflow / non-finite)."""


class SizeLimitError(OrbitDesignsError):
    """A group or orbit passes the configured maximum order: in build_group's
    check of a family's closed-form order, in a group closure, or in the orbit
    walk of a group without a closed-form order (explicit generator files).
    Also a certificate whose t or stored residual order passes t_max."""


class KeyCollisionError(OrbitDesignsError):
    """Two distinct matrices hashed to the same quantized dedup key."""


class DegeneracyError(OrbitDesignsError):
    """The averaged Hermitian form is numerically singular; cannot unitarize."""


class ConsistencyError(OrbitDesignsError):
    """Internal invariant violated: dedup keys split or merge group elements or
    orbit lines, weights vary within an orbit block, orbits merge only in part
    in a union, or a scan's sample or Molien mean contradicts its counts."""


class MismatchError(OrbitDesignsError):
    """Operands live in different dimensions or over different fields."""


class CertificateError(OrbitDesignsError):
    """A certificate file is structurally invalid (schema violation)."""


class NoSolutionError(OrbitDesignsError):
    """An operation that needs at least one quadratic root was given a rootless solution."""
