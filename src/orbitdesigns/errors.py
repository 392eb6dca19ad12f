"""Exception hierarchy. Each class maps to a stable CLI exit code (see the README's
exit-code table)."""


class OrbitDesignsError(Exception):
    """Base class for all package errors."""


class InputError(OrbitDesignsError):
    """Bad user input: unparseable spec/vector literal, invalid family parameters."""


class NumericRangeError(OrbitDesignsError):
    """A computation left the representable floating range (overflow / non-finite)."""


class SizeLimitError(OrbitDesignsError):
    """A family's closed-form order, a group closure or an orbit walk passes
    numerics.MAX_ORDER. Also a certificate whose t or stored residual order
    passes t_max."""


class ConsistencyError(OrbitDesignsError):
    """Internal invariant violated: dedup keys split or merge group elements or
    orbit lines, weights vary within an orbit, orbits merge only in part
    in a union, or a scan's sample or Molien mean contradicts its counts."""


class MismatchError(OrbitDesignsError):
    """Operands live in different dimensions or over different fields."""


class CertificateError(OrbitDesignsError):
    """A certificate file is structurally invalid (schema violation)."""


class NoSolutionError(OrbitDesignsError):
    """An operation that needs at least one quadratic root was given a rootless solution."""
