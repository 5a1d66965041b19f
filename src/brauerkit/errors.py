"""Shared exception types for brauerkit."""


class BrauerkitError(Exception):
    """Base class for all brauerkit errors."""


class AmbiguousExtension(BrauerkitError):
    """More than one isomorphism class satisfies the extension constraints;
    the message names them."""


class NoExtension(BrauerkitError):
    """No abelian group satisfies the extension constraints."""


class NotAnAction(BrauerkitError):
    """The supplied automorphism does not define a cyclic group action."""


class WindowTooSmall(BrauerkitError):
    """The degree window cannot certify the requested kernel/cokernel."""


class UnmatchedRule(BrauerkitError):
    """A differential rule points at a zero entry."""


class NoFact(BrauerkitError):
    """No stored fact decides the requested sheaf-level computation."""
