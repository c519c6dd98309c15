"""Exception types raised across the overlay, store, repo and scenario layers."""

from __future__ import annotations


class PeerDeployError(Exception):
    """Base class for every error this package raises deliberately."""


# --- identifier space ---

class InvalidNameError(PeerDeployError):
    """Component or node name is empty or otherwise unusable as a key."""


class NoNodesError(PeerDeployError):
    """An operation needed at least one live node and found none."""


# --- overlay membership ---

class NoSuchNodeError(PeerDeployError):
    """The referenced node id is unknown or not live."""


class DuplicateNodeError(PeerDeployError):
    """A join was attempted with an id that is already present."""


class BootstrapUnreachableError(PeerDeployError):
    """The bootstrap contact for a join is missing or departed."""


class RoutingFailureError(PeerDeployError):
    """Routing aborted mid-path after exhausting retries.

    Carries the partial path walked so far so callers can diagnose or retry.
    """

    def __init__(self, message: str, partial_path: list[int] | None = None):
        super().__init__(message)
        self.partial_path = list(partial_path or [])


# --- store ---

class PublishFailedError(PeerDeployError):
    """Publish gave up after routing retries; safe to retry later."""


class VersionConflictError(PeerDeployError):
    """Same name republished with different content; substitution refused."""


class NotFoundError(PeerDeployError):
    """No entry for the key anywhere on the lookup path including the root."""


class UnavailableError(PeerDeployError):
    """An association exists but every payload holder is unreachable."""


class LookupFailedError(PeerDeployError):
    """Lookup aborted after exhausting its retry budget; retriable."""


class NotOwnerError(PeerDeployError):
    """Removal requested by a node that never published the name."""


# --- repo ---

class MalformedUriError(PeerDeployError):
    """URI text does not form a valid p2p:// reference."""


class UnsupportedUriError(PeerDeployError):
    """URI parsed to a non-p2p scheme the repo layer does not handle."""


class UnknownBundleError(PeerDeployError):
    """Requested bundle name is absent from the repository index."""


class UnresolvableError(PeerDeployError):
    """Dependency resolution found an import nobody exports."""

    def __init__(self, message: str, package: str | None = None):
        super().__init__(message)
        self.package = package


class LifecycleError(PeerDeployError):
    """Illegal bundle lifecycle transition; message states the current state."""


class IntegrityError(PeerDeployError):
    """Payload bytes do not match the digest they were declared with."""


class InstallError(PeerDeployError):
    """Install aborted; names the dependency whose fetch failed."""

    def __init__(self, message: str, failed_dependency: str | None = None):
        super().__init__(message)
        self.failed_dependency = failed_dependency


class IndexParseError(PeerDeployError):
    """Descriptor file rejected; carries line number and offending field."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        super().__init__(message)
        self.line = line
        self.field = field


# --- simnet / scenario ---

class LivelockSuspectedError(PeerDeployError):
    """An operation was still open once the event queue had drained."""


class ScenarioParseError(PeerDeployError):
    """Scenario file rejected before execution."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line
