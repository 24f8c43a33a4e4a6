"""Error family shared by every layer.

Each exception carries a stable ``code`` string; the wire protocol and the
CLI surface that code verbatim, so tests and operators can grep for it.
"""

from __future__ import annotations


class WandRelayError(Exception):
    """Base class; ``code`` is the machine-readable error name."""

    code = "InternalError"

    def __init__(self, detail: str = "", *, code: str | None = None):
        if code is not None:  # a code read off the wire, such as an ERROR frame's
            self.code = code
        self.detail = detail
        super().__init__(f"{self.code}: {detail}" if detail else self.code)


# -- message composition / validation ---------------------------------------

class UnknownContent(WandRelayError):
    code = "UnknownContent"


class VoiceNoteTooLong(WandRelayError):
    code = "VoiceNoteTooLong"


class RadiusOutOfRange(WandRelayError):
    code = "RadiusOutOfRange"


class InvalidWindow(WandRelayError):
    code = "InvalidWindow"


class EmptySchedule(WandRelayError):
    code = "EmptySchedule"


class UnknownMarker(WandRelayError):
    code = "UnknownMarker"


class InvalidCoordinates(WandRelayError):
    code = "InvalidCoordinates"


class ScaleOutOfRange(WandRelayError):
    code = "ScaleOutOfRange"


# -- delivery service --------------------------------------------------------

class UnknownRecipient(WandRelayError):
    code = "UnknownRecipient"


class DuplicateMessageId(WandRelayError):
    code = "DuplicateMessageId"


class OutOfOrderSample(WandRelayError):
    code = "OutOfOrderSample"


class NoSession(WandRelayError):
    code = "NoSession"


class UnknownMessage(WandRelayError):
    code = "UnknownMessage"


class IllegalTransition(WandRelayError):
    code = "IllegalTransition"


class PrincipalMismatch(WandRelayError):
    """A request names ids of a principal other than the one that sent it."""

    code = "PrincipalMismatch"


# -- reaction capture ---------------------------------------------------------

class SessionClosed(WandRelayError):
    code = "SessionClosed"


class PastDeadline(WandRelayError):
    code = "PastDeadline"


class NotAwaitingConsent(WandRelayError):
    code = "NotAwaitingConsent"


# -- scenarios, logs, reports --------------------------------------------------

class ParseError(WandRelayError):
    code = "ParseError"


class IncompleteLog(WandRelayError):
    code = "IncompleteLog"


# -- CLI / server ---------------------------------------------------------------

class AddressInUse(WandRelayError):
    code = "AddressInUse"


class ServerUnreachable(WandRelayError):
    code = "ServerUnreachable"


class DataDirUnwritable(WandRelayError):
    code = "DataDirUnwritable"
