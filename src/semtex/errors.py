"""Exception types raised across the pipeline.

Every error carries enough position/context information to point a user
back at the offending source, glossary line, or page title.
"""

from __future__ import annotations


class SemtexError(Exception):
    """Base class for all errors raised by this package."""


class UnbalancedGroupError(SemtexError):
    """A `{` without matching `}` (or vice versa) while building groups."""

    def __init__(self, position: int, message: str = ""):
        self.position = position
        super().__init__(message or f"unbalanced group at offset {position}")


class UnterminatedEnvironmentError(SemtexError):
    """A math environment that is opened but never closed."""

    def __init__(self, name: str, position: int):
        self.name = name
        self.position = position
        super().__init__(f"unterminated {name!r} starting at offset {position}")


class MismatchedLeftRightError(SemtexError):
    """A \\left without matching \\right (or vice versa)."""

    def __init__(self, position: int | None, message: str = ""):
        self.position = position
        super().__init__(message or f"mismatched \\left/\\right at offset {position}")


class GlossaryParseError(SemtexError):
    """Glossary file is malformed (bad JSON, unknown atom kind, ...)."""

    def __init__(self, line: int | None, reason: str):
        self.line = line
        self.reason = reason
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"glossary parse error: {where}{reason}")


class DuplicateMacroError(SemtexError):
    """Two glossary rules share a macro name."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"duplicate glossary macro {name!r}")


class TemplateCaptureMismatchError(SemtexError):
    """Rule template placeholders do not line up with pattern captures."""

    def __init__(self, name: str, message: str = ""):
        self.name = name
        super().__init__(message or f"template/capture mismatch in rule {name!r}")


class UnknownSemanticMacroError(SemtexError):
    """An @-marked semantic macro the glossary does not define, or one
    whose occurrence does not match its glossary signature."""

    def __init__(self, name: str, message: str = ""):
        self.name = name
        super().__init__(message or f"unknown semantic macro \\{name}")


class SubstitutionCycleError(SemtexError):
    """Substitution definitions reference each other in a cycle."""

    def __init__(self, ids: tuple[str, ...]):
        self.ids = tuple(ids)
        super().__init__("substitution cycle: " + " -> ".join(self.ids))


class MissingBibEntryError(SemtexError):
    """A formula cites a bibliography key that is not in the bibliography."""

    def __init__(self, key: str):
        self.key = key
        super().__init__(f"missing bibliography entry {key!r}")


class DuplicateTitleError(SemtexError):
    """Two pages in one dump resolved to the same title."""

    def __init__(self, title: str):
        self.title = title
        super().__init__(f"duplicate page title {title!r}")


class ForbiddenCharacterError(SemtexError):
    """An input character that XML 1.0 does not allow, so no dump can
    carry it."""

    def __init__(self, char: str, where: str):
        self.char = char
        super().__init__(f"character U+{ord(char):04X} at line {where} is not allowed in XML")


class ConfigInvalidError(SemtexError):
    """Pipeline configuration is missing or malformed."""


class ServiceUnreachableError(SemtexError):
    """The rendering endpoint could not be reached at all."""


class ServiceRejectedError(SemtexError):
    """The rendering endpoint answered with a non-success status."""

    def __init__(self, status: int, body: str):
        self.status = status
        self.body = body
        super().__init__(f"rendering service rejected request: HTTP {status}")
