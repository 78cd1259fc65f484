"""Exception types shared across the package.

Every error raised by library code derives from AmsDetectError so the CLI can
map any library failure to a runtime exit code while argparse usage problems
keep their own path.  Every file reader reads through ``_read_text``, so
bytes that do not decode end in an InputError that names the file.
"""


class AmsDetectError(Exception):
    """Base class for all library errors."""

    def __init__(self, message: str, *, config_key: str | None = None):
        super().__init__(message)
        self.config_key = config_key


class ConfigurationError(AmsDetectError):
    """A model/config parameter is out of its legal range."""


class InputError(AmsDetectError):
    """Data handed to an operation violates its preconditions."""


class InjectionError(AmsDetectError):
    """An anomaly-injection request cannot be satisfied."""


class WindowError(AmsDetectError):
    """A windowing request does not divide the sample count."""


class FitError(AmsDetectError):
    """A clustering fit cannot proceed or did not produce two clusters."""


class StatsError(AmsDetectError):
    """Cluster statistics are undefined (empty cluster)."""


class RefitError(AmsDetectError):
    """Centroid-based refit is impossible (coincident centroids)."""


class DegenerateDataError(AmsDetectError):
    """Centroid selection geometry is degenerate for the given stats."""


def _read_text(path) -> str:
    """The whole text of ``path``, newlines translated to ``\\n``.

    :raises InputError: the bytes do not decode in the locale's encoding
    """
    with open(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not {exc.encoding} text ({exc.reason} "
                             f"at byte {exc.start})") from None
