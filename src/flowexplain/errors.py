"""The base class of the package's errors about its inputs."""


class InputError(Exception):
    """A config, catalog, template, dataset, store path, run log, annotation
    file, sample file or ledger that the package cannot use.

    Each such error also derives from ``ValueError`` or ``RuntimeError``. A
    command that raises one ends with a single ``Error:`` line and exit code 1.
    """
