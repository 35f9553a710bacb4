"""The three errors the package raises, one per exit code of `attnseg`.

| Class            | Base              | `attnseg` prints         | Exit |
| ---------------- | ----------------- | ------------------------ | ---- |
| `ConfigError`    | `ValueError`      | `config error: ...`      | 2    |
| `DataError`      | `ValueError`      | `data error: ...`        | 3    |
| `NumericalError` | `ArithmeticError` | `numerical failure: ...` | 4    |

An `OSError` (a file that cannot be opened or written) also exits 3, and a
bad command line exits 2. Success is 0.
"""


class ConfigError(ValueError):
    """A setting out of range or of the wrong type: a flag, an INI key or a
    config dataclass field."""


class DataError(ValueError):
    """An input file or corpus that is malformed, empty or inconsistent."""


class NumericalError(ArithmeticError):
    """A non-finite value, or arrays of inconsistent shape, in a computation."""
