"""Exception types shared across the package."""


class CarbonSchedError(Exception):
    """Base class for all carbonsched errors. `where`, when set, names the
    input the error was found in, and the message starts with it."""

    where: str | None = None

    def __str__(self):
        text = super().__str__()
        return text if self.where is None else f"{self.where}: {text}"


# --- ingestion ---

class MissingSourceFactor(CarbonSchedError):
    def __init__(self, source: str):
        self.source = source
        super().__init__(f"no emission factor for source {source!r}")


class NonMonotonicTimestamps(CarbonSchedError):
    def __init__(self, row: int, detail: str = ""):
        self.row = row
        super().__init__(f"timestamps not strictly increasing on a uniform grid at row {row}"
                         + (f": {detail}" if detail else ""))


class MalformedNumber(CarbonSchedError):
    def __init__(self, row: int, col: str):
        self.row = row
        self.col = col
        super().__init__(f"malformed number at row {row}, column {col!r}")


class MalformedRow(CarbonSchedError):
    def __init__(self, row: int, detail: str):  # row 0 is the header
        self.row = row
        super().__init__(f"malformed CSV {f'row {row}' if row else 'header'}: {detail}")


class TooFewRows(CarbonSchedError):
    def __init__(self, rows: int):
        self.rows = rows
        super().__init__("a time series needs at least two rows to fix its "
                         f"slot length, got {rows}")


class UnsupportedSlotLength(CarbonSchedError):
    def __init__(self, step, need: str = "a whole number of minutes that divides 24 h"):
        self.step = step
        super().__init__(f"rows are {step.total_seconds():g} s apart; the slot length "
                         f"must be {need}")


class OutOfRange(CarbonSchedError):
    """A number outside the range its column allows."""


class NonFiniteValue(CarbonSchedError):
    def __init__(self, what: str):
        self.what = what
        super().__init__(f"non-finite value in {what}")


class MixedTimezones(CarbonSchedError):
    def __init__(self, row: int, detail: str = ""):
        self.row = row
        super().__init__(f"naive and timezone-aware timestamps mixed at row {row}"
                         + (f": {detail}" if detail else ""))


class DuplicateSessionId(CarbonSchedError):
    def __init__(self, session_id: str, row: int):
        self.session_id = session_id
        self.row = row
        super().__init__(f"duplicate session id {session_id!r} at row {row}")


class SessionOutsideHorizon(CarbonSchedError):
    def __init__(self, session_id: str):
        self.session_id = session_id
        super().__init__(f"session {session_id!r} lies outside the simulation horizon")


class InvalidSoC(CarbonSchedError):
    def __init__(self, session_id: str, detail: str):
        self.session_id = session_id
        super().__init__(f"session {session_id!r} violates SoC invariants: {detail}")


class EmptyWindow(CarbonSchedError):
    def __init__(self, session_id: str):
        self.session_id = session_id
        super().__init__(f"session {session_id!r} has an empty charging window after snapping")


# --- carbon intensity ---

class ZeroTotalGeneration(CarbonSchedError):
    def __init__(self, slot: int):
        self.slot = slot
        super().__init__(f"total generation is zero at slot {slot}")


# --- forecasting ---

class GridMismatch(CarbonSchedError):
    pass


class InsufficientHistory(CarbonSchedError):
    pass


class RankDeficient(CarbonSchedError):
    pass


class ForecastUnavailable(CarbonSchedError):
    def __init__(self, slot: int):
        self.slot = slot
        super().__init__(f"forecast unavailable for slot {slot}")


# --- scheduling ---

class NumericalFailure(CarbonSchedError):
    slot: int | None = None  # the online controller's slot, when it failed in one

    def __init__(self, detail: str, iterations: int):
        self.iterations = iterations
        super().__init__(f"LP solver failed: {detail} (after {iterations} iterations)")
