"""Exception types shared across the package."""


class CarbonSchedError(Exception):
    """Base class for all carbonsched errors."""


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


class SessionOutsideHorizon(CarbonSchedError):
    def __init__(self, session_id: str):
        self.session_id = session_id
        super().__init__(f"session {session_id!r} lies outside the simulation horizon")


class InvalidSoC(CarbonSchedError):
    def __init__(self, session_id: str, detail: str = ""):
        self.session_id = session_id
        super().__init__(f"session {session_id!r} violates SoC invariants"
                         + (f": {detail}" if detail else ""))


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

class EmptyHorizon(CarbonSchedError):
    pass


class NumericalFailure(CarbonSchedError):
    def __init__(self, detail: str, iterations: int | None = None):
        self.iterations = iterations
        msg = f"LP solver failed: {detail}"
        if iterations is not None:
            msg += f" (after {iterations} iterations)"
        super().__init__(msg)


# --- metrics ---

class UnknownBaseline(CarbonSchedError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"baseline policy {name!r} not among reports")
