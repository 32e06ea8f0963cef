"""Exception types shared across the package."""

from math import log10


class LcrError(Exception):
    """Base class for errors raised by this package."""


class ParseError(LcrError):
    """Malformed input text for one of the file formats."""


class NotConnected(LcrError):
    """Operation requires a connected graph."""


class NotCaterpillar(LcrError):
    """Operation requires a connected caterpillar."""


class NotNormalized(LcrError):
    """Instance violates the normalized list-size bounds."""


class PartialColoring(LcrError):
    """Coloring does not assign a color to every vertex."""


class InfeasibleList(LcrError):
    """Trimming emptied a color list, so the endpoints were never proper."""


class InvalidSequence(LcrError):
    """Recoloring sequence is not valid for the instance."""


class InvalidRerouting(LcrError):
    """Path sequence is not a valid rerouting between the given paths."""


class StateSpaceTooLarge(LcrError):
    """Enumeration would exceed the configured cap."""

    def __init__(self, size, cap):
        # CPython writes no int of over 4,300 digits, a product of list sizes
        # past ~6,000 vertices; past 64 bits, give the order of magnitude
        bits = size.bit_length()
        shown = size if bits <= 64 else f"over 10^{int((bits - 1) * log10(2))}"
        super().__init__(
            f"state space of size {shown} exceeds cap {cap}; "
            "raise the cap or use the caterpillar algorithm"
        )
        self.size = size
        self.cap = cap


class UnknownNode(LcrError):
    """Coloring is not a node of the reconfiguration graph."""


class IniLost(LcrError):
    """Internal consistency failure: the initial e-node disappeared."""


class Disconnected(LcrError):
    """The two endpoint vertices lie in different components."""


class DegenerateDistance(LcrError):
    """Rerouting instance has endpoint distance too small to reduce."""


class ImproperColoring(LcrError):
    """Coloring is not a proper list coloring."""


class ImproperEndpoints(LcrError):
    """One of the endpoint colorings is not a proper list coloring."""


class GenerationFailed(LcrError):
    """Random generation did not produce a valid instance within the retry budget."""

