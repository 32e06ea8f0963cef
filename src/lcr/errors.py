"""Exception types shared across the package."""


class LcrError(Exception):
    """Base class for errors raised by this package."""


class ParseError(LcrError):
    """Malformed input text for one of the file formats."""


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
    """Enumeration would exceed the configured cap.

    ``size`` is a lower bound on the state space: the count reached when
    it first passed ``cap``.
    """

    def __init__(self, size, cap):
        super().__init__(
            f"state space exceeds cap {cap}; "
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
