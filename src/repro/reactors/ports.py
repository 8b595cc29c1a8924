"""Reactor ports and connections.

Reactors communicate **only** through ports connected by channels —
one of the structural differences from plain actors that makes the
communication topology explicit and lets the runtime derive the acyclic
precedence graph (Section III.A of the paper).

A connection may carry a logical delay (``after``): events crossing it
arrive ``after`` later in logical time, which also breaks precedence
cycles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import AssemblyError

if TYPE_CHECKING:
    from repro.reactors.base import Reactor


class Port:
    """Base class for reactor ports."""

    direction = "port"

    def __init__(self, name: str, owner: "Reactor") -> None:
        self.name = name
        self.owner = owner
        #: Fully qualified name (the reactor tree is fixed at build time).
        self.fqn = f"{owner.fqn}.{name}"
        #: The port feeding this one, if any (set by Environment.connect).
        self.upstream: "Port | None" = None
        #: Ports fed by this one through zero-delay connections.
        self.downstream: list["Port"] = []
        #: Ports fed by this one through delayed connections (port, delay).
        self.delayed_downstream: list[tuple["Port", int]] = []
        #: Reactions triggered by this port becoming present.
        self.triggered_reactions: list[Any] = []
        #: Reactions that declare this port as a source (read-only use).
        self.dependent_reactions: list[Any] = []
        # Runtime state: value at the current tag.
        self._value: Any = None
        self._present: bool = False

    # -- runtime value access ------------------------------------------------

    @property
    def is_present(self) -> bool:
        """Whether the port carries a value at the current tag."""
        return self._present

    def get(self) -> Any:
        """The value at the current tag (``None`` if absent)."""
        return self._value

    def _put(self, value: Any) -> None:
        self._value = value
        self._present = True

    def _clear(self) -> None:
        self._value = None
        self._present = False

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.fqn!r})"


class Input(Port):
    """An input port: receives values from one upstream connection."""

    direction = "input"


class Output(Port):
    """An output port: set by reactions, fans out to downstream ports."""

    direction = "output"


class Multiport:
    """A fixed-width bank of ports treated as one logical interface.

    Channels are ordinary ports named ``name[i]``; a multiport appearing
    in a reaction's triggers/sources/effects stands for all of its
    channels.  Widths are fixed at declaration, as in the reactor model.
    """

    def __init__(self, name: str, owner, width: int, port_cls: type) -> None:
        if width < 1:
            raise ValueError("multiport width must be at least 1")
        self.name = name
        self.owner = owner
        self.channels: list[Port] = [
            port_cls(f"{name}[{index}]", owner) for index in range(width)
        ]

    @property
    def width(self) -> int:
        """Number of channels."""
        return len(self.channels)

    @property
    def fqn(self) -> str:
        """Fully qualified name of the bank."""
        return f"{self.owner.fqn}.{self.name}"

    def __len__(self) -> int:
        return len(self.channels)

    def __iter__(self):
        return iter(self.channels)

    def __getitem__(self, index: int) -> Port:
        return self.channels[index]

    def values(self) -> list[Any]:
        """Current values of all channels (``None`` where absent)."""
        return [channel.get() for channel in self.channels]

    def present_channels(self) -> list[int]:
        """Indices of the channels carrying a value at the current tag."""
        return [
            index
            for index, channel in enumerate(self.channels)
            if channel.is_present
        ]

    def __repr__(self) -> str:
        return f"Multiport({self.fqn!r}, width={self.width})"


def validate_connection(src: Port, dst: Port) -> None:
    """Check that connecting *src* -> *dst* is structurally legal.

    Legal shapes (with containment):

    * output -> input of a *different* reactor (sibling-level channel);
    * input -> input of a *contained* reactor (parent delegates inward);
    * output -> output of the *containing* reactor (child delegates out).
    """
    if dst.upstream is not None:
        raise AssemblyError(
            f"port {dst.fqn} already has an upstream connection "
            f"from {dst.upstream.fqn}"
        )
    if src is dst:
        raise AssemblyError(f"cannot connect port {src.fqn} to itself")
    if isinstance(src, Output) and isinstance(dst, Input):
        if src.owner is dst.owner:
            raise AssemblyError(
                f"cannot connect output {src.fqn} to input of the same "
                f"reactor; use a logical action instead"
            )
        return
    if isinstance(src, Input) and isinstance(dst, Input):
        if dst.owner.container is not src.owner:
            raise AssemblyError(
                f"input-to-input connection {src.fqn} -> {dst.fqn} must "
                f"target a directly contained reactor"
            )
        return
    if isinstance(src, Output) and isinstance(dst, Output):
        if src.owner.container is not dst.owner:
            raise AssemblyError(
                f"output-to-output connection {src.fqn} -> {dst.fqn} must "
                f"come from a directly contained reactor"
            )
        return
    raise AssemblyError(
        f"illegal connection {src.direction} {src.fqn} -> "
        f"{dst.direction} {dst.fqn}"
    )
