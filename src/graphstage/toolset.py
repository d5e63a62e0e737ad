"""The tool set that the name-identification prompt lists: the eleven tools
of :data:`graphstage.tools.TOOLS`, each with its name, description, ordered
parameter schema and return type. The set is fixed; no run changes it.
"""

from .tools import TOOLS, ToolRegistry


def default_registry() -> ToolRegistry:
    """The tool table, the same object on every call."""
    return TOOLS
