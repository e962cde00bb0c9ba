"""Intermediate representation of a SuperGlue interface.

The front end (:mod:`repro.core.idl`) parses the IDL and the validator
lowers it into this IR, which encodes the resource-descriptor model and
the state-machine model (Section IV-B: "extracts the specifications from
the abstract syntax tree into an intermediate representation").  The back
end's predicates and templates consume only the IR.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.model import DescriptorResourceModel
from repro.core.state_machine import DescriptorStateMachine


@dataclass
class FunctionIR:
    """Everything codegen needs to know about one interface function."""

    name: str
    ret_ctype: str
    param_names: List[str] = field(default_factory=list)
    param_ctypes: List[str] = field(default_factory=list)
    #: index of the ``desc(...)`` parameter, if any
    desc_index: Optional[int] = None
    #: index of the ``parent_desc(...)`` parameter, if any
    parent_index: Optional[int] = None
    #: index of the component-id ("principal") parameter, if any
    principal_index: Optional[int] = None
    #: (index, meta-name) pairs for ``desc_data(...)`` parameters
    tracked: List[Tuple[int, str]] = field(default_factory=list)
    #: (meta-name, mode) from ``desc_data_retval``; mode is "set" or "add"
    ret_track: Optional[Tuple[str, str]] = None
    is_creation: bool = False
    is_terminal: bool = False
    is_block: bool = False
    is_wakeup: bool = False
    is_readonly: bool = False


@dataclass
class InterfaceIR:
    """A fully validated, lowered interface specification."""

    name: str
    model: DescriptorResourceModel
    sm: DescriptorStateMachine
    functions: Dict[str, FunctionIR] = field(default_factory=dict)
    idl_loc: int = 0

    @property
    def creation_fn(self) -> FunctionIR:
        for fn in self.functions.values():
            if fn.is_creation:
                return fn
        raise KeyError("no creation function")

    @property
    def terminal_fns(self) -> List[FunctionIR]:
        return [f for f in self.functions.values() if f.is_terminal]

    @property
    def block_fns(self) -> List[FunctionIR]:
        return [f for f in self.functions.values() if f.is_block]

    @property
    def wakeup_fns(self) -> List[FunctionIR]:
        return [f for f in self.functions.values() if f.is_wakeup]

    def mechanisms(self) -> List[str]:
        return self.model.mechanisms()

    def meta_names(self) -> List[str]:
        """All tracked meta-data field names, in declaration order."""
        seen: List[str] = []
        for fn in self.functions.values():
            if fn.ret_track and fn.ret_track[0] not in seen:
                seen.append(fn.ret_track[0])
            for __, name in fn.tracked:
                if name not in seen:
                    seen.append(name)
        return seen
