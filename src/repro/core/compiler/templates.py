"""The compiler back end's template network (Section IV-B).

"The back end is implemented as a network of templates associated with
predicates.  The templates implement the logic of the recovery mechanisms
... Templates are only included in the generated code if the predicate
evaluates to true given the intermediate representation of the models."

Each :class:`Template` couples a predicate name (from
:mod:`repro.core.compiler.predicates`) with a render function producing
Python source lines.  Client-side templates compose into one generated
method per interface function, instantiating the CSTUB_FN shape of Fig. 4
(desc update -> invoke -> fault update/redo -> track).  Server-side
templates produce the EINVAL-aware dispatch for G0.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional

from repro.core.compiler.ir import FunctionIR, InterfaceIR
from repro.core.compiler.predicates import PREDICATES


class Context(NamedTuple):
    ir: InterfaceIR
    fn: Optional[FunctionIR]


class Template(NamedTuple):
    """One predicate-template pair of the compiler back end."""

    name: str
    predicate: str
    render: Callable[[Context], List[str]]

    def applies(self, ctx: Context) -> bool:
        return PREDICATES[self.predicate](ctx.ir, ctx.fn)


def _args_list(fn: FunctionIR) -> str:
    return ", ".join(fn.param_names)


def _sargs_expr(fn: FunctionIR) -> str:
    """Server-argument tuple with descriptor/parent id translation."""
    parts = []
    for index, name in enumerate(fn.param_names):
        if index == fn.desc_index:
            parts.append(f"(__entry.sid if __entry is not None else {name})")
        elif index == fn.parent_index:
            parts.append(f"(__parent.sid if __parent is not None else {name})")
        else:
            parts.append(name)
    inner = ", ".join(parts)
    return f"({inner},)" if parts else "()"


# ---------------------------------------------------------------------------
# Client-side templates, in composition order
# ---------------------------------------------------------------------------

def t_signature(ctx: Context) -> List[str]:
    fn = ctx.fn
    return [
        f"def stub_{fn.name}(self, kernel, thread, {_args_list(fn)}):",
        f'    """Generated CSTUB for {ctx.ir.name}.{fn.name} (Fig. 4)."""',
    ]


def t_desc_lookup(ctx: Context) -> List[str]:
    fn = ctx.fn
    desc_name = fn.param_names[fn.desc_index]
    return [
        f"    # [T-desc-lookup] look up the descriptor by its id",
        f"    __entry = self.table.lookup({desc_name})",
    ]


def t_no_desc(ctx: Context) -> List[str]:
    return ["    __entry = None"]


def t_parent_lookup(ctx: Context) -> List[str]:
    fn = ctx.fn
    parent_name = fn.param_names[fn.parent_index]
    return [
        f"    # [T-parent-lookup] parent descriptor for dependency tracking",
        f"    __parent = self.table.lookup({parent_name})",
    ]


def t_d1_parent_recover(ctx: Context) -> List[str]:
    return [
        "    # [T-d1-parent] D1: the parent must be consistent before a",
        "    # dependent descriptor can be (re)created under it",
        "    if __parent is not None:",
        "        self.recover_on_demand(kernel, thread, __parent)",
    ]


def t_d0_children(ctx: Context) -> List[str]:
    fn = ctx.fn
    desc_name = fn.param_names[fn.desc_index]
    return [
        "    # [T-d0-children] D0: recursive revocation also acts on the",
        "    # children; recover the tracked subtree so terminating the",
        "    # parent revokes real, consistent state",
        f"    for __sub in self.table.subtree({desc_name}):",
        "        self.recover_on_demand(kernel, thread, __sub)",
    ]


def t_redo_open(ctx: Context) -> List[str]:
    return [
        "    __einval_retries = 0",
        "    while True:  # redo: (Fig. 4)",
    ]


def t_t1_ondemand(ctx: Context) -> List[str]:
    return [
        "        # [T-t1-ondemand] cli_if_desc_update: on-demand recovery at",
        "        # the accessing thread's priority (T1 -> R0, D1)",
        "        if __entry is not None:",
        "            self.recover_on_demand(kernel, thread, __entry)",
    ]


def t_invoke(ctx: Context) -> List[str]:
    fn = ctx.fn
    needs_try = (
        fn.desc_index is not None
        or fn.parent_index is not None
        or fn.is_block
    )
    lines = [
        "        # [T-invoke] cli_if_invoke: the component invocation itself",
        f"        __sargs = {_sargs_expr(fn)}",
    ]
    if needs_try:
        lines += [
            "        try:",
            f"            __ret = kernel.raw_invoke(thread, self.server, "
            f"{fn.name!r}, __sargs)",
        ]
    else:
        lines += [
            f"        __ret = kernel.raw_invoke(thread, self.server, "
            f"{fn.name!r}, __sargs)",
        ]
    return lines


def t_block_passthrough(ctx: Context) -> List[str]:
    return [
        "        except BlockThread:",
        "            # [T-block] blocking call: the kernel parks the thread;",
        "            # tracking completes in post_unblock on wakeup",
        "            raise",
    ]


def t_einval_retry(ctx: Context) -> List[str]:
    fn = ctx.fn
    lines = [
        "        except InvalidDescriptor:",
        "            # [T-einval] server lost a descriptor (stale id after a",
        "            # reboot): force re-recovery and retry",
        "            if __einval_retries >= 3:",
        "                raise",
        "            __einval_retries += 1",
    ]
    if fn.desc_index is not None:
        lines += [
            "            if __entry is not None:",
            "                __entry.recovered_epoch = -1",
            "                continue",
        ]
    if fn.parent_index is not None:
        lines += [
            "            if __parent is not None:",
            "                __parent.recovered_epoch = -1",
            "                self.recover_on_demand(kernel, thread, __parent)",
            "                continue",
        ]
    lines += ["            raise"]
    return lines


def t_fault_update(ctx: Context) -> List[str]:
    return [
        "        # [T-fault-update] CSTUB_FAULT_UPDATE: the server faulted",
        "        # during this invocation and was micro-rebooted; resync the",
        "        # epoch and redo",
        "        if __ret is FAULT:",
        "            self.fault_update(kernel, thread)",
        "            self.stats['redos'] += 1",
        "            continue",
    ]


def _meta_update_lines(
    ctx: Context, indent: str, ret_var: str, by_position: bool
) -> List[str]:
    """The per-function tracking *policy*, emitted as explicit code.

    ``by_position`` selects how arguments are referenced: by name (inside
    the stub method, where parameters are in scope) or as ``args[i]``
    (inside the wakeup-completion method, which receives a tuple).
    """
    ir, fn = ctx.ir, ctx.fn
    lines: List[str] = []
    if ir.sm.changes_state(fn.name):
        lines.append(f"{indent}__entry.state = {fn.name!r}")
    if fn.name in ir.sm.sticky_fns:
        lines.append(
            f"{indent}__entry.meta['_owner'] = thread.tid"
            "  # principal for replays"
        )
    for index, name in fn.tracked:
        source = f"args[{index}]" if by_position else fn.param_names[index]
        lines.append(f"{indent}__entry.meta[{name!r}] = {source}")
    if fn.ret_track is not None:
        name, mode = fn.ret_track
        if mode == "add":
            lines.append(
                f"{indent}__entry.meta[{name!r}] = ("
                f"__entry.meta.get({name!r}, 0)"
            )
            lines.append(
                f"{indent}    + (len({ret_var}) if isinstance({ret_var}, "
                f"(bytes, str)) else {ret_var}))"
            )
        else:
            lines.append(
                f"{indent}if not isinstance({ret_var}, (bytes, str)):"
            )
            lines.append(f"{indent}    __entry.meta[{name!r}] = {ret_var}")
    return lines


def t_track_create(ctx: Context) -> List[str]:
    fn = ctx.fn
    lines = [
        "        # [T-track-create] cli_if_track: allocate the tracking",
        "        # structure and record the creation-time meta-data",
        f"        __entry = self.new_entry(kernel, thread, __ret, {fn.name!r})",
    ]
    for index, name in fn.tracked:
        lines.append(
            f"        __entry.meta[{name!r}] = {fn.param_names[index]}"
        )
    if fn.parent_index is not None:
        parent_name = fn.param_names[fn.parent_index]
        lines += [
            "        # raw parent argument: replays of parentless (e.g.",
            "        # root-relative) creations need the original value",
            f"        __entry.meta[{parent_name!r}] = {parent_name}",
            f"        self.link_parent_arg(__entry, {parent_name})",
        ]
    if fn.ret_track is not None:
        name, mode = fn.ret_track
        if mode == "add":
            lines.append(
                f"        __entry.meta[{name!r}] = "
                f"__entry.meta.get({name!r}, 0) + __ret"
            )
        else:
            lines.append(f"        __entry.meta[{name!r}] = __ret")
    lines += [
        "        self.track_trace(kernel, thread, __entry, stores=3,",
        "                         label='track_create')",
        "        return __entry.cdesc",
    ]
    return lines


def t_track_terminal(ctx: Context) -> List[str]:
    return [
        "        # [T-track-terminal] descriptor termination: tear down the",
        "        # tracking structure (and the subtree under D0 semantics)",
        "        if __entry is not None:",
        "            self.note_terminated(kernel, thread, __entry)",
        "        return __ret",
    ]


def t_track_update(ctx: Context) -> List[str]:
    lines = [
        "        # [T-track-update] cli_if_track: state transition + tracked",
        "        # meta-data update (bounded, no operation log)",
        "        if __entry is not None:",
    ]
    body = _meta_update_lines(ctx, "            ", "__ret", by_position=False)
    if not body:
        body = ["            pass  # nothing tracked for this function"]
    lines += body
    lines += [
        "            self.track_trace(kernel, thread, __entry,",
        "                             label='track_update')",
        "        return __ret",
    ]
    return lines


def t_unblock_method(ctx: Context) -> List[str]:
    """Completion tracking for blocking functions (runs on the woken
    thread; see Kernel._unpark)."""
    fn = ctx.fn
    lines = [
        "",
        f"def unblock_{fn.name}(self, kernel, thread, args, value):",
        f'    """Generated wakeup-completion tracking for {fn.name}."""',
        f"    __entry = self.table.lookup(args[{fn.desc_index}])",
        "    if __entry is None:",
        "        return value",
    ]
    lines += _meta_update_lines(ctx, "    ", "value", by_position=True)
    lines += [
        "    self.track_trace(kernel, thread, __entry, label='track_unblock')",
        "    return value",
    ]
    return lines


#: The ordered client-side template network.  Order matters: it is the
#: composition order inside each generated method.
CLIENT_TEMPLATES: List[Template] = [
    Template("signature", "fn_any", t_signature),
    Template("desc-lookup", "fn_has_desc", t_desc_lookup),
    Template("no-desc", "fn_creation", t_no_desc),
    Template("parent-lookup", "fn_has_parent_param", t_parent_lookup),
    Template("d1-parent-recover", "mech_d1_create", t_d1_parent_recover),
    Template("d0-children", "mech_d0_terminal", t_d0_children),
    Template("redo-open", "fn_any", t_redo_open),
    Template("t1-ondemand", "fn_has_desc", t_t1_ondemand),
    Template("invoke", "fn_any", t_invoke),
    Template("block-passthrough", "fn_block", t_block_passthrough),
    Template("einval-retry", "fn_has_desc_or_parent", t_einval_retry),
    Template("fault-update", "fn_any", t_fault_update),
    Template("track-create", "fn_creation", t_track_create),
    Template("track-terminal", "fn_terminal", t_track_terminal),
    Template("track-update", "fn_plain", t_track_update),
    Template("track-update-readonly", "fn_readonly", t_track_update),
    Template("track-update-block", "fn_block", t_track_update),
    Template("unblock-method", "fn_block", t_unblock_method),
]


# ---------------------------------------------------------------------------
# Server-side templates
# ---------------------------------------------------------------------------

def t_server_header(ctx: Context) -> List[str]:
    return [
        f"class GeneratedServerStub(ServerStubRuntime):",
        f'    """Generated server-side stub for {ctx.ir.name!r}."""',
        "",
        f"    SERVICE = {ctx.ir.name!r}",
    ]


def t_server_plain(ctx: Context) -> List[str]:
    return [
        "",
        "    # [S-plain] local descriptors: dispatch passes straight through",
        "    def dispatch(self, kernel, thread, fn, args):",
        "        return self.component.dispatch(fn, thread, args)",
    ]


def t_server_g0(ctx: Context) -> List[str]:
    return [
        "",
        "    # [S-g0] global descriptors: the inherited dispatch catches",
        "    # EINVAL (InvalidDescriptor), resolves old->new ids through the",
        "    # storage component, upcalls the creating client (U0) to rerun",
        "    # R0, and replays the invocation with the recovered descriptor",
        "    # [S-creator] creation results are recorded in storage so G0",
        "    # can find the creator after a fault",
    ]


def t_server_g1(ctx: Context) -> List[str]:
    return [
        "",
        "    # [S-g1] resource data lives redundantly in the storage",
        "    # component; the service re-fetches it on access after a reboot",
        "    # (storage interactions run inside the service's critical",
        "    # region, closing the non-atomicity race of Section III-C)",
    ]


SERVER_TEMPLATES: List[Template] = [
    Template("server-header", "always", t_server_header),
    Template("server-plain", "model_local", t_server_plain),
    Template("server-g0", "mech_g0_dispatch", t_server_g0),
    Template("server-g1", "mech_g1_service", t_server_g1),
]

#: All predicate-template pairs the back end composes from.
TEMPLATES: List[Template] = CLIENT_TEMPLATES + SERVER_TEMPLATES
