"""Transitive source/sink masks of a netlist's combinational logic.

Pure netlist analysis, computed once per design in topological order: for
every net, which flip-flop outputs and primary inputs can influence it
(:func:`source_masks`) and which flip-flop data pins and primary outputs it
can influence (:func:`sink_masks`).  The vectorized feature extractor
(:mod:`repro.features.vectorized`) builds its cone statistics on these
masks, and :func:`ff_spread_masks` turns them into the one-tick flip-flop
adjacency that places MBU clusters (:mod:`repro.faultinjection.faults`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .core import Netlist

__all__ = [
    "ff_spread_masks",
    "source_masks",
    "sink_masks",
]


def source_masks(netlist: Netlist) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Transitive *source* masks per net: ``(net_ff_mask, net_input_mask)``.

    Bit *i* of ``net_ff_mask[n]`` is set when flip-flop *i*
    (``netlist.flip_flops()`` order) can influence net *n* through
    combinational logic only; ``net_input_mask`` likewise over
    ``netlist.inputs``.  Seeded at the sequential/input roots and propagated
    in topological order (any topological order is valid).
    """
    ff_index = {ff.name: i for i, ff in enumerate(netlist.flip_flops())}
    input_index = {name: i for i, name in enumerate(netlist.inputs)}

    net_ff_mask: Dict[str, int] = {}
    net_input_mask: Dict[str, int] = {}
    for name, net in netlist.nets.items():
        if net.is_input:
            net_input_mask[name] = 1 << input_index[name]
        if net.driver is not None:
            cell = netlist.cells[net.driver.cell]
            if cell.is_sequential:
                net_ff_mask[name] = 1 << ff_index[cell.name]

    for cell_name in netlist.topological_comb_order():
        cell = netlist.cells[cell_name]
        fm = im = 0
        for in_net in cell.input_nets():
            fm |= net_ff_mask.get(in_net, 0)
            im |= net_input_mask.get(in_net, 0)
        out = cell.output_net()
        net_ff_mask[out] = fm
        net_input_mask[out] = im
    return net_ff_mask, net_input_mask


def sink_masks(netlist: Netlist) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Transitive *sink* masks per net: ``(net_ff_sink_mask, net_output_mask)``.

    The mirror image of :func:`source_masks`: bit *i*
    of ``net_ff_sink_mask[n]`` is set when net *n* can influence the data
    input (D/RN — clock pins excluded) of flip-flop *i* through combinational
    logic only; ``net_output_mask`` likewise over ``netlist.outputs``.  These
    are the building blocks of the vectorized feature extractor: a
    combinational cell lies in flip-flop *i*'s input cone exactly when bit
    *i* is set in the sink mask of the cell's output net.
    """
    ff_index = {ff.name: i for i, ff in enumerate(netlist.flip_flops())}
    out_index = {name: i for i, name in enumerate(netlist.outputs)}
    cell_out = {name: cell.output_net() for name, cell in netlist.cells.items()}
    ff_sink: Dict[str, int] = {}
    out_mask: Dict[str, int] = {}

    def finalize(net_name: str) -> None:
        net = netlist.nets[net_name]
        fm = 0
        om = 1 << out_index[net_name] if net.is_output else 0
        for sink in net.sinks:
            cell = netlist.cells[sink.cell]
            if cell.is_sequential:
                if sink.pin != "CK":
                    fm |= 1 << ff_index[cell.name]
            else:
                sink_out = cell_out[sink.cell]
                fm |= ff_sink.get(sink_out, 0)
                om |= out_mask.get(sink_out, 0)
        ff_sink[net_name] = fm
        out_mask[net_name] = om

    # Combinational outputs in reverse topological order: every comb sink's
    # own output mask is final before its input nets are visited.
    for cell_name in reversed(netlist.topological_comb_order()):
        finalize(cell_out[cell_name])
    # Source nets (flip-flop outputs, primary inputs) only read finalized
    # comb masks, so any order works.
    for net_name in netlist.nets:
        if net_name not in ff_sink:
            finalize(net_name)
    return ff_sink, out_mask


def ff_spread_masks(netlist: Netlist) -> List[int]:
    """One-tick divergence adjacency between flip-flops.

    ``masks[i]`` has bit *j* set when flip-flop *j* can become diverging one
    clock edge after flip-flop *i* diverged — i.e. *i*'s Q lies in the
    combinational fan-in cone of *j*'s D or RN pin.
    """
    net_ff_mask, _net_input_mask = source_masks(netlist)
    flip_flops = netlist.flip_flops()
    masks = [0] * len(flip_flops)
    for j, ff in enumerate(flip_flops):
        cone = 0
        for pin in ("D", "RN"):
            net = ff.connections.get(pin)
            if net is not None:
                cone |= net_ff_mask.get(net, 0)
        target = 1 << j
        while cone:
            low = cone & -cone
            masks[low.bit_length() - 1] |= target
            cone ^= low
    return masks
