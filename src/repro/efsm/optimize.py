"""EFSM optimization passes.

The paper leans on "a battery of logic optimization algorithms" being
applicable once the control structure is an (E)FSM.  Gate-level logic
synthesis is out of scope for an automaton represented as decision trees,
but the structural equivalents are here:

* **reachability pruning** — drop states the initial state cannot reach
  (arises after composition/ablation experiments);
* **reaction-tree simplification** — collapse test nodes whose branches
  are identical, and share structurally equal subtrees (the dominant
  code-size lever for generated software);
* **state merging** — states whose simplified reactions are structurally
  identical (up to target renumbering) are merged, a bisimulation-style
  reduction iterated to a fixed point.

All passes preserve the reaction relation; the property-based tests
check optimized and unoptimized machines against random input traces.
"""

from __future__ import annotations

from .machine import (
    DoAction,
    DoEmit,
    Efsm,
    Leaf,
    State,
    TERMINATED,
    TestData,
    TestSignal,
    walk_reaction,
)


def optimize(efsm, merge_states=True):
    """Run all passes; returns a new, equivalent Efsm."""
    machine = prune_unreachable(efsm)
    machine = simplify_reactions(machine)
    if merge_states:
        machine = merge_equivalent_states(machine)
        machine = simplify_reactions(machine)
    return machine


# ----------------------------------------------------------------------
# Reachability


def reachable_states(efsm):
    """Indices of states reachable from the initial state."""
    seen = {efsm.initial}
    frontier = [efsm.initial]
    while frontier:
        index = frontier.pop()
        for node in walk_reaction(efsm.state(index).reaction):
            if isinstance(node, Leaf) and node.target != TERMINATED:
                if node.target not in seen:
                    seen.add(node.target)
                    frontier.append(node.target)
    return seen


def prune_unreachable(efsm):
    """Drop unreachable states, renumbering the survivors."""
    keep = sorted(reachable_states(efsm))
    if len(keep) == len(efsm.states):
        return efsm
    renumber = {old: new for new, old in enumerate(keep)}
    states = []
    for old in keep:
        source = efsm.state(old)
        states.append(State(
            index=renumber[old],
            reaction=_retarget(source.reaction, renumber),
            residue=source.residue,
            label=source.label,
        ))
    return Efsm(
        name=efsm.name,
        states=states,
        initial=renumber[efsm.initial],
        inputs=efsm.inputs,
        outputs=efsm.outputs,
        locals=efsm.locals,
        module=efsm.module,
    )


def _retarget(node, renumber):
    if isinstance(node, Leaf):
        if node.target == TERMINATED:
            return node
        return Leaf(target=renumber[node.target], delta=node.delta)
    if isinstance(node, TestSignal):
        return TestSignal(node.signal,
                          _retarget(node.then, renumber),
                          _retarget(node.otherwise, renumber))
    if isinstance(node, TestData):
        return TestData(node.cond,
                        _retarget(node.then, renumber),
                        _retarget(node.otherwise, renumber))
    if isinstance(node, DoAction):
        return DoAction(node.stmt, _retarget(node.next, renumber))
    if isinstance(node, DoEmit):
        return DoEmit(node.signal, node.value, _retarget(node.next, renumber))
    raise TypeError("unknown reaction node %r" % (node,))


# ----------------------------------------------------------------------
# Tree simplification


def simplify_reactions(efsm):
    # One cache across every state: structurally equal subtrees become the
    # *same object*, which the C back-end and the cost model treat as
    # shared code (the Esterel automaton generators did the same with
    # shared labels).
    cache = {}
    states = [
        State(index=s.index, reaction=simplify_tree(s.reaction, cache),
              residue=s.residue, label=s.label)
        for s in efsm.states
    ]
    return Efsm(name=efsm.name, states=states, initial=efsm.initial,
                inputs=efsm.inputs, outputs=efsm.outputs,
                locals=efsm.locals, module=efsm.module)


def simplify_tree(node, _cache=None):
    """Collapse no-op tests and hash-cons identical subtrees.

    Children are interned before their parent, so equal subtrees are
    already the same object and a node's intern key is shallow: its
    type, its payload and the ids of its interned children.  Each node
    is hashed once, whatever its depth.  The first node interned under
    a key is the one every equal subtree shares.
    """
    cache = _cache if _cache is not None else {}
    if isinstance(node, Leaf):
        return cache.setdefault((Leaf, node.target, node.delta), node)
    if isinstance(node, (TestSignal, TestData)):
        then = simplify_tree(node.then, cache)
        otherwise = simplify_tree(node.otherwise, cache)
        if then is otherwise:
            # The test does not influence the reaction: drop it.
            return then
        payload = (node.signal if isinstance(node, TestSignal)
                   else node.cond,)
        children = (then, otherwise)
    elif isinstance(node, DoAction):
        payload = (node.stmt,)
        children = (simplify_tree(node.next, cache),)
    elif isinstance(node, DoEmit):
        payload = (node.signal, node.value)
        children = (simplify_tree(node.next, cache),)
    else:
        raise TypeError("unknown reaction node %r" % (node,))
    key = (type(node),) + payload + tuple(map(id, children))
    built = cache.get(key)
    if built is None:
        built = cache[key] = type(node)(*payload, *children)
    return built


# ----------------------------------------------------------------------
# State merging


def merge_equivalent_states(efsm):
    """Bisimulation minimization by partition refinement.

    All states start in one block; a block is split whenever two of its
    states have different reaction signatures once leaf targets are
    read modulo the current partition.  At the fixed point, states in
    one block are behaviourally indistinguishable (same tests, actions,
    emissions, and block-level successors) and are merged.
    """
    block = {s.index: 0 for s in efsm.states}
    while True:
        mapping = {index: block[index] for index in block}
        mapping[TERMINATED] = TERMINATED
        signature_ids = {}
        memo = {}
        groups = {}
        for state in efsm.states:
            signature = (block[state.index],
                         _signature(state.reaction, mapping, signature_ids,
                                    memo))
            groups.setdefault(signature, []).append(state.index)
        # Blocks are numbered by their first state.  The numbering does
        # not change the partition, and an unchanged partition gets the
        # same numbers again, which ends the loop.
        new_block = {}
        for new_id, members in enumerate(groups.values()):
            for index in members:
                new_block[index] = new_id
        if new_block == block:
            break
        block = new_block
    representatives = {}
    for state in efsm.states:
        representatives.setdefault(block[state.index], state.index)
    if len(representatives) == len(efsm.states):
        return efsm
    ordered = sorted(representatives.values())
    renumber = {old: new for new, old in enumerate(ordered)}
    final = {index: renumber[representatives[block[index]]]
             for index in block}
    representatives = ordered
    states = []
    for old in representatives:
        source = efsm.state(old)
        states.append(State(
            index=renumber[old],
            reaction=_retarget_mapped(source.reaction, final),
            residue=source.residue,
            label=source.label,
        ))
    return Efsm(
        name=efsm.name,
        states=states,
        initial=final[efsm.initial],
        inputs=efsm.inputs,
        outputs=efsm.outputs,
        locals=efsm.locals,
        module=efsm.module,
    )


def _signature(node, mapping, signature_ids, memo):
    """A small int naming the reaction of ``node`` with leaf targets
    read through ``mapping``: equal reactions get equal ints.  Signatures
    are interned bottom-up on shallow keys (``signature_ids``), and
    ``memo`` (by node id) computes a shared subtree once."""
    cached = memo.get(id(node))
    if cached is not None:
        return cached
    if isinstance(node, Leaf):
        target = TERMINATED if node.target == TERMINATED \
            else mapping[node.target]
        key = ("leaf", target, node.delta)
    elif isinstance(node, TestSignal):
        key = ("sig", node.signal,
               _signature(node.then, mapping, signature_ids, memo),
               _signature(node.otherwise, mapping, signature_ids, memo))
    elif isinstance(node, TestData):
        key = ("data", node.cond,
               _signature(node.then, mapping, signature_ids, memo),
               _signature(node.otherwise, mapping, signature_ids, memo))
    elif isinstance(node, DoAction):
        key = ("act", node.stmt,
               _signature(node.next, mapping, signature_ids, memo))
    elif isinstance(node, DoEmit):
        key = ("emit", node.signal, node.value,
               _signature(node.next, mapping, signature_ids, memo))
    else:
        raise TypeError("unknown reaction node %r" % (node,))
    signature = signature_ids.setdefault(key, len(signature_ids))
    memo[id(node)] = signature
    return signature


def _retarget_mapped(node, mapping):
    if isinstance(node, Leaf):
        if node.target == TERMINATED:
            return node
        return Leaf(target=mapping[node.target], delta=node.delta)
    if isinstance(node, TestSignal):
        return TestSignal(node.signal,
                          _retarget_mapped(node.then, mapping),
                          _retarget_mapped(node.otherwise, mapping))
    if isinstance(node, TestData):
        return TestData(node.cond,
                        _retarget_mapped(node.then, mapping),
                        _retarget_mapped(node.otherwise, mapping))
    if isinstance(node, DoAction):
        return DoAction(node.stmt, _retarget_mapped(node.next, mapping))
    if isinstance(node, DoEmit):
        return DoEmit(node.signal, node.value,
                      _retarget_mapped(node.next, mapping))
    raise TypeError("unknown reaction node %r" % (node,))
