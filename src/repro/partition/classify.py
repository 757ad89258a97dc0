"""Fragment classification (Section 6.1): top/bottom, red/blue/large/green.

* **top** fragments have at least ``log n`` nodes; they form an
  upward-closed subtree T_Top of the hierarchy tree.
* **red** fragments are the leaves of T_Top; **large** ones its internal
  fragments.
* **blue** fragments are the non-top children of large fragments;
  **green** fragments the (necessarily non-top) children of red ones.

Observation 6.1: the red and blue fragments partition the tree's nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from ..hierarchy.fragments import Fragment, Hierarchy
from ..labels.wellforming import log_threshold


@dataclass
class FragmentClasses:
    """The classification of every fragment of a hierarchy."""

    threshold: int
    top: Set[Fragment] = field(default_factory=set)
    bottom: Set[Fragment] = field(default_factory=set)
    red: Set[Fragment] = field(default_factory=set)
    large: Set[Fragment] = field(default_factory=set)
    blue: Set[Fragment] = field(default_factory=set)
    green: Set[Fragment] = field(default_factory=set)

    def kind(self, fragment: Fragment) -> str:
        return "top" if fragment in self.top else "bottom"


def classify_fragments(hierarchy: Hierarchy) -> FragmentClasses:
    """Classify every fragment of ``hierarchy`` per Section 6.1."""
    n = hierarchy.graph.n
    threshold = log_threshold(n)
    classes = FragmentClasses(threshold=threshold)

    for frag in hierarchy.fragments:
        if frag.size >= threshold:
            classes.top.add(frag)
        else:
            classes.bottom.add(frag)

    for frag in classes.top:
        has_top_child = any(c in classes.top for c in frag.children)
        if has_top_child:
            classes.large.add(frag)
        else:
            classes.red.add(frag)

    for frag in classes.bottom:
        parent = frag.parent
        if parent is None:  # pragma: no cover - T is always top
            continue
        if parent in classes.large:
            classes.blue.add(frag)
        elif parent in classes.red:
            classes.green.add(frag)

    return classes


def check_red_blue_partition(hierarchy: Hierarchy,
                             classes: FragmentClasses) -> bool:
    """Observation 6.1: red + blue fragments partition the node set."""
    seen: Dict[int, int] = {v: 0 for v in hierarchy.graph.nodes()}
    for frag in classes.red | classes.blue:
        for v in frag.nodes:
            seen[v] += 1
    return all(count == 1 for count in seen.values())


def top_ancestors_chain(classes: FragmentClasses,
                        red: Fragment) -> List[Fragment]:
    """``red`` and its (top) ancestors, by increasing level — the fragments
    whose pieces a Top part derived from ``red`` stores (Section 6.3.7)."""
    chain: List[Fragment] = []
    cur = red
    while cur is not None:
        if cur in classes.top:
            chain.append(cur)
        cur = cur.parent
    chain.sort(key=lambda f: f.level)
    return chain


def bottom_fragments_within(classes: FragmentClasses,
                            part_fragment: Fragment) -> List[Fragment]:
    """All bottom fragments contained in a Bottom part (including itself),
    sorted by (level, root) — the Bottom part's piece list (Section 6.3.8).

    The hierarchy is laminar and each parent link is the minimal strict
    superset, so the fragments inside ``part_fragment`` are exactly the
    fragment and its descendants: a walk down the children, not a
    subset test against every bottom fragment."""
    out: List[Fragment] = []
    stack = [part_fragment]
    while stack:
        frag = stack.pop()
        if frag in classes.bottom:
            out.append(frag)
        stack.extend(frag.children)
    out.sort(key=lambda f: (f.level, f.root))
    return out
