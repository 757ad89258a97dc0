"""The 1-round local checks of the verifier (Sections 2.6, 5, 6.1.3).

Every function takes a :mod:`view <repro.labels.views>` of one node and
returns a list of failure reasons (empty = the node accepts).  The checks
cover:

* Example SP — H(G) is a spanning tree rooted at a unique root, and every
  node knows its parent and children (the remark of Section 2.6);
* Example NumK — every node knows n;
* hierarchy-height agreement (ell);
* the Roots-string conditions RS0–RS5;
* the EndP/Parents conditions EPS0–EPS5, with EPS1 checked through the
  capped Or-EndP counters (NumK-style aggregation);
* the published J(v) bitmask and the top/bottom delimiter;
* the partition fields: part-root agreement, in-part distances, the EDIAM
  height bounds, piece-count agreement and piece well-formedness
  (Lemmas 6.4/6.5: diameter O(log n), O(log n) pieces per part).

All checks are *local* (node + neighbours) and run in O(1) time per round,
which makes this portion of the scheme a 1-proof labeling scheme: it is
trivially self-stabilizing (it "silently stabilizes").

Robustness note: the adversary may set registers to arbitrary values, so
every access is type-guarded; malformed state is itself a failure reason.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, List, Optional, Sequence

from .registers import (REG_BOT_BOUND, REG_BOT_COUNT, REG_BOT_DIST,
                        REG_BOT_ROOT, REG_DELIM, REG_DIST, REG_ELL, REG_ENDP,
                        REG_JMASK, REG_N, REG_ORENDP, REG_PARENT_ID,
                        REG_PARENT_PORT, REG_PARENTS, REG_PIECES_BOT,
                        REG_PIECES_TOP, REG_ROOTS, REG_SUBTREE, REG_TID,
                        REG_TOP_BOUND, REG_TOP_COUNT, REG_TOP_DIST,
                        REG_TOP_ROOT, REG_TOP_DIST)
from .strings import ENDP_DOWN, ENDP_NONE, ENDP_STAR, ENDP_UP
from .views import view_neighbor_at_port


def _is_nat(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def log_threshold(n: int) -> int:
    """The paper's ``log n`` size threshold: ceil(log2 n), at least 1."""
    if n <= 1:
        return 1
    return max(1, (n - 1).bit_length())


@lru_cache(maxsize=8192)
def _sorted_levels_tuple(jmask: int) -> tuple:
    if jmask < 0:
        # a negative int has infinitely many set bits: the shift loop
        # below would never end
        raise ValueError(f"J-mask must be non-negative, got {jmask}")
    levels = []
    j = 0
    while jmask:
        if jmask & 1:
            levels.append(j)
        jmask >>= 1
        j += 1
    return tuple(levels)


def sorted_levels(jmask: int) -> List[int]:
    """J(v) as a sorted list of levels, decoded from the bitmask
    (``ValueError`` on a negative mask).

    Decoded masks are memoized (the verifier decodes the same J(v) every
    step); a fresh list is returned so callers may slice and compare
    against other lists freely."""
    return list(_sorted_levels_tuple(jmask))


def level_is_bottom(jmask: int, delim: int, level: int) -> Optional[bool]:
    """Whether ``level`` is classified bottom for this node (None when the
    level is not in J(v))."""
    levels = sorted_levels(jmask)
    if level not in levels:
        return None
    return levels.index(level) < delim


# ---------------------------------------------------------------------------
# Example SP
# ---------------------------------------------------------------------------

def check_spanning_tree(view) -> List[str]:
    """The 1-PLS of Example SP plus the parent/children remark."""
    bad: List[str] = []
    pid = view.get(REG_PARENT_ID)
    pport = view.get(REG_PARENT_PORT)
    tid = view.get(REG_TID)
    dist = view.get(REG_DIST)
    if not _is_nat(dist):
        return ["SP: distance register malformed"]
    if not isinstance(tid, int):
        return ["SP: root-id register malformed"]
    if pid is None:
        if pport is not None:
            bad.append("SP: root with a parent port")
        if dist != 0:
            bad.append("SP: root with nonzero distance")
        if tid != view.node:
            bad.append("SP: root id differs from claimed tree root")
    else:
        if not isinstance(pid, int) or pid not in view.neighbors:
            return ["SP: parent is not a neighbour"]
        if view_neighbor_at_port(view, pport) != pid:
            bad.append("SP: parent port does not lead to the parent")
        if dist == 0:
            bad.append("SP: non-root with distance 0")
        elif view.read(pid, REG_DIST) != dist - 1:
            bad.append("SP: parent distance is not one less")
    for u in view.neighbors:
        if view.read(u, REG_TID) != tid:
            bad.append("SP: neighbours disagree on the tree root")
            break
    return bad


def tree_children(view) -> List[Any]:
    """Neighbours pointing at this node as their parent."""
    return [u for u in view.neighbors if view.read(u, REG_PARENT_ID) == view.node]


# ---------------------------------------------------------------------------
# Example NumK
# ---------------------------------------------------------------------------

def check_size(view) -> List[str]:
    """The 1-PLS of Example NumK: every node knows n."""
    bad: List[str] = []
    n = view.get(REG_N)
    st = view.get(REG_SUBTREE)
    if not _is_nat(n) or n < 1:
        return ["NumK: node-count register malformed"]
    if not _is_nat(st):
        return ["NumK: subtree-count register malformed"]
    for u in view.neighbors:
        if view.read(u, REG_N) != n:
            bad.append("NumK: neighbours disagree on n")
            break
    total = 1
    for c in tree_children(view):
        cst = view.read(c, REG_SUBTREE)
        total += cst if _is_nat(cst) else 0
    if st != total:
        bad.append("NumK: subtree count mismatch")
    if view.get(REG_PARENT_ID) is None and st != n:
        bad.append("NumK: root subtree count differs from n")
    return bad


# ---------------------------------------------------------------------------
# hierarchy height
# ---------------------------------------------------------------------------

def check_ell(view) -> List[str]:
    """All nodes agree on ell and ell <= ceil(log2 n) (Lemma 4.1)."""
    bad: List[str] = []
    ell = view.get(REG_ELL)
    n = view.get(REG_N)
    if not _is_nat(ell):
        return ["ELL: height register malformed"]
    for u in view.neighbors:
        if view.read(u, REG_ELL) != ell:
            bad.append("ELL: neighbours disagree on the hierarchy height")
            break
    if _is_nat(n) and n >= 1 and ell > log_threshold(n):
        bad.append("ELL: height exceeds ceil(log2 n)")
    return bad


# ---------------------------------------------------------------------------
# Roots strings: RS0 - RS5
# ---------------------------------------------------------------------------

def check_roots_string(view) -> List[str]:
    bad: List[str] = []
    roots = view.get(REG_ROOTS)
    ell = view.get(REG_ELL)
    if not isinstance(roots, str) or not isinstance(ell, int):
        return ["RS: roots string malformed"]
    if any(c not in "01*" for c in roots):
        return ["RS: roots string has invalid symbols"]
    if len(roots) != ell + 1:                                   # RS1
        return ["RS1: roots string length differs from ell+1"]
    seen_zero = False
    for c in roots:                                             # RS0
        if c == "0":
            seen_zero = True
        elif c == "1" and seen_zero:
            bad.append("RS0: a '1' appears after a '0'")
            break
    if roots[0] != "1":                                         # RS3
        bad.append("RS3: node is not the root of its level-0 singleton")
    is_root = view.get(REG_PARENT_ID) is None
    if is_root:
        if any(c == "0" for c in roots) or roots[-1] != "1":    # RS2
            bad.append("RS2: tree root's string must be [1,*]* ending in 1")
    else:
        if roots[-1] != "0":                                    # RS4
            bad.append("RS4: non-root must be a member at level ell")
        pid = view.get(REG_PARENT_ID)
        proots = view.read(pid, REG_ROOTS) if pid in view.neighbors else None
        for j, c in enumerate(roots):                           # RS5
            if c == "0":
                if (not isinstance(proots, str) or j >= len(proots)
                        or proots[j] == "*"):
                    bad.append("RS5: member of a fragment whose parent "
                               "has no fragment at that level")
                    break
    return bad


# ---------------------------------------------------------------------------
# EndP / Parents strings: EPS0 - EPS5 (EPS1 through Or-EndP)
# ---------------------------------------------------------------------------

def check_endp_parents(view) -> List[str]:
    bad: List[str] = []
    roots = view.get(REG_ROOTS)
    endp = view.get(REG_ENDP)
    pstr = view.get(REG_PARENTS)
    orendp = view.get(REG_ORENDP)
    ell = view.get(REG_ELL)
    if not isinstance(roots, str) or not isinstance(ell, int):
        return []  # reported by check_roots_string
    width = ell + 1
    if not isinstance(endp, str) or len(endp) != width or \
            any(c not in "udn*" for c in endp):
        return ["EPS: EndP string malformed"]
    if not isinstance(pstr, str) or len(pstr) != width or \
            any(c not in "01" for c in pstr):
        return ["EPS: Parents string malformed"]
    if not isinstance(orendp, tuple) or len(orendp) != width or \
            any(not _is_nat(x) or x > 2 for x in orendp):
        return ["EPS: Or-EndP counters malformed"]
    if len(roots) != width:
        return []

    pid = view.get(REG_PARENT_ID)
    is_root = pid is None
    children = tree_children(view)

    for j in range(width):
        # structural: '*' in EndP iff '*' in Roots
        if (endp[j] == ENDP_STAR) != (roots[j] == "*"):
            bad.append(f"EPS: EndP/Roots '*' mismatch at level {j}")
        # EPS0: my Parents bit points at my parent's EndP 'down'
        if pstr[j] == "1" and not is_root and pid in view.neighbors:
            pendp = view.read(pid, REG_ENDP)
            if not isinstance(pendp, str) or j >= len(pendp) or \
                    pendp[j] != ENDP_DOWN:
                bad.append(f"EPS0: Parents bit without a 'down' parent "
                           f"at level {j}")
        # EPS2: 'down' selects exactly one child
        if endp[j] == ENDP_DOWN:
            count = 0
            for c in children:
                cp = view.read(c, REG_PARENTS)
                if isinstance(cp, str) and j < len(cp) and cp[j] == "1":
                    count += 1
            if count != 1:
                bad.append(f"EPS2: 'down' endpoint with {count} marked "
                           f"children at level {j}")
        # EPS3
        if endp[j] == ENDP_UP:
            if roots[j] != "1":
                bad.append(f"EPS3: 'up' endpoint is not its fragment root "
                           f"at level {j}")
            if any(roots[i] == "1" for i in range(j + 1, width)):
                bad.append(f"EPS3: 'up' endpoint is a root above level {j}")
        # EPS4
        if pstr[j] == "1":
            if roots[j] == "0":
                bad.append(f"EPS4: Parents bit at a fragment member, "
                           f"level {j}")
            if any(roots[i] == "1" for i in range(j + 1, width)):
                bad.append(f"EPS4: Parents bit below a root above level {j}")
        # EPS1 via Or-EndP (NumK-style aggregation, capped at 2)
        if roots[j] == "*":
            if orendp[j] != 0:
                bad.append(f"EPS1: Or-EndP nonzero without a fragment at "
                           f"level {j}")
            continue
        expected = 1 if endp[j] in (ENDP_UP, ENDP_DOWN) else 0
        for c in children:
            croots = view.read(c, REG_ROOTS)
            corp = view.read(c, REG_ORENDP)
            if isinstance(croots, str) and j < len(croots) and \
                    croots[j] == "0" and isinstance(corp, tuple) and \
                    j < len(corp) and _is_nat(corp[j]):
                expected += corp[j]
        if orendp[j] != min(2, expected):
            bad.append(f"EPS1: Or-EndP aggregation mismatch at level {j}")
        if roots[j] == "1":
            # fragment root: exactly one endpoint below (0 for T itself)
            is_whole_tree = (j == ell)
            want = 0 if is_whole_tree else 1
            if orendp[j] != want:
                bad.append(f"EPS1: fragment at level {j} has "
                           f"{orendp[j]} candidate endpoints, wants {want}")

    # EPS5
    if not is_root:
        if not any(pstr[j] == "1" or endp[j] == ENDP_UP for j in range(width)):
            bad.append("EPS5: non-root with no level joining its parent")
    return bad


# ---------------------------------------------------------------------------
# J(v) bitmask and the top/bottom delimiter
# ---------------------------------------------------------------------------

def check_jmask_delim(view) -> List[str]:
    bad: List[str] = []
    roots = view.get(REG_ROOTS)
    jmask = view.get(REG_JMASK)
    delim = view.get(REG_DELIM)
    if not isinstance(roots, str):
        return []
    if not _is_nat(jmask):
        return ["JM: level bitmask malformed"]
    expected = 0
    for j, c in enumerate(roots):
        if c != "*":
            expected |= 1 << j
    if jmask != expected:
        bad.append("JM: published level bitmask differs from Roots string")
    if not _is_nat(delim) or delim > bin(expected).count("1"):
        bad.append("JM: top/bottom delimiter out of range")
        return bad
    # fragment classification must agree along tree edges sharing a level
    pid = view.get(REG_PARENT_ID)
    if pid is not None and pid in view.neighbors and isinstance(delim, int):
        proots = view.read(pid, REG_ROOTS)
        pjmask = view.read(pid, REG_JMASK)
        pdelim = view.read(pid, REG_DELIM)
        if isinstance(proots, str) and _is_nat(pjmask) and _is_nat(pdelim):
            for j, c in enumerate(roots):
                if c != "0":
                    continue  # shares the level-j fragment only when member
                mine = level_is_bottom(expected, delim, j)
                theirs = level_is_bottom(pjmask, pdelim, j)
                if theirs is not None and mine is not None and mine != theirs:
                    bad.append(f"JM: top/bottom class of level {j} differs "
                               "from the parent's")
                    break
    return bad


# ---------------------------------------------------------------------------
# partitions: part roots, distances, EDIAM bounds, piece shape
# ---------------------------------------------------------------------------

def _check_partition(view, tag: str, reg_root: str, reg_dist: str,
                     reg_bound: str, reg_count: str, reg_pieces: str,
                     bound_cap: int, count_cap: int) -> List[str]:
    bad: List[str] = []
    part_root = view.get(reg_root)
    dist = view.get(reg_dist)
    bound = view.get(reg_bound)
    count = view.get(reg_count)
    pieces = view.get(reg_pieces)
    if not isinstance(part_root, int):
        return [f"{tag}: part root malformed"]
    if not _is_nat(dist) or not _is_nat(bound) or not _is_nat(count):
        return [f"{tag}: part registers malformed"]
    if bound > bound_cap:
        bad.append(f"{tag}: part height bound exceeds O(log n)")
    if dist > bound:
        bad.append(f"{tag}: in-part distance exceeds the claimed bound")
    if count > count_cap:
        bad.append(f"{tag}: part stores more than O(log n) pieces")
    pid = view.get(REG_PARENT_ID)
    same_part = (pid is not None and pid in view.neighbors
                 and view.read(pid, reg_root) == part_root)
    if same_part:
        if view.read(pid, reg_dist) != dist - 1:
            bad.append(f"{tag}: in-part distance not one more than parent's")
        if view.read(pid, reg_bound) != bound:
            bad.append(f"{tag}: part height bound differs from parent's")
        if view.read(pid, reg_count) != count:
            bad.append(f"{tag}: piece count differs from parent's")
    else:
        if part_root != view.node:
            bad.append(f"{tag}: part root is not an ancestor inside the part")
        if dist != 0:
            bad.append(f"{tag}: part root with nonzero in-part distance")
    if not isinstance(pieces, tuple) or len(pieces) > 2:
        bad.append(f"{tag}: stored pieces malformed")
    else:
        for pc in pieces:
            if (not isinstance(pc, tuple) or len(pc) != 3
                    or not isinstance(pc[0], int) or not _is_nat(pc[1])):
                bad.append(f"{tag}: stored piece is not (root, level, weight)")
                break
    return bad


def check_partitions(view) -> List[str]:
    n = view.get(REG_N)
    if not _is_nat(n) or n < 1:
        return []  # reported by check_size
    cap = log_threshold(n)
    bad = _check_partition(view, "TOPP", REG_TOP_ROOT, REG_TOP_DIST,
                           REG_TOP_BOUND, REG_TOP_COUNT, REG_PIECES_TOP,
                           bound_cap=4 * cap + 4, count_cap=2 * cap + 2)
    bad += _check_partition(view, "BOTP", REG_BOT_ROOT, REG_BOT_DIST,
                            REG_BOT_BOUND, REG_BOT_COUNT, REG_PIECES_BOT,
                            bound_cap=cap + 2, count_cap=2 * cap + 2)
    return bad


#: every static check, in evaluation order.
ALL_STATIC_CHECKS = (
    check_spanning_tree,
    check_size,
    check_ell,
    check_roots_string,
    check_endp_parents,
    check_jmask_delim,
    check_partitions,
)


def static_check(view) -> List[str]:
    """Run every 1-round local check; returns all failure reasons."""
    bad: List[str] = []
    for check in ALL_STATIC_CHECKS:
        bad.extend(check(view))
    return bad
