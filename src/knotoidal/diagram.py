"""Knotoid diagram combinatorics: Gauss codes and rotational decompositions.

An :class:`OrientedGaussCode` records the passes of a knotoid diagram from leg
to head together with crossing signs.  A :class:`RotDecomp` presents a diagram
as crossings with both strands upward plus whole-turn rotation tokens, with
strand segments labeled 1..L in walk order; it is the input format of the
invariant evaluator.  :func:`walk_key` builds, from marked passes, every
``(code, rho, r)`` key, through which every evaluation reads a diagram.

Both structures are immutable after construction.  Their constructors
check every input: pass roles, crossing and sign sets, label ranges and
duplicates, and every loader (``parse_*``, the CLI) goes through them.  Only
producers that build valid codes by construction skip the code's check,
through the private keyword ``_trusted`` of :class:`OrientedGaussCode`:
``measure.project`` and ``measure.simplify_gauss`` for their codes, and
:meth:`OrientedGaussCode.relabeled`.  Every decomposition is checked.
Whether a decomposition actually assembles into a planar diagram is not
validated; the tokens are taken on trust.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CrossingCountMismatch,
    DuplicateLabel,
    LabelOutOfRange,
    MalformedToken,
    SignCountMismatch,
    UnknownFixture,
)
from .series import _ascii_number


@dataclass(frozen=True)
class Biframing:
    """The two integers attached to a biframed knotoid diagram."""

    framing: int
    coframing: int


# ---------------------------------------------------------------------------
# oriented Gauss codes

class OrientedGaussCode:
    """Signed oriented Gauss code: passes leg-to-head plus crossing signs."""

    __slots__ = ("passes", "signs")

    def __init__(self, passes, signs, *, _trusted: bool = False):
        if _trusted:
            # the producer built valid (int, str) passes and a fresh dict
            self.passes = tuple(passes)
            self.signs = signs
            return
        try:
            passes = tuple((cid, role) for cid, role in passes)
            signs = dict(signs)
        except (TypeError, ValueError) as exc:
            raise MalformedToken(
                f"passes must be (id, role) pairs and signs a mapping: {exc}"
            ) from None
        seen: dict[int, set] = {}
        for cid, role in passes:
            if type(cid) is not int or cid <= 0:
                raise MalformedToken(f"crossing id must be a positive int, got {cid!r}")
            if role not in ("over", "under"):
                raise MalformedToken(f"bad pass role {role!r}")
            seen.setdefault(cid, set())
            if role in seen[cid]:
                raise CrossingCountMismatch(f"crossing {cid} repeats role {role}")
            seen[cid].add(role)
        for cid, roles in seen.items():
            if roles != {"over", "under"}:
                raise CrossingCountMismatch(
                    f"crossing {cid} must appear exactly once as over and once as under"
                )
        if set(signs) != set(seen):
            raise SignCountMismatch(
                f"signs given for {sorted(signs)} but crossings are {sorted(seen)}"
            )
        for cid, sign in signs.items():
            if type(cid) is not int or type(sign) is not int:
                raise MalformedToken(f"crossing id and sign must be ints, got {cid!r}: {sign!r}")
            if sign not in (1, -1):
                raise SignCountMismatch(f"sign of crossing {cid} must be +1 or -1")
        self.passes = passes
        self.signs = signs

    def __eq__(self, other):
        return (
            isinstance(other, OrientedGaussCode)
            and self.passes == other.passes
            and self.signs == other.signs
        )

    def __hash__(self):
        return hash((self.passes, tuple(sorted(self.signs.items()))))

    def __len__(self):
        return len(self.signs)

    def is_empty(self):
        return not self.passes

    def render(self) -> str:
        if not self.passes:
            return ""
        nums = " ".join(
            str(cid if role == "over" else -cid) for cid, role in self.passes
        )
        signs = " ".join("+" if self.signs[cid] > 0 else "-" for cid in sorted(self.signs))
        return f"{nums} {signs}"

    def __repr__(self):
        return f"OrientedGaussCode({self.render()!r})"

    def relabeled(self) -> "OrientedGaussCode":
        """Relabel crossing ids by first appearance along the strand."""
        order: dict[int, int] = {}
        for cid, _ in self.passes:
            if cid not in order:
                order[cid] = len(order) + 1
        return OrientedGaussCode(
            [(order[cid], role) for cid, role in self.passes],
            {order[cid]: s for cid, s in self.signs.items()},
            _trusted=True,
        )


def parse_gauss_code(text: str) -> OrientedGaussCode:
    """Parse the tabulated format: signed integers, then one +/- per crossing.

    A negative entry is an under-pass, a positive entry an over-pass; the k-th
    trailing sign symbol is the sign of crossing k.
    """
    tokens = text.split()
    if not tokens:
        return OrientedGaussCode([], {})
    num_tokens = []
    sign_tokens = []
    in_signs = False
    for tok in tokens:
        if tok in ("+", "-"):
            in_signs = True
            sign_tokens.append(1 if tok == "+" else -1)
        elif in_signs:
            raise MalformedToken(f"number {tok!r} after sign block")
        else:
            try:
                num_tokens.append(_ascii_number(tok))
            except ValueError:
                raise MalformedToken(f"bad token {tok!r}") from None
    if any(n == 0 for n in num_tokens):
        raise MalformedToken("crossing id 0 is not allowed")
    passes = [(abs(n), "over" if n > 0 else "under") for n in num_tokens]
    ids = sorted({cid for cid, _ in passes})
    if ids != list(range(1, len(ids) + 1)):
        raise CrossingCountMismatch(f"crossing ids must be 1..n, got {ids}")
    if len(sign_tokens) != len(ids):
        raise SignCountMismatch(
            f"{len(ids)} crossings but {len(sign_tokens)} sign symbols"
        )
    signs = {k + 1: sign_tokens[k] for k in range(len(ids))}
    return OrientedGaussCode(passes, signs)


def writhe(code: OrientedGaussCode) -> int:
    """Sum of crossing signs; the framing of the diagram."""
    return sum(code.signs.values())


def reverse_code(code: OrientedGaussCode) -> OrientedGaussCode:
    """Gauss code of the orientation-reversed diagram (signs are unchanged)."""
    return OrientedGaussCode(tuple(reversed(code.passes)), dict(code.signs))


# ---------------------------------------------------------------------------
# rotational tangle decompositions

def walk_key(passes, r: int) -> tuple:
    """The ``(code, rho, r)`` key of a strand walk of net rotation ``r``.

    ``passes`` are ``(crossing, sign, over, mark)`` in strand order, each
    crossing a hashable id passed twice.  Its first pass is the step
    ``("open", sign, over)``, its second ``("close", slot)``, with ``slot``
    its position among the pending crossings in opening order; its rho,
    listed in closing order, is its second pass's mark less its first's.
    """
    skeleton, rhos, first, pending = [], [], {}, []
    for crossing, sign, over, mark in passes:
        if crossing in first:
            slot = pending.index(crossing)
            del pending[slot]
            skeleton.append(("close", slot))
            rhos.append(mark - first[crossing])
        else:
            first[crossing] = mark
            pending.append(crossing)
            skeleton.append(("open", sign, over))
    return tuple(skeleton), tuple(rhos), r


@dataclass(frozen=True)
class Crossing:
    sign: int
    over: int
    under: int


@dataclass(frozen=True)
class Rotation:
    sign: int
    label: int


class RotDecomp:
    """A rotational tangle decomposition over strand labels 1..L.

    Ascending label order is leg-to-head strand order; label ``j`` is merged
    into the running strand for j = 2..L when the invariant is evaluated.
    """

    __slots__ = ("labels", "tokens")

    def __init__(self, labels: int, tokens):
        if type(labels) is not int:
            raise MalformedToken(f"label count must be an int, got {labels!r}")
        if labels < 1:
            raise LabelOutOfRange("a decomposition needs at least one label")
        try:
            tokens = tuple(tokens)
        except TypeError:
            raise MalformedToken(f"tokens must be iterable, got {tokens!r}") from None
        used = set()
        for tok in tokens:
            if isinstance(tok, Crossing):
                slots = (tok.over, tok.under)
            elif isinstance(tok, Rotation):
                slots = (tok.label,)
            else:
                raise MalformedToken(f"unknown token {tok!r}")
            if type(tok.sign) is not int or tok.sign not in (1, -1):
                raise MalformedToken(f"bad {type(tok).__name__.lower()} sign {tok.sign!r}")
            for lab in slots:
                if type(lab) is not int:
                    raise MalformedToken(f"label {lab!r} is not an int")
                if not 1 <= lab <= labels:
                    raise LabelOutOfRange(f"label {lab} outside 1..{labels}")
                if lab in used:
                    raise DuplicateLabel(f"label {lab} used twice")
                used.add(lab)
        self.labels = labels
        self.tokens = tokens

    def __eq__(self, other):
        return (
            isinstance(other, RotDecomp)
            and self.labels == other.labels
            and self.tokens == other.tokens
        )

    def __hash__(self):
        return hash((self.labels, self.tokens))

    def crossings(self):
        return [t for t in self.tokens if isinstance(t, Crossing)]

    def rotations(self):
        return [t for t in self.tokens if isinstance(t, Rotation)]

    def writhe(self) -> int:
        return sum(t.sign for t in self.crossings())

    def _by_label(self) -> list[tuple]:
        """``(label, token)`` for each label that carries a token, ascending."""
        at = {}
        for tok in self.tokens:
            if isinstance(tok, Crossing):
                at[tok.over] = at[tok.under] = tok
            else:
                at[tok.label] = tok
        return sorted(at.items())

    def gauss_code(self) -> OrientedGaussCode:
        """The crossings read in ascending label order, numbered by first
        appearance."""
        ids = {tok: n for n, tok in enumerate(self.crossings(), 1)}
        passes = [
            (ids[tok], "over" if label == tok.over else "under")
            for label, tok in self._by_label()
            if tok in ids
        ]
        return OrientedGaussCode(passes, {n: tok.sign for tok, n in ids.items()}).relabeled()

    def key(self) -> tuple:
        """The :func:`walk_key` of the crossings' passes in ascending label
        order, each marked with the net rotation of the labels before it;
        r is the net rotation of all of them."""
        passes, r = [], 0
        for label, tok in self._by_label():
            if isinstance(tok, Crossing):
                passes.append((tok, tok.sign, label == tok.over, r))
            else:
                r += tok.sign
        return walk_key(passes, r)

    def walk(self) -> tuple[tuple, ...]:
        """The strand walk: one step per label that carries a token, ascending.

        It is the skeleton of :meth:`key` with ``("rot", sign)`` at each
        rotation label.  A crossing opens at the lower of its two labels
        and closes at the higher one.  Every walk state at a given label has
        the same crossings pending, in the order they opened, so a state
        keeps its pending data as a plain tuple in that order and a close's
        ``slot`` is the position of the closing crossing in it.
        """
        skeleton = iter(self.key()[0])
        return tuple(
            next(skeleton) if isinstance(tok, Crossing) else ("rot", tok.sign)
            for _, tok in self._by_label()
        )

    def render(self) -> str:
        lines = [f"labels {self.labels}"]
        for tok in self.tokens:
            if isinstance(tok, Crossing):
                lines.append(f"R{'+' if tok.sign > 0 else '-'} {tok.over} {tok.under}")
            else:
                lines.append(f"C{'+' if tok.sign > 0 else '-'} {tok.label}")
        return "\n".join(lines)

    def __repr__(self):
        return f"RotDecomp({self.render().replace(chr(10), '; ')!r})"


TRIVIAL_DECOMP = RotDecomp(1, [])


def parse_decomposition(text: str) -> RotDecomp:
    """Parse the line/semicolon token format.

    Syntax: a header ``labels L`` followed by tokens ``R+ i j``, ``R- i j``,
    ``C+ i``, ``C- i``.
    """
    chunks = [
        c.split("#", 1)[0].strip()
        for piece in text.splitlines()
        for c in piece.split(";")
    ]
    chunks = [c for c in chunks if c]
    if not chunks:
        raise MalformedToken("empty decomposition text")
    header = chunks[0].split()
    if len(header) != 2 or header[0] != "labels":
        raise MalformedToken(f"expected 'labels L' header, got {chunks[0]!r}")
    try:
        labels = _ascii_number(header[1])
    except ValueError:
        raise MalformedToken(f"bad label count {header[1]!r}") from None
    tokens = []
    for chunk in chunks[1:]:
        parts = chunk.split()
        kind = parts[0]
        try:
            args = [_ascii_number(p) for p in parts[1:]]
        except ValueError:
            raise MalformedToken(f"bad token arguments in {chunk!r}") from None
        if kind in ("R+", "R-") and len(args) == 2:
            tokens.append(Crossing(1 if kind == "R+" else -1, args[0], args[1]))
        elif kind in ("C+", "C-") and len(args) == 1:
            tokens.append(Rotation(1 if kind == "C+" else -1, args[0]))
        else:
            raise MalformedToken(f"unrecognized token {chunk!r}")
    return RotDecomp(labels, tokens)


def _relabeled(tokens, label, rotation_sign: int = 1) -> list:
    """The tokens with every label mapped through ``label``; each rotation's
    sign is multiplied by ``rotation_sign``."""
    return [
        Crossing(tok.sign, label(tok.over), label(tok.under))
        if isinstance(tok, Crossing)
        else Rotation(rotation_sign * tok.sign, label(tok.label))
        for tok in tokens
    ]


def reverse_decomposition(d: RotDecomp) -> RotDecomp:
    """Decomposition of the reverse knotoid.

    The reversed walk visits the segments in the opposite order, so labels map
    through k -> L+1-k.  Crossing signs survive orientation reversal, while the
    turning sense of every rotation flips.  The endpoint hooks needed to point
    the reversed endpoints upward again are absorbed into this relabeling; the
    defining contract - the invariant of the result is the antipode image of
    the invariant of the input - is enforced by the test suite.
    """
    flip = d.labels + 1
    return RotDecomp(d.labels, _relabeled(reversed(d.tokens), lambda k: flip - k, -1))


def chain_decompositions(first: RotDecomp, second: RotDecomp) -> RotDecomp:
    """Concatenate two decompositions along the strand (label-shifted)."""
    off = first.labels
    tokens = list(first.tokens) + _relabeled(second.tokens, lambda k: k + off)
    return RotDecomp(first.labels + second.labels, tokens)


def _split_map(labels: int, cuts: dict[int, int]):
    """Label remapping after splitting each label s into 1 + cuts[s] pieces.

    Raises :class:`LabelOutOfRange` for a label to split outside 1..labels."""
    for lab in cuts:
        if type(lab) is not int or not 1 <= lab <= labels:
            raise LabelOutOfRange(f"label {lab!r} outside 1..{labels}")
    offset = 0
    remap = {}
    for lab in range(1, labels + 1):
        remap[lab] = lab + offset
        offset += cuts.get(lab, 0)
    return remap, labels + offset


def insert_rotation_pair(d: RotDecomp, at_label: int) -> RotDecomp:
    """Split segment ``at_label`` and insert a canceling C+ C- pair on it."""
    remap, total = _split_map(d.labels, {at_label: 2})
    base = remap[at_label]
    tokens = _relabeled(d.tokens, remap.__getitem__)
    tokens += [Rotation(1, base + 1), Rotation(-1, base + 2)]
    return RotDecomp(total, tokens)


def insert_r2_pair(d: RotDecomp, first_label: int, second_label: int, sign: int = 1) -> RotDecomp:
    """Insert a crossing immediately undone by its inverse between two segments.

    Two fresh passes are spliced in right after each of the given segments: a
    crossing of the given sign followed by the opposite crossing with the same
    over-strand, realizing a second Reidemeister move between the two strand
    pieces.
    """
    if first_label == second_label:
        raise DuplicateLabel("the two strands of the inserted pair must differ")
    lo, hi = sorted((first_label, second_label))
    remap, total = _split_map(d.labels, {lo: 2, hi: 2})
    tokens = _relabeled(d.tokens, remap.__getitem__)
    lo1, lo2 = remap[lo] + 1, remap[lo] + 2
    hi1, hi2 = remap[hi] + 1, remap[hi] + 2
    # over-strand stays the same on both crossings; signs opposite
    tokens.append(Crossing(sign, hi1, lo1))
    tokens.append(Crossing(-sign, hi2, lo2))
    return RotDecomp(total, tokens)


# ---------------------------------------------------------------------------
# built-in diagrams from the five-crossing tabulation

_TABLE_CODES = {
    ("5_7", "5_421"): "-1 -2 3 4 -3 2 -5 1 5 -4 - - - + +",
    ("5_9", "5_561"): "-1 2 -3 1 -4 5 -2 3 4 -5 - - - + +",
    ("5_12", "5_593"): "-1 2 -3 1 4 -5 -2 3 -4 5 - - - - -",
    ("5_19", "5_796"): "-1 2 -3 4 -5 1 -2 3 5 -4 - - - + +",
    ("5_21", "5_814"): "-1 2 -3 4 -5 1 5 -2 -4 3 - + - - +",
    ("5_24", "5_891"): "-1 2 -3 4 5 -4 -2 1 3 -5 - - - - +",
}

_FIXTURE_DECOMPS = {
    "5_7": "labels 13; R- 11 1; R+ 12 9; R- 8 2; R- 3 6; R+ 5 13; C- 10; C- 7; C+ 4",
    "5_421": "labels 13; R+ 9 1; R+ 2 5; R- 3 13; R- 6 12; R- 10 7; C+ 11; C+ 8; C- 4",
    "5_9": "labels 14; R+ 6 1; R+ 2 7; C- 3; R- 11 5; R- 4 10; C+ 8; R- 9 13; C+ 12; C+ 14",
    "5_561": "labels 12; R+ 6 1; R+ 2 7; R- 8 12; R- 3 9; R- 10 4; C+ 11; C+ 5",
    "5_12": "labels 14; R- 1 6; R- 7 2; R- 11 5; R- 4 10; R- 9 13; C- 3; C+ 12; C+ 8; C+ 14",
    "5_593": "labels 12; R- 1 6; R- 7 2; R- 8 12; R- 3 9; R- 10 4; C+ 11; C+ 5",
}

def table_rows():
    """The tabulated unresolved pairs: (first, second, shared Gauss code)."""
    return [(k1, k2, parse_gauss_code(code)) for (k1, k2), code in _TABLE_CODES.items()]


def fixtures() -> dict[str, tuple[OrientedGaussCode, RotDecomp]]:
    """Built-in diagrams with rotational decompositions, keyed by table label.

    Each name is paired with its pair's tabulated code.  Only the
    decomposition of ``5_7`` reads that code along its strand; the other five
    read its reverse (:func:`reverse_code`, relabeled)."""
    code_by_name = {}
    for (k1, k2), text in _TABLE_CODES.items():
        code_by_name[k1] = text
        code_by_name[k2] = text
    out = {}
    for name, decomp_text in _FIXTURE_DECOMPS.items():
        out[name] = (
            parse_gauss_code(code_by_name[name]),
            parse_decomposition(decomp_text),
        )
    return out


def fixture_decomposition(name: str) -> RotDecomp:
    if name == "trivial":
        return TRIVIAL_DECOMP
    try:
        return fixtures()[name][1]
    except KeyError:
        raise UnknownFixture(f"no fixture named {name!r}") from None
