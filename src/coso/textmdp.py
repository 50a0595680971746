"""Toy environments with text-shaped action interfaces.

Each environment exposes a fixed-length utterance grammar and a deterministic
parser mapping utterances to executable actions.  Only a minority of utterance
slots are action-critical; the rest are filler/format slots that the parser
never reads.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

NULL = 0
EOS = 1

FILLER = "FILLER"
ACTION_KIND = "ACTION_KIND"
ACTION_ARG = "ACTION_ARG"
FORMAT = "FORMAT"


class ParseError(Exception):
    """Raised when an action slot holds an illegal token."""


@dataclass(frozen=True)
class Vocab:
    size: int
    names: tuple[str, ...]

    def __post_init__(self):
        if not (2 < self.size <= 64):
            raise ValueError(f"vocab size out of range: {self.size}")
        if len(self.names) != self.size:
            raise ValueError("name table must cover every token id")

    def name(self, token: int) -> str:
        return self.names[token]


@dataclass(frozen=True)
class UtteranceGrammar:
    n: int
    roles: tuple[str, ...]
    legal: tuple[frozenset, ...]  # legal token ids per slot (parse validation)

    def __post_init__(self):
        if len(self.roles) != self.n or len(self.legal) != self.n:
            raise ValueError("roles/legal must have one entry per slot")
        if sum(r == ACTION_KIND for r in self.roles) != 1:
            raise ValueError("grammar must have exactly one ACTION_KIND slot")

    @property
    def kind_slot(self) -> int:
        return self.roles.index(ACTION_KIND)

    @property
    def arg_slots(self) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.roles) if r == ACTION_ARG)


@dataclass(frozen=True)
class Action:
    kind: str
    arg: Optional[int] = None

    def __str__(self):
        return self.kind if self.arg is None else f"{self.kind}({self.arg})"


@dataclass(frozen=True)
class EnvState:
    features: tuple[int, ...]
    step_count: int = 0


def check_utterance(y: Sequence[int], n: int, vocab_size: int,
                    allow_null: bool = False) -> None:
    if len(y) != n:
        raise ValueError(f"utterance length {len(y)} != {n}")
    for t in y:
        if not (0 <= t < vocab_size):
            raise ValueError(f"token id {t} outside vocab")
        if t == NULL and not allow_null:
            raise ValueError("NULL token in utterance")


class TextEnv:
    """Base: fixed grammar, pure parse/reset/step over immutable states."""

    env_id: str
    vocab: Vocab
    grammar: UtteranceGrammar
    horizon: int
    r_min: float = -0.05
    r_max: float = 1.0

    # kind-slot token id -> action kind tag
    kind_tokens: dict
    # arg-slot token id -> payload value (empty if no payloads)
    arg_tokens: dict = {}

    def parse(self, y: Sequence[int]) -> Action:
        """Deterministic utterance -> action map; reads only action slots."""
        check_utterance(y, self.grammar.n, self.vocab.size)
        kind_tok = y[self.grammar.kind_slot]
        if kind_tok not in self.kind_tokens:
            raise ParseError(f"illegal token {kind_tok} in ACTION_KIND slot")
        kind = self.kind_tokens[kind_tok]
        arg = None
        if kind in self.kinds_with_payload():
            slot = self.grammar.arg_slots[0]
            arg_tok = y[slot]
            if arg_tok not in self.arg_tokens:
                raise ParseError(f"illegal token {arg_tok} in ACTION_ARG slot")
            arg = self.arg_tokens[arg_tok]
        return Action(kind, arg)

    def parse_or_noop(self, y: Sequence[int]) -> tuple[Action, bool]:
        """Parse, folding ParseError into a penalized NOOP."""
        try:
            return self.parse(y), True
        except ParseError:
            return Action("NOOP"), False

    def kinds_with_payload(self) -> frozenset:
        return frozenset()

    def action_classes(self) -> tuple[Action, ...]:
        raise NotImplementedError

    def action_index(self, a: Action) -> int:
        return self.action_classes().index(a)

    @property
    def num_actions(self) -> int:
        return len(self.action_classes())

    def reset(self, seed: int) -> EnvState:
        raise NotImplementedError

    def step(self, state: EnvState, action: Action) -> tuple[EnvState, float, bool]:
        raise NotImplementedError

    def state_feature_cards(self) -> tuple[int, ...]:
        """Cardinality of each integer state feature (for one-hot encoders)."""
        raise NotImplementedError

    def state_from_spec(self, spec: str) -> EnvState:
        """Build a state from a 'key=value,key=value' string (probe CLI)."""
        raise NotImplementedError

    def _check_step(self, state: EnvState) -> None:
        if state.step_count >= self.horizon:
            raise ValueError("stepping a finished episode")


class NumberLineEnv(TextEnv):
    """Move a counter c to a target t with +/- moves on [0, N]."""

    env_id = "numberline"
    N = 9
    horizon = 20

    KIND_NAMES = {2: "PLUS", 3: "MINUS", 4: "NOOP"}

    def __init__(self):
        names = ("<null>", "<eos>", "plus", "minus", "noop", "the", "a",
                 "go", "move", "now", "ok", "um", "so", "then", "well", "yo")
        self.vocab = Vocab(size=16, names=names)
        non_null = frozenset(range(1, 16))
        self.grammar = UtteranceGrammar(
            n=3,
            roles=(FILLER, FILLER, ACTION_KIND),
            legal=(non_null, non_null, frozenset(self.KIND_NAMES)),
        )
        self.kind_tokens = dict(self.KIND_NAMES)
        self.arg_tokens = {}

    def action_classes(self) -> tuple[Action, ...]:
        return (Action("PLUS"), Action("MINUS"), Action("NOOP"))

    def state_feature_cards(self) -> tuple[int, ...]:
        return (self.N + 1, self.N + 1)

    def reset(self, seed: int) -> EnvState:
        rng = np.random.default_rng(seed)
        c = int(rng.integers(0, self.N + 1))
        t = int(rng.integers(0, self.N + 1))
        while t == c:
            t = int(rng.integers(0, self.N + 1))
        return EnvState(features=(c, t), step_count=0)

    def step(self, state: EnvState, action: Action) -> tuple[EnvState, float, bool]:
        self._check_step(state)
        c, t = state.features
        if action.kind == "PLUS":
            c = min(self.N, c + 1)
            reward = -0.01
        elif action.kind == "MINUS":
            c = max(0, c - 1)
            reward = -0.01
        elif action.kind == "NOOP":
            reward = -0.05
        else:
            raise ValueError(f"unknown action {action}")
        done = False
        if c == t:
            reward = 1.0
            done = True
        nxt = EnvState(features=(c, t), step_count=state.step_count + 1)
        if nxt.step_count >= self.horizon:
            done = True
        return nxt, reward, done

    def state_from_spec(self, spec: str) -> EnvState:
        kv = dict(item.split("=") for item in spec.split(","))
        return EnvState(features=(int(kv["c"]), int(kv["tau"])), step_count=0)


class MenuNavEnv(TextEnv):
    """Small menu-navigation graph with a trap screen.

    Screens: HOME(0), SEARCH(1), RESULTS(2, goal), SHARE(3, trap).  The goal
    pays off only after the query has been typed on the search screen.  The
    trap screen ignores every click; escaping needs BACK or HOME.
    """

    env_id = "menunav"
    horizon = 10

    HOME, SEARCH, RESULTS, SHARE = 0, 1, 2, 3
    KIND_NAMES = {2: "CLICK", 3: "BACK", 4: "HOME", 5: "TYPE", 6: "NOOP"}

    def __init__(self):
        names = ["<null>", "<eos>", "click", "back", "home", "type", "noop",
                 ":", "s0", "s1", "s2", "s3"]
        fillers = ["i", "will", "try", "to", "open", "find", "item", "page",
                   "menu", "app", "next", "plan", "look", "tap", "see", "do",
                   "get", "good", "fine", "done"]
        names += fillers
        self.vocab = Vocab(size=32, names=tuple(names))
        non_null = frozenset(range(1, 32))
        self.grammar = UtteranceGrammar(
            n=6,
            roles=(FILLER, FILLER, FILLER, FORMAT, ACTION_KIND, ACTION_ARG),
            legal=(non_null, non_null, non_null, frozenset({7}),
                   frozenset(self.KIND_NAMES), frozenset({8, 9, 10, 11})),
        )
        self.kind_tokens = dict(self.KIND_NAMES)
        self.arg_tokens = {8: 0, 9: 1, 10: 2, 11: 3}

    def kinds_with_payload(self) -> frozenset:
        return frozenset({"CLICK"})

    def action_classes(self) -> tuple[Action, ...]:
        return (Action("CLICK", 0), Action("CLICK", 1), Action("CLICK", 2),
                Action("CLICK", 3), Action("BACK"), Action("HOME"),
                Action("TYPE"), Action("NOOP"))

    def state_feature_cards(self) -> tuple[int, ...]:
        return (4, 2)  # screen id, typed-query flag

    def reset(self, seed: int) -> EnvState:
        return EnvState(features=(self.HOME, 0), step_count=0)

    def step(self, state: EnvState, action: Action) -> tuple[EnvState, float, bool]:
        self._check_step(state)
        screen, typed = state.features
        reward = -0.01
        done = False

        if action.kind == "NOOP":
            reward = -0.05
        elif action.kind == "HOME":
            screen = self.HOME
        elif action.kind == "BACK":
            screen = self.HOME
        elif action.kind == "TYPE":
            if screen == self.SEARCH:
                typed = 1
        elif action.kind == "CLICK":
            if screen == self.HOME:
                if action.arg == 0:
                    screen = self.SEARCH
                elif action.arg == 1:
                    screen = self.SHARE
                # slots 2/3 are dead buttons on HOME
            elif screen == self.SEARCH:
                if action.arg == 0 and typed:
                    screen = self.RESULTS
                    reward = 1.0
                    done = True
                elif action.arg == 1:
                    screen = self.SHARE
            # every click on the trap screen is ignored
        else:
            raise ValueError(f"unknown action {action}")

        nxt = EnvState(features=(screen, typed), step_count=state.step_count + 1)
        if nxt.step_count >= self.horizon:
            done = True
        return nxt, reward, done

    def trap_state(self) -> EnvState:
        return EnvState(features=(self.SHARE, 0), step_count=0)

    def state_from_spec(self, spec: str) -> EnvState:
        if spec == "trap":
            return self.trap_state()
        kv = dict(item.split("=") for item in spec.split(","))
        return EnvState(features=(int(kv["screen"]), int(kv.get("typed", 0))),
                        step_count=0)


_REGISTRY = {
    NumberLineEnv.env_id: NumberLineEnv,
    MenuNavEnv.env_id: MenuNavEnv,
}


def make_env(env_id: str) -> TextEnv:
    try:
        return _REGISTRY[env_id]()
    except KeyError:
        raise KeyError(f"unknown env id {env_id!r}; known: {sorted(_REGISTRY)}")


def env_ids() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def grammar_spec(env_id: str) -> UtteranceGrammar:
    return make_env(env_id).grammar


def grammar_report(env_id: str) -> str:
    """Human-readable dump of a grammar and its token tables."""
    env = make_env(env_id)
    g = env.grammar
    lines = [f"env: {env.env_id}", f"vocab size: {env.vocab.size}",
             f"utterance length: {g.n}", f"horizon: {env.horizon}", "slots:"]
    for i, role in enumerate(g.roles):
        legal = ",".join(env.vocab.name(t) for t in sorted(g.legal[i]))
        lines.append(f"  [{i}] {role:11s} legal: {legal}")
    lines.append("actions: " + ", ".join(str(a) for a in env.action_classes()))
    return "\n".join(lines)
