"""Toy environments with text-shaped action interfaces.

Each environment exposes a fixed-length utterance grammar and a deterministic
parser mapping utterances to executable actions.  Only a minority of utterance
slots are action-critical; the rest are filler/format slots that the parser
never reads.

The scalar methods (parse, parse_or_noop, action_index, step) over EnvState
and Action are the reference.  Each env class compiles them into two lookup
tables once per process, on its first instance; every instance shares them
read-only.  parse_batch and step_batch read them for whole batches of int
arrays: states as (m, k) features plus (m,) step counts, actions as indices
into action_classes().

id_array is the one id rule (integer ids in [0, size)): token ids, action
classes and step_batch's step counts and action indices pass it once per
public call.  State features pass state_id_array (integer features, each in
[0, its cardinality)), and config values and scm.train_scm's scalars pass
check_scalar.
"""
from __future__ import annotations

import itertools
import math
import numbers
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


@dataclass(frozen=True)
class UtteranceGrammar:
    n: int
    roles: tuple[str, ...]

    def __post_init__(self):
        if len(self.roles) != self.n:
            raise ValueError("roles must have one entry per slot")
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


def state_arrays(states) -> tuple[np.ndarray, np.ndarray]:
    """(m, k) features and (m,) step counts of a sequence of EnvStates."""
    feats = np.array([st.features for st in states], dtype=np.intp)
    steps = np.array([st.step_count for st in states], dtype=np.intp)
    return feats, steps


def integer_array(a, what: str) -> np.ndarray:
    """a as an array, if its dtype is an integer one; else ValueError naming
    what.  Reads the dtype only, so it makes no pass over the elements."""
    a = np.asarray(a)
    if a.dtype.kind not in "iu":
        raise ValueError(f"{what} of dtype {a.dtype}, not integer")
    return a


def id_array(a, size: int, what: str) -> np.ndarray:
    """a as an intp array of ids; ValueError naming what unless its dtype is
    an integer one and every id is in [0, size)."""
    ids = integer_array(a, what).astype(np.intp, copy=False)
    # one pass: as unsigned, a negative id is above every id in range
    if ids.view(np.uintp).max(initial=0) >= size:
        raise ValueError(f"{what} outside [0, {size})")
    return ids


def state_id_array(feats, cards) -> np.ndarray:
    """(m,) row-major ids over cards of the rows of an (m, len(cards))
    feature array; ValueError naming the state features unless its dtype is
    an integer one and every feature j is in [0, cards[j])."""
    feats = integer_array(feats, "state features")
    if feats.ndim != 2 or feats.shape[1] != len(cards):
        raise ValueError(f"state features of shape {feats.shape}, not (m, "
                         f"{len(cards)})")
    try:  # its bounds check, negatives included, is the range test
        return np.ravel_multi_index(feats.T, cards)
    except ValueError:
        raise ValueError(f"state features outside [0, cardinality) for "
                         f"cardinalities {tuple(cards)}") from None


_SCALAR_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str}


def check_scalar(value, kind: str, what: str) -> None:
    """ValueError naming what unless value is of kind 'int', 'float' or
    'str', and finite if a float (JSON parses NaN and infinities).  As in
    JSON, an int is a float, but a bool is neither an int nor a float."""
    if not isinstance(value, _SCALAR_TYPES[kind]) or isinstance(value, bool):
        raise ValueError(f"{what}={value!r}: {type(value).__name__} not "
                         f"supported as {kind}")
    if kind == "float" and not math.isfinite(value):
        raise ValueError(f"{what}={value!r}: not finite")


_TABLES: dict = {}  # env class -> its read-only lookup tables (_build_tables)


class TextEnv:
    """Base: fixed grammar, pure parse/reset/step over immutable states."""

    env_id: str
    vocab: Vocab
    grammar: UtteranceGrammar
    horizon: int
    r_max: float = 1.0  # the success reward, which evaluate_greedy counts
    reset_reads_seed: bool = True  # False: reset returns one state always

    # kind-slot token id -> action kind tag
    kind_tokens: dict
    # arg-slot token id -> payload value (empty if no payloads)
    arg_tokens: dict = {}

    def parse(self, y: Sequence[int]) -> Action:
        """Deterministic utterance -> action map; reads only action slots."""
        y = self._utterances([y])[0]
        kind_tok = y[self.grammar.kind_slot]
        if kind_tok not in self.kind_tokens:
            raise ParseError(f"illegal token {kind_tok} in ACTION_KIND slot")
        kind = self.kind_tokens[kind_tok]
        arg = None
        if kind in self.kinds_with_payload():
            arg_tok = y[self.grammar.arg_slots[0]]
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

    def _advance(self, state: EnvState, features: tuple, reward: float,
                 done: bool) -> tuple[EnvState, float, bool]:
        """step's result, moving state to features: ValueError unless its
        step count is in [0, horizon), and done at the horizon."""
        t = state.step_count
        if not 0 <= t < self.horizon:
            raise ValueError(f"step count {t} outside [0, {self.horizon})")
        return EnvState(features, t + 1), reward, done or t + 1 >= self.horizon

    def _state_from_kv(self, spec: str, keys: tuple[str, ...],
                       defaults: dict | None = None) -> EnvState:
        """Parse 'key=value,...' into a state, one key per state feature.

        Every key must be known, appear once and hold an integer inside its
        feature's cardinality: an out-of-range value would otherwise name a
        state that does not exist.
        """
        pairs = [item.split("=") for item in spec.split(",")]
        if any(len(p) != 2 for p in pairs):
            raise ValueError(f"malformed state spec {spec!r}: expected "
                             f"{','.join(k + '=<int>' for k in keys)}")
        given = dict(pairs)
        if len(given) != len(pairs) or not set(given) <= set(keys):
            raise ValueError(f"state spec {spec!r} must name each of "
                             f"{list(keys)} at most once, and nothing else")
        kv = {**(defaults or {}), **given}
        feats = []
        for key, card in zip(keys, self.state_feature_cards()):
            if key not in kv:
                raise ValueError(f"state spec {spec!r} lacks {key}")
            try:
                value = int(kv[key])
            except ValueError:
                raise ValueError(f"state spec {spec!r}: {key}={kv[key]!r} "
                                 f"is not an integer") from None
            if not 0 <= value < card:
                raise ValueError(f"state spec {spec!r}: {key}={value} "
                                 f"outside [0, {card - 1}]")
            feats.append(value)
        return EnvState(features=tuple(feats), step_count=0)

    # -- lookup tables -------------------------------------------------------

    def _build_tables(self) -> None:
        """Point this env at its class's lookup tables, compiling them on the
        class's first instance in the process; they are read-only."""
        cls = type(self)
        if cls not in _TABLES:
            tables = self._compile_tables()
            for a in tables.values():
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False
            _TABLES[cls] = tables
        vars(self).update(_TABLES[cls])

    def _compile_tables(self) -> dict:
        """Compile the scalar parser and step into lookup tables, returned
        by attribute name.

        Parse table: (kind token, arg token) -> (action index, parse_ok); an
        env without an arg slot has one arg column.  Transition table: (state
        features..., action index), raveled -> (next features, reward,
        terminal), stepped from step count 0; the horizon is applied by
        step_batch.
        Entries for NULL tokens are never read: parse_batch rejects them.
        """
        g = self.grammar
        classes = self.action_classes()
        v = self.vocab.size
        n_arg = v if g.arg_slots else 1
        parse_action = np.full((v, n_arg), -1, dtype=np.intp)
        parse_ok = np.zeros((v, n_arg), dtype=bool)
        y = [EOS] * g.n  # the parser never reads the other slots
        payload = self.kinds_with_payload()
        for kind_tok in range(1, v):
            y[g.kind_slot] = kind_tok
            # parse reads the arg slot only for a kind with a payload; for
            # any other kind one parse fills the whole row
            reads_arg = self.kind_tokens.get(kind_tok) in payload
            for arg_tok in range(1, v) if reads_arg else (slice(None),):
                if reads_arg:
                    y[g.arg_slots[0]] = arg_tok
                action, ok = self.parse_or_noop(y)
                parse_action[kind_tok, arg_tok] = classes.index(action)
                parse_ok[kind_tok, arg_tok] = ok
        cards = self.state_feature_cards()
        dims = cards + (len(classes),)
        size = int(np.prod(dims))
        next_feats = np.empty((size, len(cards)), dtype=np.intp)
        reward = np.empty(size)
        terminal = np.empty(size, dtype=bool)
        # row-major over (features..., action), the order of ravel_multi_index
        j = 0
        for feats in itertools.product(*map(range, cards)):
            state = EnvState(features=feats)
            for action in classes:
                nxt, r, done = self.step(state, action)
                next_feats[j] = nxt.features
                reward[j] = r
                terminal[j] = done
                j += 1
        return {"_parse_action": parse_action, "_parse_ok": parse_ok,
                "_next_feats": next_feats, "_reward": reward,
                "_terminal": terminal, "_table_dims": dims}

    def _utterances(self, ys) -> np.ndarray:
        """ys as an (m, n) intp array; ValueError on any other shape, a NULL
        token, and ids that are not integers in the vocab."""
        ys = id_array(ys, self.vocab.size, "token ids")
        if ys.ndim != 2 or ys.shape[1] != self.grammar.n:
            raise ValueError(f"utterances of shape {ys.shape}, not (m, "
                             f"{self.grammar.n})")
        if not ys.all():  # NULL is id 0, so no id is NULL iff all are nonzero
            raise ValueError("NULL token in utterance")
        return ys

    def parse_batch(self, ys) -> tuple[np.ndarray, np.ndarray]:
        """(action index, parse_ok) per row of an (m, n) token array.

        Table lookups equal to parse_or_noop + action_index; NULL tokens
        and token ids that are not integers in the vocab raise ValueError,
        as in parse.
        """
        ys = self._utterances(ys)
        g = self.grammar
        kind = ys[:, g.kind_slot]
        arg = ys[:, g.arg_slots[0]] if g.arg_slots else 0
        return self._parse_action[kind, arg], self._parse_ok[kind, arg]

    def step_batch(self, feats, steps, actions):
        """Step m states at once: (next feats, next steps, rewards, dones).

        feats is (m, k), steps (m,) and actions (m,) action indices.  Table
        lookups equal to step; rows that disagree, a feature outside its
        cardinality, an unknown action, a step count outside [0, horizon)
        and an array that is not of integers raise ValueError naming the
        input.
        """
        *cards, num_actions = self._table_dims
        sid = state_id_array(feats, cards)
        steps = id_array(steps, self.horizon,
                         "step counts of unfinished episodes")
        actions = id_array(actions, num_actions, "action indices")
        if not steps.shape == actions.shape == sid.shape:
            raise ValueError(f"{len(sid)} state rows, step counts of shape "
                             f"{steps.shape} and actions of shape "
                             f"{actions.shape}: not one row per state")
        row = sid * num_actions + actions
        steps = steps + 1
        dones = self._terminal[row] | (steps >= self.horizon)
        return self._next_feats[row], steps, self._reward[row], dones


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
        self.grammar = UtteranceGrammar(n=3,
                                        roles=(FILLER, FILLER, ACTION_KIND))
        self.kind_tokens = dict(self.KIND_NAMES)
        self.arg_tokens = {}
        self._build_tables()

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
        return self._advance(state, (c, t), reward, done)

    def state_from_spec(self, spec: str) -> EnvState:
        return self._state_from_kv(spec, ("c", "tau"))


class MenuNavEnv(TextEnv):
    """Small menu-navigation graph with a trap screen.

    Screens: HOME(0), SEARCH(1), RESULTS(2, goal), SHARE(3, trap).  The goal
    pays off only after the query has been typed on the search screen.  The
    trap screen ignores every click; escaping needs BACK or HOME.
    """

    env_id = "menunav"
    horizon = 10
    reset_reads_seed = False

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
        self.grammar = UtteranceGrammar(
            n=6,
            roles=(FILLER, FILLER, FILLER, FORMAT, ACTION_KIND, ACTION_ARG))
        self.kind_tokens = dict(self.KIND_NAMES)
        self.arg_tokens = {8: 0, 9: 1, 10: 2, 11: 3}
        self._build_tables()

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

        return self._advance(state, (screen, typed), reward, done)

    def trap_state(self) -> EnvState:
        return EnvState(features=(self.SHARE, 0), step_count=0)

    def state_from_spec(self, spec: str) -> EnvState:
        if spec == "trap":
            return self.trap_state()
        return self._state_from_kv(spec, ("screen", "typed"), {"typed": 0})


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


def grammar_report(env_id: str) -> str:
    """Human-readable dump of a grammar: each slot's role and the tokens the
    compiled parse table accepts there.

    A kind token is listed if it parses under some arg token.  A kind token
    reads the arg slot if its parse changes with the arg token; an arg token
    is listed if it parses under every kind token that reads the slot, and
    those kinds are named.  The parser reads no other slot.
    """
    env = make_env(env_id)
    g, names = env.grammar, env.vocab.names
    # [kind token, arg token]; the NULL arg column is never read
    ok, act = ((a[:, 1:] if g.arg_slots else a)
               for a in (env._parse_ok, env._parse_action))
    reads_arg = np.any((ok != ok[:, :1]) | (act != act[:, :1]), axis=1)

    def listed(tokens) -> str:
        return ",".join(names[t] for t in tokens)
    read = {g.kind_slot: "legal: " + listed(np.flatnonzero(ok.any(axis=1)))}
    if reads_arg.any():
        args = np.flatnonzero(ok[reads_arg].all(axis=0)) + 1
        read[g.arg_slots[0]] = (f"legal: {listed(args)} (read for "
                                f"{listed(np.flatnonzero(reads_arg))})")
    lines = [f"env: {env.env_id}", f"vocab size: {env.vocab.size}",
             f"utterance length: {g.n}", f"horizon: {env.horizon}", "slots:"]
    for i, role in enumerate(g.roles):
        lines.append(f"  [{i}] {role:11s} {read.get(i, 'not read')}")
    lines.append("actions: " + ", ".join(str(a) for a in env.action_classes()))
    return "\n".join(lines)
