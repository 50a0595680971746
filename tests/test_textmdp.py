import itertools

import numpy as np
import pytest

from coso import textmdp
from coso.textmdp import (ACTION_KIND, EOS, FILLER, FORMAT, NULL, Action,
                          EnvState, ParseError, TextEnv, env_ids,
                          grammar_report, make_env)


def random_utterance(env, rng):
    g = env.grammar
    return tuple(int(rng.integers(1, env.vocab.size)) for _ in range(g.n))


def test_registry():
    assert env_ids() == ("menunav", "numberline")
    with pytest.raises(KeyError):
        make_env("nope")


def test_numberline_grammar_roles():
    g = make_env("numberline").grammar
    assert g.roles == (FILLER, FILLER, ACTION_KIND)
    assert g.kind_slot == 2


def test_menunav_single_kind_slot():
    g = make_env("menunav").grammar
    assert sum(r == ACTION_KIND for r in g.roles) == 1
    assert g.n == 6


@pytest.mark.parametrize("env_id", env_ids())
def test_majority_of_slots_are_inert(env_id):
    g = make_env(env_id).grammar
    inert = sum(r in (FILLER, FORMAT) for r in g.roles)
    assert inert / g.n >= 0.5


def test_parse_reads_only_kind_slot():
    env = make_env("numberline")
    assert env.parse((7, 3, 2)) == Action("PLUS")
    assert env.parse((5, 9, 2)) == Action("PLUS")


def test_parse_error_on_filler_token_in_kind_slot():
    env = make_env("numberline")
    with pytest.raises(ParseError):
        env.parse((7, 3, 9))


def test_menunav_click_with_arg():
    env = make_env("menunav")
    # filler, filler, filler, sep, CLICK, arg-slot-1
    assert env.parse((13, 14, 15, 7, 2, 9)) == Action("CLICK", 1)
    # non-click kinds ignore the arg slot
    assert env.parse((13, 14, 15, 7, 3, 9)) == Action("BACK")
    with pytest.raises(ParseError):
        env.parse((13, 14, 15, 7, 2, 15))  # illegal arg for CLICK


def test_parse_determinism_fuzz():
    rng = np.random.default_rng(7)
    for env_id in env_ids():
        env = make_env(env_id)
        for _ in range(2000):
            y = random_utterance(env, rng)
            try:
                a1 = env.parse(y)
                a2 = env.parse(y)
                assert a1 == a2
            except ParseError:
                with pytest.raises(ParseError):
                    env.parse(y)


def test_filler_and_format_mutation_invariance():
    rng = np.random.default_rng(11)
    for env_id in env_ids():
        env = make_env(env_id)
        g = env.grammar
        inert = [i for i, r in enumerate(g.roles) if r in (FILLER, FORMAT)]
        for _ in range(200):
            y = list(random_utterance(env, rng))
            base = env.parse_or_noop(tuple(y))
            for i in inert:
                for t in range(1, env.vocab.size):
                    y2 = list(y)
                    y2[i] = t
                    assert env.parse_or_noop(tuple(y2)) == base


def test_reset_determinism_and_distinct_target():
    env = make_env("numberline")
    assert env.reset(42) == env.reset(42)
    for seed in range(200):
        c, t = env.reset(seed).features
        assert c != t
        assert env.reset(seed).step_count == 0


def test_menunav_reset_is_home_untyped():
    env = make_env("menunav")
    for seed in (0, 1, 99):
        s = env.reset(seed)
        assert s.features == (env.HOME, 0)


def test_numberline_success_step():
    env = make_env("numberline")
    s = EnvState(features=(3, 4), step_count=0)
    nxt, r, done = env.step(s, Action("PLUS"))
    assert nxt.features == (4, 4) and r == 1.0 and done


def test_numberline_boundary_clip():
    env = make_env("numberline")
    s = EnvState(features=(0, 5), step_count=0)
    nxt, r, done = env.step(s, Action("MINUS"))
    assert nxt.features == (0, 5) and r == -0.01 and not done


def test_menunav_trap_ignores_clicks():
    env = make_env("menunav")
    trap = env.trap_state()
    for k in range(4):
        nxt, r, done = env.step(trap, Action("CLICK", k))
        assert nxt.features[0] == env.SHARE and r == -0.01 and not done
    nxt, _, _ = env.step(trap, Action("BACK"))
    assert nxt.features[0] == env.HOME


def test_menunav_goal_requires_typed_query():
    env = make_env("menunav")
    search = EnvState(features=(env.SEARCH, 0), step_count=0)
    nxt, r, done = env.step(search, Action("CLICK", 0))
    assert not done and r == -0.01
    typed, _, _ = env.step(search, Action("TYPE"))
    assert typed.features == (env.SEARCH, 1)
    nxt, r, done = env.step(typed, Action("CLICK", 0))
    assert done and r == 1.0 and nxt.features[0] == env.RESULTS


def test_reward_bounds_and_termination_random_play():
    rng = np.random.default_rng(3)
    for env_id in env_ids():
        env = make_env(env_id)
        for ep in range(50):
            s = env.reset(ep)
            done = False
            steps = 0
            while not done:
                y = random_utterance(env, rng)
                a, _ = env.parse_or_noop(y)
                s, r, done = env.step(s, a)
                steps += 1
                assert -0.05 <= r <= env.r_max  # -0.05: a NOOP's penalty
            assert steps <= env.horizon


def test_step_after_done_raises():
    env = make_env("numberline")
    s = EnvState(features=(0, 5), step_count=env.horizon)
    with pytest.raises(ValueError):
        env.step(s, Action("PLUS"))


def test_scalar_step_and_parse_reject_bad_input():
    """A step count of -4 would step to -3, and the float tokens
    (1.5, 1.0, 2.0) would parse as PLUS."""
    env = make_env("numberline")
    with pytest.raises(ValueError, match="step count -4"):
        env.step(EnvState((1, 5), -4), Action("PLUS"))
    with pytest.raises(ValueError, match="token ids of dtype float64"):
        env.parse((1.5, 1.0, 2.0))
    assert env.parse((1, 1, 2)) == Action("PLUS")


def test_state_from_spec():
    nl = make_env("numberline")
    assert nl.state_from_spec("c=3,tau=7").features == (3, 7)
    mn = make_env("menunav")
    assert mn.state_from_spec("trap").features == (mn.SHARE, 0)
    assert mn.state_from_spec("screen=1,typed=1").features == (1, 1)


def test_grammar_report_mentions_all_slots():
    for env_id in env_ids():
        rep = grammar_report(env_id)
        g = make_env(env_id).grammar
        for i in range(g.n):
            assert f"[{i}]" in rep


@pytest.mark.parametrize("env_id", env_ids())
def test_legal_action_tokens_match_the_parse_table(env_id):
    """`coso envs --dump-grammar` prints, per slot, what the parser accepts
    there: the kind tokens that parse with some arg token; the arg tokens
    that parse under every kind whose parse reads the arg, and those
    kinds; and "not read" for every other slot."""
    env = make_env(env_id)
    g, names = env.grammar, env.vocab.names
    tokens = np.arange(1, env.vocab.size)
    kind, arg = np.meshgrid(tokens, tokens, indexing="ij")
    ys = np.full((kind.size, g.n), EOS)  # the parser reads no other slot
    ys[:, g.kind_slot] = kind.ravel()
    for slot in g.arg_slots:
        ys[:, slot] = arg.ravel()
    act, ok = (a.reshape(kind.shape) for a in env.parse_batch(ys))
    reads = np.any((act != act[:, :1]) | (ok != ok[:, :1]), axis=1)

    def listed(ts):
        return ",".join(names[t] for t in ts)
    want = {g.kind_slot: "legal: " + listed(tokens[ok.any(axis=1)])}
    if reads.any():
        want[g.arg_slots[0]] = (
            f"legal: {listed(tokens[ok[reads].all(axis=0)])} "
            f"(read for {listed(tokens[reads])})")
    report = grammar_report(env_id).splitlines()
    for i, role in enumerate(g.roles):
        assert f"  [{i}] {role:11s} {want.get(i, 'not read')}" in report


def test_menunav_grammar_report_names_the_slots_the_parser_reads():
    # the parser never reads the ':' slot, and reads the arg for CLICK only
    report = grammar_report("menunav").splitlines()
    assert "  [3] FORMAT      not read" in report
    assert "  [4] ACTION_KIND legal: click,back,home,type,noop" in report
    assert "  [5] ACTION_ARG  legal: s0,s1,s2,s3 (read for click)" in report
    env = make_env("menunav")
    assert env.parse_batch([[20, 20, 20, 20, 3, 20]])[1].tolist() == [True]


# -- lookup tables against the scalar oracles ---------------------------------


def oracle_labels(env, ys):
    """parse_or_noop + action_index, one utterance at a time."""
    parsed = [env.parse_or_noop(tuple(y)) for y in np.asarray(ys).tolist()]
    return (np.array([env.action_index(a) for a, _ in parsed]),
            np.array([ok for _, ok in parsed]))


@pytest.mark.parametrize("env_id", env_ids())
def test_parse_table_matches_oracle_on_every_token_pair(env_id):
    env = make_env(env_id)
    g = env.grammar
    rng = np.random.default_rng(0)
    slots = [g.kind_slot] + list(g.arg_slots)
    pairs = np.array(list(itertools.product(range(1, env.vocab.size),
                                            repeat=len(slots))))
    # random legal fillers elsewhere: the parser must not read them
    ys = rng.integers(1, env.vocab.size, size=(len(pairs), g.n))
    ys[:, slots] = pairs
    actions, ok = env.parse_batch(ys)
    want_actions, want_ok = oracle_labels(env, ys)
    np.testing.assert_array_equal(actions, want_actions)
    np.testing.assert_array_equal(ok, want_ok)
    assert ok.any() and not ok.all()


@pytest.mark.parametrize("env_id", env_ids())
def test_parse_table_matches_oracle_on_random_utterances(env_id):
    env = make_env(env_id)
    ys = np.random.default_rng(1).integers(1, env.vocab.size,
                                           size=(3000, env.grammar.n))
    actions, ok = env.parse_batch(ys)
    want_actions, want_ok = oracle_labels(env, ys)
    np.testing.assert_array_equal(actions, want_actions)
    np.testing.assert_array_equal(ok, want_ok)


@pytest.mark.parametrize("env_id", env_ids())
def test_parse_batch_rejects_null_and_out_of_vocab(env_id):
    env = make_env(env_id)
    rng = np.random.default_rng(2)
    for slot in range(env.grammar.n):
        for bad in (NULL, env.vocab.size, -1):
            ys = rng.integers(1, env.vocab.size, size=(5, env.grammar.n))
            ys[3, slot] = bad
            with pytest.raises(ValueError):
                env.parse_batch(ys)
            with pytest.raises(ValueError):
                env.parse_or_noop(tuple(ys[3].tolist()))
    with pytest.raises(ValueError):
        env.parse_batch(np.ones((2, env.grammar.n + 1), dtype=int))


def test_parse_batch_rejects_non_integer_tokens():
    """Float token ids are rejected, not truncated: (5.7, 6.2, 2.9) would
    parse as (5, 6, 2)."""
    env = make_env("numberline")
    for ys in ([[5.7, 6.2, 2.9]], [[5.0, 6.0, 2.0]], [[True, True, True]]):
        with pytest.raises(ValueError, match="not integer"):
            env.parse_batch(ys)
    want = env.parse_batch([[5, 6, 2]])
    got = env.parse_batch(np.array([[5, 6, 2]], dtype=np.uint8))
    assert [a.tolist() for a in got] == [a.tolist() for a in want]


@pytest.mark.parametrize("env_id", env_ids())
def test_step_table_matches_oracle_everywhere(env_id):
    """Every state x action x step count below the horizon."""
    env = make_env(env_id)
    classes = env.action_classes()
    grid = list(itertools.product(
        itertools.product(*map(range, env.state_feature_cards())),
        range(len(classes)), range(env.horizon)))
    feats = np.array([f for f, _, _ in grid])
    actions = np.array([a for _, a, _ in grid])
    steps = np.array([t for _, _, t in grid])
    nxt, nsteps, rewards, dones = env.step_batch(feats, steps, actions)
    for j, (f, a, t) in enumerate(grid):
        want, r, done = env.step(EnvState(features=f, step_count=t),
                                 classes[a])
        assert tuple(nxt[j].tolist()) == want.features
        assert nsteps[j] == want.step_count
        assert rewards[j] == r and dones[j] == done


@pytest.mark.parametrize("env_id", env_ids())
def test_step_batch_rejects_finished_and_unknown_inputs(env_id):
    env = make_env(env_id)
    k = len(env.state_feature_cards())
    zeros = np.zeros((1, k), dtype=int)
    with pytest.raises(ValueError, match="finished"):
        env.step_batch(zeros, [env.horizon], [0])
    # a negative count would step to -2, an episode that is not done
    with pytest.raises(ValueError, match="step counts"):
        env.step_batch(zeros, [-3], [0])
    for j, card in enumerate(env.state_feature_cards()):
        for bad in (card, -1):
            feats = zeros.copy()
            feats[0, j] = bad
            with pytest.raises(ValueError):
                env.step_batch(feats, [0], [0])
    for bad in (env.num_actions, -1):
        with pytest.raises(ValueError):
            env.step_batch(zeros, [0], [bad])


def test_step_batch_rejects_non_integer_inputs():
    """Float features, step counts and actions are rejected, not
    truncated: features (1.5, 3.2) would step the state (1, 3)."""
    env = make_env("numberline")
    for args in (([[1.5, 3.2]], [0], [0]), ([[1, 3]], [0.0], [0]),
                 ([[1, 3]], [0], [0.0])):
        with pytest.raises(ValueError, match="not integer"):
            env.step_batch(*args)
    assert env.step_batch([[1, 3]], [0], [0])[0].tolist() == [[2, 3]]


def test_step_batch_rows_must_agree():
    """Two states, one step count: no next state for a row with no step
    count."""
    env = make_env("numberline")
    with pytest.raises(ValueError, match="not one row per state"):
        env.step_batch(np.array([[1, 5], [2, 3]]), np.array([0]),
                       np.array([0, 1]))
    with pytest.raises(ValueError, match="not one row per state"):
        env.step_batch(np.array([[1, 5], [2, 3]]), np.array([0, 0]),
                       np.array([0]))


TABLES = ("_parse_action", "_parse_ok", "_next_feats", "_reward",
          "_terminal", "_table_dims")


@pytest.mark.parametrize("env_id", env_ids())
def test_envs_of_one_id_share_their_tables(env_id):
    a, b = make_env(env_id), make_env(env_id)
    assert a is not b
    for name in TABLES:
        assert getattr(a, name) is getattr(b, name), name


@pytest.mark.parametrize("env_id", env_ids())
def test_tables_compile_once_per_class(env_id, monkeypatch):
    monkeypatch.setattr(textmdp, "_TABLES", {})
    compiled = []
    compile_tables = TextEnv._compile_tables

    def counting(env):
        compiled.append(type(env))
        return compile_tables(env)
    monkeypatch.setattr(TextEnv, "_compile_tables", counting)
    envs = [make_env(env_id) for _ in range(3)]
    assert compiled == [type(envs[0])]


@pytest.mark.parametrize("env_id", env_ids())
def test_tables_are_read_only(env_id):
    env = make_env(env_id)
    for name in TABLES[:-1]:
        table = getattr(env, name)
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = table[(0,) * table.ndim]


@pytest.mark.parametrize("env_id,spec", [
    ("numberline", "c=12,tau=3"),  # once the tau=2 column of the next block
    ("numberline", "c=-1,tau=3"),  # once the last position feature
    ("numberline", "c=3,tau=10"),
    ("numberline", "c=3"),
    ("numberline", "c=3,tau=7,x=1"),
    ("numberline", "c=3,c=4,tau=7"),
    ("numberline", "c=three,tau=7"),
    ("numberline", "c3,tau7"),
    ("numberline", ""),
    ("menunav", "screen=4"),
    ("menunav", "screen=-1"),
    ("menunav", "screen=1,typed=2"),
    ("menunav", "screen=1,typed=1,extra=0"),
    ("menunav", "screen=1=2"),
    ("menunav", "traps"),
])
def test_state_from_spec_rejects_bad_specs(env_id, spec):
    with pytest.raises(ValueError):
        make_env(env_id).state_from_spec(spec)


def test_state_from_spec_accepts_every_valid_state():
    nl = make_env("numberline")
    for c in range(nl.N + 1):
        for tau in range(nl.N + 1):
            assert nl.state_from_spec(f"c={c},tau={tau}").features == (c, tau)
    mn = make_env("menunav")
    for screen in range(4):
        assert mn.state_from_spec(f"screen={screen}").features == (screen, 0)
        for typed in (0, 1):
            assert mn.state_from_spec(
                f"typed={typed},screen={screen}").features == (screen, typed)
