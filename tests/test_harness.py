import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from coso import checkpoint as ckpt
from coso import cli, harness, tabular
from coso import counterfactual as cf
from coso import policy as pol
from coso.coso_rl import Hyperparams, Trainer
from coso.harness import (ARMS, EVAL_SEED_BASE, RunConfig, TheoryCheckSpec,
                          ablation_matrix, cf_report, evaluate_greedy,
                          repeated_sampling_probe, run_experiment,
                          run_single_seed, theory_check, theory_report)
from coso.policy import (FeatureSpec, PolicyParams, greedy_utterance,
                         sample_utterance, sample_utterances_batch)
from coso.scm import ScmParams
from coso.textmdp import TextEnv, make_env, state_arrays


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def tiny_config(**kw):
    base = dict(env_id="numberline", arm="coso", optimizer="ppo",
                hyper=Hyperparams(alpha=0.1, rollout_steps=64, num_envs=8,
                                  scm_steps=2),
                seeds=(0,), total_env_steps=256, eval_every_iters=2,
                eval_episodes=4)
    base.update(kw)
    return RunConfig(**base)


def read_run_dir(out_dir, config, seed):
    d = Path(out_dir) / config.run_name(seed)
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def test_config_round_trip(tmp_path):
    cfg = tiny_config(seeds=(3, 4))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    again = RunConfig.from_file(path)
    assert again == cfg


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")),
                         ids=lambda p: p.name)
def test_shipped_configs_build(path):
    doc = json.loads(path.read_text())
    config = RunConfig.from_file(path)
    assert config.to_dict() == doc
    with pytest.raises(ValueError, match=r"unknown config key\(s\): "
                                         r"force_uniform_weights"):
        RunConfig.from_dict({**doc, "force_uniform_weights": False})


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(seeds=())
    with pytest.raises(ValueError):
        tiny_config(arm="nope")
    with pytest.raises(ValueError):
        tiny_config(optimizer="sgd")
    # each once trained nothing, or failed only after the first iteration
    for field, bad in (("total_env_steps", 0), ("total_env_steps", -64),
                       ("eval_every_iters", 0), ("eval_episodes", 0),
                       ("env_id", "nope"), ("success_threshold", 1.5),
                       ("success_threshold", float("nan")),
                       ("success_threshold", -1)):
        with pytest.raises(ValueError, match=field):
            tiny_config(**{field: bad})


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    spec = FeatureSpec(state_cards=(10, 10), vocab_size=16, n=3)
    p = PolicyParams(spec=spec, weights=rng.normal(size=(spec.dim, 16)))
    s = ScmParams.zeros(3, 16, 3)
    s.weights = rng.normal(size=s.weights.shape)
    s.bias = rng.normal(size=s.bias.shape)
    path = tmp_path / "b.json"
    ckpt.save_bundle(path, p, s, "numberline", meta={"seed": 7})
    p2, s2, env_id, meta = ckpt.load_bundle(path)
    assert env_id == "numberline" and meta == {"seed": 7}
    np.testing.assert_array_equal(p2.weights, p.weights)
    np.testing.assert_array_equal(s2.weights, s.weights)
    np.testing.assert_array_equal(s2.bias, s.bias)
    assert p2.spec == p.spec


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("config, message", [
    (None, "No such file"),
    ({"total_env_steps": 0}, "total_env_steps must be >= 1"),
    ({"hyper": {"alpah": 0.1}}, "unknown hyper key(s): alpah"),
    ({"sedes": [1]}, "unknown config key(s): sedes"),
    # the arm alone decides B; no field overrides it
    ({"force_uniform_weights": False},
     "unknown config key(s): force_uniform_weights"),
    # AWR always weighs by exp(A / beta) of advantages standardised per run,
    # and B is always max-normalized
    ({"hyper": {"awr_mode": "filter"}}, "unknown hyper key(s): awr_mode"),
    ({"hyper": {"adv_filter_threshold": 0.0}},
     "unknown hyper key(s): adv_filter_threshold"),
    ({"hyper": {"weight_mode": "raw"}}, "unknown hyper key(s): weight_mode"),
    ({"hyper": {"normalize_advantages": False}},
     "unknown hyper key(s): normalize_advantages"),
])
def test_cli_train_and_ablate_reject_bad_config(command, config, message,
                                                tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.setenv("COSO_OUTPUT_DIR", str(tmp_path / "runs"))
    path = tmp_path / "cfg.json"
    if config is not None:
        path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"coso {command}: ")
    assert message in captured.err
    assert len(captured.err.splitlines()) == 1
    assert not (tmp_path / "runs").exists()


def resize_array(path, keys, rows, cols):
    """Resize the packed array at doc[keys...]: add rows or columns of
    zeros, or cut -rows trailing rows; its shape header matches its data."""
    doc = json.loads(path.read_text())
    node = doc
    for k in keys:
        node = node[k]
    a = ckpt._unpack(node)
    a = np.pad(a[:len(a) + min(rows, 0)],
               [(0, max(rows, 0))] + [(0, cols)] * (a.ndim - 1))
    node.update(ckpt._pack(a))
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("keys, rows, cols, message", [
    (("policy", "weights"), 1, 0, "policy weights of shape"),
    (("policy", "weights"), -1, 0, "policy weights of shape"),
    (("policy", "weights"), 0, 2, "policy weights of shape"),
    (("scm", "weights"), 16, 0, "SCM weights of shape"),
    (("scm", "weights"), 0, 1, "SCM weights of shape"),
    (("scm", "bias"), 1, 0, "SCM bias of shape"),
])
def test_checkpoint_rejects_misshapen_arrays(keys, rows, cols, message,
                                             tmp_path, capsys):
    """A bundle whose array does not fit its header's layout fails at load,
    not later inside sampling, and the CLI exits 2."""
    path = trained_checkpoint(tmp_path, iters=1)
    resize_array(path, keys, rows, cols)
    with pytest.raises(ValueError, match=message):
        ckpt.load_bundle(path)
    assert cli.main(["probe", "--ckpt", str(path),
                     "--state", "c=2,tau=5"]) == 2
    assert cli.main(["cf-report", "--ckpt", str(path),
                     "--env", "numberline"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count(message) == 2


def test_non_finite_policy_weights_are_rejected(tmp_path, capsys):
    """A checkpoint or policy with a NaN and an inf weight fails greedy
    eval, cf-report and probe with ValueError before any token is drawn,
    and the CLI prints one line per command and exits 2."""
    path = trained_checkpoint(tmp_path, iters=1)
    doc = json.loads(path.read_text())
    w = ckpt._unpack(doc["policy"]["weights"])
    w[4, 2], w[9, 5] = np.nan, np.inf
    doc["policy"]["weights"].update(ckpt._pack(w))
    path.write_text(json.dumps(doc))
    policy = ckpt.load_bundle(path)[0]
    message = "policy weights are not finite"
    with pytest.raises(ValueError, match=message):
        evaluate_greedy(make_env("numberline"), policy, 8)
    with pytest.raises(ValueError, match=message):
        evaluate_greedy(make_env("numberline"), PolicyParams(
            spec=policy.spec, weights=np.stack([np.zeros_like(w), w])), 8)
    assert cli.main(["probe", "--ckpt", str(path),
                     "--state", "c=2,tau=5"]) == 2
    assert cli.main(["cf-report", "--ckpt", str(path),
                     "--env", "numberline"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"coso probe: {message}",
                                         f"coso cf-report: {message}"]


def drop_section(keys):
    """Edit: delete doc[keys...]."""
    def edit(doc):
        node = doc
        for k in keys[:-1]:
            node = node[k]
        del node[keys[-1]]
        return doc
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda doc: {"format_version": 1, "env_id": "numberline"},
     "checkpoint lacks field 'policy'"),
    (lambda doc: [1, 2], "checkpoint must be a JSON object, not list"),
    (drop_section(["env_id"]), "checkpoint lacks field 'env_id'"),
    (drop_section(["scm", "bias"]), "checkpoint lacks field 'bias'"),
    (drop_section(["policy", "feature_spec", "n"]),
     "checkpoint lacks field 'n'"),
    (lambda doc: {**doc, "policy": 3}, "malformed checkpoint"),
    (lambda doc: {**doc, "env_id": "bogus"}, "unknown env_id 'bogus'"),
    # layouts that fit their own headers but not numberline's env
    (lambda doc: {**doc, "scm": ckpt.scm_to_dict(ScmParams.zeros(3, 32, 8))},
     "has SCM vocab_size 32, not 16"),
    (lambda doc: {**doc, "scm": ckpt.scm_to_dict(ScmParams.zeros(3, 16, 5))},
     "has SCM num_actions 5, not 3"),
    (lambda doc: {**doc, "policy": ckpt.policy_to_dict(PolicyParams.zeros(
        FeatureSpec.for_env(make_env("menunav"))))},
     "has policy state_cards"),
])
def test_checkpoint_rejects_missing_sections(edit, message, tmp_path,
                                             capsys):
    """A bundle that is not an object, lacks a section or field, names an
    unknown env or holds a policy or SCM whose layout does not fit the env
    it names fails at load with ValueError, and the CLI prints one line and
    exits 2."""
    path = trained_checkpoint(tmp_path, iters=1)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ValueError, match=message):
        ckpt.load_bundle(path)
    assert cli.main(["probe", "--ckpt", str(path), "--state", "trap"]) == 2
    assert cli.main(["cf-report", "--ckpt", str(path),
                     "--env", "numberline"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("coso probe: ") and message in lines[0]
    assert lines[1].startswith("coso cf-report: ") and message in lines[1]


def test_checkpoint_version_gate(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format_version": 99}))
    with pytest.raises(ValueError):
        ckpt.load_bundle(path)


def test_run_artifacts_and_byte_determinism(tmp_path, monkeypatch):
    cfg = tiny_config()
    for sub in ("a", "b"):
        monkeypatch.setenv("COSO_OUTPUT_DIR", str(tmp_path / sub))
        run_single_seed(cfg, seed=0)
    a = read_run_dir(tmp_path / "a", cfg, 0)
    b = read_run_dir(tmp_path / "b", cfg, 0)
    assert set(a) == {"config.json", "metrics.jsonl", "checkpoint.json"}
    for name in a:
        assert a[name] == b[name], name


def test_metrics_rows_schema(tmp_path, monkeypatch):
    """Every arm writes every key; scm_loss is null for rl and rl_h, which
    train no classifier, and finite for coso."""
    monkeypatch.setenv("COSO_OUTPUT_DIR", str(tmp_path))
    for arm in ARMS:
        res = run_single_seed(tiny_config(arm=arm), seed=0)
        lines = (Path(res.run_dir) / "metrics.jsonl").read_text().splitlines()
        assert lines
        for line in lines:
            row = json.loads(line)
            assert row["schema_version"] == 1
            for key in ("env_steps", "eval_success", "mean_return",
                        "invalid_rate", "mean_entropy", "policy_loss",
                        "scm_loss"):
                assert key in row
            if arm == "coso":
                assert np.isfinite(row["scm_loss"])
            else:
                assert row["scm_loss"] is None
                assert '"scm_loss": null' in line


def test_experiment_summary_csv(tmp_path, monkeypatch):
    monkeypatch.setenv("COSO_OUTPUT_DIR", str(tmp_path))
    cfg = tiny_config(seeds=(0, 1))
    summary = run_experiment(cfg)
    assert len(summary.per_seed) == 2
    csv_path = tmp_path / "numberline_coso_ppo_summary.csv"
    text = csv_path.read_text()
    assert text.startswith("seed,steps_to_threshold,final_success\n")
    assert text.strip().splitlines()[-1].startswith("median,")


def test_ablation_requires_enough_arms_and_seeds():
    with pytest.raises(ValueError):
        ablation_matrix([tiny_config()], write_artifacts=False)
    with pytest.raises(ValueError):
        ablation_matrix([tiny_config(arm=a, seeds=(0,)) for a in ARMS],
                        write_artifacts=False)


def test_ablation_rejects_configs_that_share_a_run_name(tmp_path,
                                                       monkeypatch):
    monkeypatch.setenv("COSO_OUTPUT_DIR", str(tmp_path))
    base = tiny_config(seeds=(0, 1, 2))
    for twin in (dataclasses.replace(base, seeds=(3, 4, 5)),
                 dataclasses.replace(base, hyper=Hyperparams(alpha=0.5))):
        configs = [tiny_config(arm="rl", seeds=(0, 1, 2)), base, twin]
        with pytest.raises(ValueError, match="must differ"):
            ablation_matrix(configs)
    assert not any(tmp_path.iterdir())  # raised before any training


@pytest.mark.parametrize("field, value", [
    ("env_id", "menunav"), ("optimizer", "awr"), ("total_env_steps", 128),
    ("eval_every_iters", 3)])
def test_ablation_rejects_configs_that_do_not_share_an_axis(field, value,
                                                           tmp_path,
                                                           monkeypatch):
    # the series CSV names its columns by arm and reads one env-step axis
    monkeypatch.setenv("COSO_OUTPUT_DIR", str(tmp_path))
    configs = [tiny_config(arm=a, seeds=(0, 1, 2)) for a in ("rl", "coso")]
    configs.append(dataclasses.replace(configs[1], arm="rl_h",
                                       **{field: value}))
    with pytest.raises(ValueError, match=f"must share {field}"):
        ablation_matrix(configs)
    assert not any(tmp_path.iterdir())  # raised before any training


def test_ablation_matrix_outputs(tmp_path, monkeypatch):
    monkeypatch.setenv("COSO_OUTPUT_DIR", str(tmp_path))
    configs = [tiny_config(arm=a, seeds=(0, 1, 2)) for a in ARMS]
    result = ablation_matrix(configs)
    assert [r["arm"] for r in result.rows] == list(ARMS)
    for r in result.rows:
        assert "median_steps_to_threshold" in r
        assert len(r["final_success_spread"]) == 2
    header = result.series_csv.splitlines()[0]
    assert header == "env_steps,success_rl,success_rl_h,success_coso"
    assert (tmp_path / "ablation_table.json").exists()
    assert (tmp_path / "ablation_series.csv").exists()


def trained_checkpoint(tmp_path, env_id="numberline", iters=30):
    env = make_env(env_id)
    tr = Trainer(env, Hyperparams(alpha=0.1), seed=0, arm="coso")
    for _ in range(iters):
        tr.train_iteration()
    path = tmp_path / "ckpt.json"
    ckpt.save_bundle(path, tr.policy, tr.scm, env_id)
    return path


def test_cf_report_fields(tmp_path):
    path = trained_checkpoint(tmp_path, iters=5)
    rep = cf_report(path, "numberline", num_episodes=2)
    assert rep["env_id"] == "numberline"
    assert rep["records"]
    rec = rep["records"][0]
    assert len(rec["tokens"]) == 3
    assert len(rec["raw_weights"]) == 3
    assert len(rec["normalized_weights"]) == 3
    assert rec["slot_roles"][2] == "ACTION_KIND"
    hist = rep["histogram"]
    assert abs(sum(hist["fractions"]) - 1.0) <= 1e-9


def test_cf_report_of_a_baseline_shows_floor_weights(tmp_path):
    """An rl_h run trains no classifier, so its checkpoint holds the zero
    one: every nullified utterance scores alike, every raw weight is 0
    and every normalized weight sits at the floor, in the first bin."""
    tr = Trainer(make_env("numberline"), Hyperparams(alpha=0.1), seed=0,
                 arm="rl_h")
    for _ in range(3):
        tr.train_iteration()
    assert tr.scm.opt_w.step == tr.scm.opt_b.step == 0
    path = tmp_path / "ckpt.json"
    ckpt.save_bundle(path, tr.policy, tr.scm, "numberline")
    rep = cf_report(path, "numberline", num_episodes=2)
    assert rep["records"]
    for rec in rep["records"]:
        assert rec["raw_weights"] == [0.0] * 3
        assert rec["normalized_weights"] == [cf.W_FLOOR] * 3
    counts = rep["histogram"]["counts"]
    assert counts[0] == 3 * len(rep["records"]) and not any(counts[1:])


def test_cf_report_env_mismatch(tmp_path):
    path = trained_checkpoint(tmp_path, iters=1)
    with pytest.raises(ValueError):
        cf_report(path, "menunav", num_episodes=1)


@pytest.mark.parametrize("args, message", [
    (["--episodes", "0"], "num_episodes"),
    (["--episodes", "-1"], "num_episodes"),
    (["--env", "menunav"], "checkpoint is for env"),
    # a later --ckpt overrides the trained one
    (["--ckpt", "no/such/dir/missing.json"], "No such file"),
])
def test_cli_cf_report_rejects_bad_request(args, message, tmp_path, capsys):
    path = trained_checkpoint(tmp_path, iters=1)
    argv = ["cf-report", "--ckpt", str(path), "--env", "numberline"]
    assert cli.main(argv + args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "coso cf-report:" in captured.err and message in captured.err


def test_probe_counts_and_bounds(tmp_path):
    path = trained_checkpoint(tmp_path, iters=5)
    out = repeated_sampling_probe(path, "c=3,tau=7", k=25)
    assert sum(out["actions"].values()) == 25
    assert 0 <= out["invalid_count"] <= 25
    with pytest.raises(ValueError):
        repeated_sampling_probe(path, "c=3,tau=7", k=0)


def test_probe_matches_sequential_samples(tmp_path):
    path = trained_checkpoint(tmp_path, iters=5)
    policy, _, _, _ = ckpt.load_bundle(path)
    env = make_env("numberline")
    state = env.state_from_spec("c=3,tau=7")
    rng = np.random.default_rng(1234)
    seq = [sample_utterance(policy, state, rng) for _ in range(300)]
    # one batch on k rows of n uniforms is the stream of k single samples
    toks = sample_utterances_batch(
        policy, [state] * 300,
        np.random.default_rng(1234).random((300, policy.spec.n)))
    assert [tuple(y) for y in toks.tolist()] == seq
    out = repeated_sampling_probe(path, "c=3,tau=7", k=300,
                                  sample_seed=1234)
    tally = {}
    for y in seq:
        a = str(env.parse_or_noop(y)[0])
        tally[a] = tally.get(a, 0) + 1
    assert out["actions"] == dict(sorted(tally.items()))
    assert out["invalid_count"] == sum(not env.parse_or_noop(y)[1]
                                       for y in seq)


def test_probe_deterministic_policy_single_action(tmp_path):
    env = make_env("numberline")
    spec = FeatureSpec.for_env(env)
    p = PolicyParams.zeros(spec)
    p.weights[:, 2] = 50.0  # always emits token 2 everywhere
    path = tmp_path / "det.json"
    ckpt.save_bundle(path, p, ScmParams.zeros(3, 16, 3), "numberline")
    out = repeated_sampling_probe(path, "c=3,tau=7", k=10)
    assert out["distinct_actions"] == 1
    assert out["invalid_count"] == 0


def test_evaluate_greedy_bounds():
    env = make_env("numberline")
    p = PolicyParams.zeros(FeatureSpec.for_env(env))
    rates = evaluate_greedy(env, p, episodes=8)
    assert len(rates) == 1 and 0.0 <= rates[0] <= 1.0  # one run, one rate


@pytest.mark.parametrize("env_id", ["numberline", "menunav"])
def test_eval_starts_built_once_and_read_only(env_id):
    env = make_env(env_id)
    feats, steps = harness._eval_starts(env, 32)
    want_feats, want_steps = state_arrays(
        [env.reset(EVAL_SEED_BASE + e) for e in range(32)])
    np.testing.assert_array_equal(feats, want_feats)
    np.testing.assert_array_equal(steps, want_steps)
    assert feats.dtype == want_feats.dtype and steps.dtype == want_steps.dtype
    assert not feats.flags.writeable and not steps.flags.writeable
    with pytest.raises(ValueError):
        feats[0, 0] = 1
    again = harness._eval_starts(make_env(env_id), 32)
    assert again[0] is feats and again[1] is steps
    assert len(harness._eval_starts(env, 5)[0]) == 5


def greedy_reference(env, params, episodes):
    """Per-episode reference: one episode at a time, one state per decode."""
    wins = 0
    for e in range(episodes):
        state = env.reset(EVAL_SEED_BASE + e)
        done = False
        while not done:
            y = greedy_utterance(params, [state])[0]
            action, _ = env.parse_or_noop(y.tolist())
            state, reward, done = env.step(state, action)
        wins += int(reward >= env.r_max)
    return wins / episodes


@pytest.mark.parametrize("env_id", ["numberline", "menunav"])
def test_evaluate_greedy_matches_per_episode_loop(env_id):
    env = make_env(env_id)
    tr = Trainer(env, Hyperparams(alpha=0.1, policy_lr=0.15), seed=1)
    rates = []
    for it in range(30):
        tr.train_iteration()
        if it % 3 == 2:
            rates += evaluate_greedy(env, tr.policy, 32)
            assert rates[-1] == greedy_reference(env, tr.policy, 32)
    # random policies end episodes at many different steps
    rng = np.random.default_rng(0)
    for _ in range(5):
        p = PolicyParams(spec=tr.policy.spec,
                         weights=rng.normal(0, 2.0, tr.policy.weights.shape))
        rates += evaluate_greedy(env, p, 16)
        assert rates[-1] == greedy_reference(env, p, 16)
    if env_id == "numberline":  # menunav resets every episode alike
        assert len(set(rates)) > 2


def test_theory_check_passes_small():
    spec = TheoryCheckSpec(instances=5, q_pairs=10)
    results = theory_check(spec)
    assert [r.name for r in results] == ["entropy_decomposition",
                                         "contraction", "improvement",
                                         "iteration"]
    assert all(r.passed for r in results)
    report = theory_report(results)
    assert report.count("PASS") == 4


@pytest.mark.parametrize("field,value", [
    ("instances", 0), ("instances", -3), ("q_pairs", 0),
    ("contraction_tol", -1.0), ("contraction_tol", 0.0),
    ("fixed_point_tol", 0.0), ("improvement_tol", -1e-8),
    ("monotonicity_tol", 0.0), ("decomposition_tol", float("nan")),
])
def test_theory_spec_validation(field, value):
    with pytest.raises(ValueError, match=field):
        TheoryCheckSpec(**{field: value})


@pytest.mark.parametrize("field,value", [("instances", 2.5),
                                         ("contraction_tol", "x"),
                                         ("q_pairs", True),
                                         ("fixed_point_tol", True)])
def test_theory_spec_rejects_wrong_types_naming_the_field(field, value):
    with pytest.raises(ValueError, match=f"bad config value: {field}="):
        TheoryCheckSpec(**{field: value})


@pytest.mark.parametrize("args", [["--instances", "0"], ["--tol", "-1"]])
def test_cli_theory_check_rejects_bad_spec(args, capsys):
    assert cli.main(["theory-check", *args]) != 0
    captured = capsys.readouterr()
    assert "PASS" not in captured.out and "FAIL" not in captured.out
    assert "must be" in captured.err


def test_cli_envs_listing(capsys):
    assert cli.main(["envs"]) == 0
    out = capsys.readouterr().out
    assert "numberline" in out and "menunav" in out
    assert cli.main(["envs", "--dump-grammar", "numberline"]) == 0
    assert "[2]" in capsys.readouterr().out


def test_cli_envs_rejects_unknown_grammar(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["envs", "--dump-grammar", "bogus"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: coso envs")
    assert "invalid choice: 'bogus'" in captured.err


@pytest.mark.parametrize("command, config, message", [
    ("ablate", {"seeds": [0, 1], "total_env_steps": 256},
     "ablation needs >= 3 seeds per arm"),
    ("train", {"seeds": 5}, "not iterable"),
    ("ablate", {"seeds": 5}, "not iterable"),
    ("train", {"hyper": {"alpha": "x"}}, "not supported"),
    ("ablate", {"hyper": {"alpha": "x"}}, "not supported"),
    ("cf-report", None, "No such file"),
])
def test_cli_reports_bad_input_in_one_line(command, config, message,
                                           tmp_path, monkeypatch, capsys):
    """Every subcommand turns a ValueError or OSError into one stderr line
    and exit 2, before any artifact is written."""
    monkeypatch.setenv("COSO_OUTPUT_DIR", str(tmp_path / "runs"))
    if config is None:  # a report into a directory that does not exist
        path = trained_checkpoint(tmp_path, iters=1)
        argv = ["cf-report", "--ckpt", str(path), "--env", "numberline",
                "--out", str(tmp_path / "missing" / "records.jsonl")]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = [command, "--config", str(path)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"coso {command}: ")
    assert message in captured.err
    assert len(captured.err.splitlines()) == 1
    assert not (tmp_path / "runs").exists()
    assert not (tmp_path / "missing").exists()


def test_config_wrong_typed_value_is_value_error():
    with pytest.raises(ValueError, match="bad config value"):
        RunConfig.from_dict({"seeds": 5})
    with pytest.raises(ValueError, match="bad config value"):
        RunConfig.from_dict({"hyper": {"alpha": "x"}})


def test_cli_train_and_probe(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COSO_OUTPUT_DIR", str(tmp_path))
    cfg = tiny_config()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    assert "seed,steps_to_threshold" in capsys.readouterr().out
    ckpt_path = tmp_path / cfg.run_name(0) / "checkpoint.json"
    assert cli.main(["probe", "--ckpt", str(ckpt_path),
                     "--state", "c=2,tau=5", "-k", "5"]) == 0
    probe_out = json.loads(capsys.readouterr().out)
    assert probe_out["k"] == 5


def test_cli_theory_check_small(capsys):
    assert cli.main(["theory-check", "--instances", "3"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_theory_check_exits_1_on_failing_suite(monkeypatch, capsys):
    from test_tabular import worse_second_step
    monkeypatch.setattr(tabular, "soft_improve", worse_second_step([]))
    assert cli.main(["theory-check", "--instances", "2"]) == 1
    captured = capsys.readouterr()
    assert "FAIL  iteration" in captured.out and captured.err == ""


@pytest.mark.parametrize("state", ["c=12,tau=3", "c=-1,tau=3", "c=3",
                                   "bogus"])
def test_cli_probe_rejects_bad_state(state, tmp_path, capsys):
    path = trained_checkpoint(tmp_path, iters=1)
    assert cli.main(["probe", "--ckpt", str(path), "--state", state]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "coso probe:" in captured.err and "state spec" in captured.err


def test_cli_probe_rejects_missing_checkpoint(capsys):
    assert cli.main(["probe", "--ckpt", "no/such/dir/missing.json",
                     "--state", "trap"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "coso probe:" in captured.err and "No such file" in captured.err
    assert len(captured.err.splitlines()) == 1


def cf_records_reference(path, env_id, num_episodes, sample_seed):
    """(tokens, action, parse_ok) per step, one step at a time: a batch of
    one per step on uniform row (episode, step), the scalar parser and
    step."""
    policy, _, _, _ = ckpt.load_bundle(path)
    env = make_env(env_id)
    uniforms = np.random.default_rng(sample_seed).random(
        (num_episodes, env.horizon, policy.spec.n))
    out = []
    for ep in range(num_episodes):
        state = env.reset(EVAL_SEED_BASE + ep)
        done = False
        t = 0
        while not done:
            y = tuple(sample_utterances_batch(
                policy, [state], uniforms[ep, t:t + 1])[0].tolist())
            action, ok = env.parse_or_noop(y)
            out.append((ep, list(y), str(action), ok))
            state, _, done = env.step(state, action)
            t += 1
    return out


@pytest.mark.parametrize("env_id", ["numberline", "menunav"])
def test_cf_report_matches_step_by_step_reference(env_id, tmp_path):
    path = trained_checkpoint(tmp_path, env_id=env_id, iters=3)
    rep = cf_report(path, env_id, num_episodes=12, sample_seed=5)
    got = [(r["episode"], r["tokens"], r["action"], r["parse_ok"])
           for r in rep["records"]]
    assert got == cf_records_reference(path, env_id, 12, 5)
    assert [r["step"] for r in rep["records"] if r["step"] == 0] == [0] * 12
    assert not all(r["parse_ok"] for r in rep["records"])
    assert len(set(r["step"] for r in rep["records"])) > 2


@pytest.mark.parametrize("env_id", ["numberline", "menunav"])
def test_cf_report_steps_all_episodes_in_lockstep(env_id, tmp_path,
                                                  monkeypatch):
    """Each lockstep step is one decode and one step_batch over the live
    episodes: at most horizon decode calls, one row per record."""
    path = trained_checkpoint(tmp_path, env_id=env_id, iters=2)
    decoded, stepped = [], []
    real_decode, real_step = pol._decode, TextEnv.step_batch

    def decode(policy, sid, *args, **kw):
        decoded.append(len(sid))
        return real_decode(policy, sid, *args, **kw)

    def step_batch(self, feats, steps, actions):
        stepped.append(len(feats))
        return real_step(self, feats, steps, actions)
    monkeypatch.setattr(pol, "_decode", decode)
    monkeypatch.setattr(TextEnv, "step_batch", step_batch)
    records = cf_report(path, env_id, num_episodes=12)["records"]
    assert decoded == stepped  # per step: the same live episodes
    assert len(decoded) == 1 + max(r["step"] for r in records) \
        <= make_env(env_id).horizon
    assert sum(decoded) == len(records) > 12 == decoded[0]


@pytest.mark.parametrize("env_id", ["numberline", "menunav"])
def test_cf_report_episode_does_not_depend_on_the_others(env_id, tmp_path):
    """Episode e reads its own uniform rows, so a shorter report is the
    first episodes of a longer one."""
    path = trained_checkpoint(tmp_path, env_id=env_id, iters=3)
    short = cf_report(path, env_id, num_episodes=5, sample_seed=7)["records"]
    long = cf_report(path, env_id, num_episodes=12, sample_seed=7)["records"]
    assert short == [r for r in long if r["episode"] < 5]
    assert {r["episode"] for r in long} == set(range(12))


@pytest.mark.parametrize("env_id", ["numberline", "menunav"])
def test_evaluate_greedy_matches_per_episode_loop_on_random_policies(env_id):
    # the greedy action table against one batch-of-one decode per step
    env = make_env(env_id)
    spec = FeatureSpec.for_env(env)
    rng = np.random.default_rng(21)
    for scale in (0.5, 2.0, 6.0):
        for _ in range(4):
            p = PolicyParams(spec=spec, weights=rng.normal(
                0, scale, (spec.dim, spec.vocab_size)))
            want = greedy_reference(env, p, 40)
            assert evaluate_greedy(env, p, 40) == [want]


@pytest.mark.parametrize("env_id", ["numberline", "menunav"])
def test_evaluate_greedy_over_stacked_runs_equals_each_run(env_id,
                                                          monkeypatch):
    """Stacked (R, dim, V) weights are evaluated in one pass, one table
    build and one episode loop, and each of the R rates equals the run's
    own call and the per-episode reference."""
    env = make_env(env_id)
    spec = FeatureSpec.for_env(env)
    rng = np.random.default_rng(33)
    weights = np.stack([rng.normal(0, scale, (spec.dim, spec.vocab_size))
                        for scale in (0.5, 2.0, 6.0, 2.0, 6.0)])
    solo = [rate for w in weights for rate in evaluate_greedy(
        env, PolicyParams(spec=spec, weights=w), 24)]
    assert solo == [greedy_reference(env, PolicyParams(spec=spec, weights=w),
                                     24) for w in weights]
    built = count_table_builds(monkeypatch)
    steps = []
    step_batch = TextEnv.step_batch

    def counting(self, feats, *args):
        steps.append(len(feats))
        return step_batch(self, feats, *args)
    monkeypatch.setattr(TextEnv, "step_batch", counting)
    rates = evaluate_greedy(env, PolicyParams(spec=spec, weights=weights), 24)
    assert rates == solo and all(type(r) is float for r in rates)
    assert len(built) == 1 and steps[0] == 5 * 24
    assert evaluate_greedy(env, PolicyParams(spec=spec,
                                             weights=weights[2:3]), 24) \
        == solo[2:3]
    if env_id == "numberline":  # menunav resets every episode alike
        assert len(set(rates)) > 1


def count_table_builds(monkeypatch):
    built = []
    original = pol.decode_tables

    def counting(params):
        built.append(params)
        return original(params)
    monkeypatch.setattr(pol, "decode_tables", counting)
    return built


@pytest.mark.parametrize("env_id", ["numberline", "menunav"])
def test_decode_tables_built_once_per_call(env_id, tmp_path, monkeypatch):
    path = trained_checkpoint(tmp_path, env_id=env_id, iters=2)
    policy, _, _, _ = ckpt.load_bundle(path)
    built = count_table_builds(monkeypatch)
    evaluate_greedy(make_env(env_id), policy, 32)
    assert len(built) == 1
    rep = cf_report(path, env_id, num_episodes=12)
    assert len(built) == 2 and len(rep["records"]) > 12
    state = "trap" if env_id == "menunav" else "c=3,tau=7"
    repeated_sampling_probe(path, state, k=50)
    assert len(built) == 3


@pytest.mark.parametrize("config, key", [
    ({"seeds": "01"}, "seeds"),
    ({"seeds": 5}, "seeds"),
    ({"seeds": [0, True]}, "seeds"),
    ({"total_env_steps": 256.5}, "total_env_steps"),
    ({"eval_episodes": 2.5}, "eval_episodes"),
    ({"eval_every_iters": True}, "eval_every_iters"),
    ({"out_dir": 5}, "out_dir"),
    ({"hyper": {"entropy_placement": 1}}, "entropy_placement"),
    ({"hyper": {"context": 1.5}}, "context"),
    ({"hyper": {"num_envs": True}}, "num_envs"),
    ({"hyper": {"alpha": "x"}}, "alpha"),
    ({"hyper": {"gamma": True}}, "gamma"),
    ({"seeds": [0, -1]}, "seeds"),
    (json.loads('{"hyper": {"alpha": NaN}}'), "alpha"),
    (json.loads('{"hyper": {"gae_lambda": NaN}}'), "gae_lambda"),
    (json.loads('{"hyper": {"policy_lr": Infinity}}'), "policy_lr"),
    (json.loads('{"hyper": {"awr_weight_clamp": -Infinity}}'),
     "awr_weight_clamp"),
    (json.loads('{"success_threshold": NaN}'), "success_threshold"),
])
def test_config_rejects_wrong_type_at_construction(config, key):
    with pytest.raises(ValueError, match=f"bad config value: {key}"):
        RunConfig.from_dict(config)
    hyper = config.get("hyper")
    with pytest.raises(ValueError, match=f"bad config value: {key}"):
        if hyper is None:
            RunConfig(**config)
        else:
            Hyperparams(**hyper)


def test_config_accepts_json_numbers():
    cfg = RunConfig.from_dict({"seeds": [4, 5], "success_threshold": 1,
                               "hyper": {"alpha": 0, "gamma": 0.9}})
    assert cfg.seeds == (4, 5) and cfg.hyper.alpha == 0
    assert RunConfig(seeds=[1]).seeds == (1,)


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("config, key", [
    ({"seeds": "01"}, "seeds"),
    ({"total_env_steps": 256.5, "eval_episodes": 2.5}, "total_env_steps"),
    ({"hyper": {"context": 1.5}}, "context"),
    ({"hyper": {"rollout_steps": False}}, "rollout_steps"),
    ({"seeds": [0, 1, -1]}, "seeds"),
    ({"hyper": {"alpha": float("nan")}}, "alpha"),
])
def test_cli_rejects_wrong_typed_config(command, config, key, tmp_path,
                                        monkeypatch, capsys):
    monkeypatch.setenv("COSO_OUTPUT_DIR", str(tmp_path / "runs"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"coso {command}: bad config value: {key}")
    assert len(captured.err.splitlines()) == 1
    assert not (tmp_path / "runs").exists()
