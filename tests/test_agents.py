"""Agents: GAE oracle, surrogate gradient table, policies, training loops."""

import numpy as np
import pytest

from pvclean import agents
from pvclean.agents import (FixedIntervalPolicy, GreedyPolicy, PPOConfig,
                            ReplayBuffer, SACConfig, clipped_surrogate_grad,
                            compute_gae, evaluate, train)
from pvclean.environment import FEATURE_SCALES, CleaningEnv, ScenarioConfig
from pvclean.nn import DenseNet
from pvclean.rng import RandomStream, replication_entropy
from pvclean.simopt import evaluate_interval

SMALL = dict(tariff=0.073, cleaning_cost=0.0183, horizon_years=1)


def brute_force_gae(rewards, values, bootstrap, gamma, lam):
    n = len(rewards)
    vals = list(values) + [bootstrap]
    deltas = [rewards[t] + gamma * vals[t + 1] - vals[t] for t in range(n)]
    adv = []
    for t in range(n):
        total = 0.0
        for l in range(n - t):
            total += (gamma * lam) ** l * deltas[t + l]
        adv.append(total)
    return np.array(adv)


def test_gae_matches_brute_force():
    gen = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        n = int(gen.integers(1, 21))
        rewards = gen.normal(size=n)
        values = gen.normal(size=n)
        bootstrap = float(gen.normal())
        gamma = float(gen.uniform(0.9, 1.0))
        lam = float(gen.uniform(0.0, 1.0))
        adv, targets = compute_gae(rewards, values, bootstrap, gamma, lam)
        expect = brute_force_gae(rewards, values, bootstrap, gamma, lam)
        worst = max(worst, float(np.abs(adv - expect).max()))
        np.testing.assert_allclose(targets, adv + values, atol=1e-12)
    assert worst <= 1e-12


def test_gae_shape_mismatch():
    with pytest.raises(ValueError):
        compute_gae([1.0, 2.0], [1.0], 0.0, 0.99, 0.95)


def test_gae_lambda_zero_is_td_residual():
    rewards = np.array([1.0, 2.0, 3.0])
    values = np.array([0.5, 0.2, 0.1])
    adv, _ = compute_gae(rewards, values, 0.4, 0.9, 0.0)
    expect = rewards + 0.9 * np.array([0.2, 0.1, 0.4]) - values
    np.testing.assert_allclose(adv, expect, atol=1e-15)


def test_clipped_surrogate_grad_branch_table():
    eps = 0.2
    ratios = np.array([1.0, 1.5, 1.5, 0.5, 0.5, 1.1])
    advs = np.array([2.0, 2.0, -2.0, 2.0, -2.0, 3.0])
    out = clipped_surrogate_grad(ratios, advs, eps)
    # Ratio above 1+eps with positive advantage: clipped, zero gradient.
    # Same ratio with negative advantage: unclipped branch active.
    expect = np.array([2.0, 0.0, -3.0, 1.0, 0.0, 3.3])
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_ppo_config_validation():
    with pytest.raises(ValueError):
        PPOConfig(clip_epsilon=0.0)
    with pytest.raises(ValueError):
        PPOConfig(gamma=1.5)
    with pytest.raises(ValueError):
        SACConfig(replay_capacity=10, batch_size=32)


def test_greedy_policy_argmax():
    net = DenseNet([6, 4, 2], ["relu", "softmax"], seed=0)
    policy = GreedyPolicy(net)
    obs = np.zeros((1, 6))
    p = net.forward(obs)
    assert policy.action(obs).tolist() == [int(np.argmax(p[0]))]


def test_fixed_interval_policy_cleans_every_z_days():
    cfg = ScenarioConfig(**SMALL, seed=1)
    env = CleaningEnv(cfg)
    policy = FixedIntervalPolicy(30, cfg)
    obs = env.reset()
    clean_days = []
    for day in range(cfg.n_days):
        a = policy.action(obs)
        if a[0]:
            clean_days.append(day)
        obs = env.step(a).observation
    assert clean_days == list(range(30, 365, 30))


def test_fixed_interval_policy_div10_mode():
    cfg = ScenarioConfig(**SMALL, seed=1, normalization_mode="div10")
    env = CleaningEnv(cfg)
    policy = FixedIntervalPolicy(10, cfg)
    obs = env.reset()
    cleanings = 0
    for _ in range(50):
        a = policy.action(obs)
        cleanings += int(a[0])
        obs = env.step(a).observation
    # Counter reaches 10 at mornings 10, 20, 30, 40 within 50 steps.
    assert cleanings == 4


def test_fixed_interval_policy_validation():
    with pytest.raises(ValueError):
        FixedIntervalPolicy(0, ScenarioConfig(**SMALL))


@pytest.mark.parametrize("z", [2.5, True])
def test_fixed_interval_policy_rejects_non_integer_z(z):
    with pytest.raises(ValueError, match=f"cleaning interval must be an integer >= 1, got {z!r}"):
        FixedIntervalPolicy(z, ScenarioConfig(**SMALL))
    assert FixedIntervalPolicy(np.int64(2), ScenarioConfig(**SMALL)).z == 2


def test_replay_buffer_ring():
    buf = ReplayBuffer(4, 2)
    for i in range(6):
        buf.push(np.full(2, i), i % 2, float(i), np.full(2, i + 1), False)
    assert buf.size == 4
    # Oldest entries (0, 1) were overwritten.
    assert set(buf.rewards.tolist()) == {2.0, 3.0, 4.0, 5.0}
    gen = np.random.default_rng(0)
    obs, act, rew, nobs, done = buf.sample(8, gen)
    assert obs.shape == (8, 2) and rew.min() >= 2.0


def test_evaluate_fixed_interval_matches_simopt():
    cfg = ScenarioConfig(**SMALL, seed=3)
    z = 25
    res = evaluate(FixedIntervalPolicy(z, cfg), cfg, episodes=4)
    ev = evaluate_interval(z, cfg, replications=4)
    np.testing.assert_allclose(res.costs, ev.costs, rtol=1e-9)
    assert res.mean_cleanings == ev.mean_cleanings


def sequential_evaluate(policy, cfg, episodes):
    """Reference: one one-replication env per episode, played one after another."""
    costs, cleanings = [], []
    for r in range(episodes):
        env = CleaningEnv(cfg)
        obs = env.reset([replication_entropy(cfg.seed, r)])
        done = False
        while not done:
            res = env.step(policy.action(obs))
            obs = res.observation
            done = res.done
        costs.append(float(env.cumulative_cost[0]))
        cleanings.append(int(env.cumulative_cleanings[0]))
    return costs, cleanings


@pytest.mark.parametrize("overrides", [{"reward_mode": "terminal"},
                                       {"normalization_mode": "div10"},
                                       {"include_humidity": True}])
@pytest.mark.parametrize("kind", ["greedy", "interval"])
def test_lockstep_evaluate_matches_sequential_oracle(overrides, kind):
    cfg = ScenarioConfig(**SMALL, seed=6, **overrides)
    if kind == "greedy":
        net = DenseNet([cfg.obs_dim, 16, 2], ["relu", "softmax"], seed=48)
        if cfg.normalization_mode == "div10":
            # Rescale the inputs to feature_scaled magnitudes, where this
            # seeded actor cleans on some days and not on others.
            names = list(FEATURE_SCALES)[:cfg.obs_dim]
            net.weights[0] = net.weights[0] * (10.0 / np.array(
                [FEATURE_SCALES[n] for n in names]))
        policy = GreedyPolicy(net)
    else:
        policy = FixedIntervalPolicy(23, cfg)
    res = evaluate(policy, cfg, episodes=4)
    costs, cleanings = sequential_evaluate(policy, cfg, 4)
    assert res.costs == costs
    assert res.cleanings == cleanings
    # The policy mixes both actions, so the comparison covers cleaning days.
    assert all(0 < c < cfg.n_days for c in cleanings)


def test_evaluate_rejects_no_episodes():
    cfg = ScenarioConfig(**SMALL)
    with pytest.raises(ValueError, match="episodes"):
        evaluate(FixedIntervalPolicy(5, cfg), cfg, episodes=0)


def test_policies_accept_observation_batches():
    cfg = ScenarioConfig(**SMALL)
    obs = np.zeros((3, cfg.obs_dim))
    obs[:, 1] = [0.04, 0.05, 0.06]       # 4, 5 and 6 days since cleaning
    np.testing.assert_array_equal(FixedIntervalPolicy(5, cfg).action(obs), [0, 1, 1])
    assert FixedIntervalPolicy(5, cfg).action(obs[1:2]).tolist() == [1]
    greedy = GreedyPolicy(DenseNet([cfg.obs_dim, 8, 2], ["relu", "softmax"], seed=0))
    batch = greedy.action(obs)
    assert batch.shape == (3,)
    assert [greedy.action(obs[r:r + 1])[0] for r in range(3)] == batch.tolist()


def test_train_validates_arguments():
    cfg = ScenarioConfig(**SMALL)
    with pytest.raises(ValueError):
        train("ddpg", cfg, episodes=1)
    with pytest.raises(ValueError):
        train("ppo", cfg, episodes=0)


def test_ppo_short_training_runs_and_is_deterministic():
    cfg = ScenarioConfig(**SMALL, seed=2)
    a = train("ppo", cfg, episodes=3, seed=7)
    b = train("ppo", cfg, episodes=3, seed=7)
    assert len(a.reward_curve) == 3
    assert np.all(np.isfinite(a.reward_curve))
    assert all(np.isfinite(list(d.values())).all() for d in a.loss_history)
    np.testing.assert_array_equal(a.reward_curve, b.reward_curve)
    for pa, pb in zip(a.final_net.parameters(), b.final_net.parameters()):
        np.testing.assert_array_equal(pa, pb)


def test_sac_short_training_runs():
    cfg = ScenarioConfig(**SMALL, seed=2)
    sac_cfg = agents.SACConfig(warmup_steps=50, batch_size=32, hidden=32)
    res = train("sac", cfg, episodes=1, seed=7, agent_config=sac_cfg)
    assert len(res.reward_curve) == 1
    assert np.isfinite(res.reward_curve[0])
    assert len(res.loss_history) > 0
    assert all(np.isfinite(list(d.values())).all() for d in res.loss_history)


@pytest.mark.parametrize("kind", ["ppo", "sac"])
def test_train_fails_on_a_non_finite_episode_reward(kind, nan_rewards):
    agent_config = agents.SACConfig(hidden=16) if kind == "sac" else None
    with pytest.raises(agents.NumericalError):
        train(kind, ScenarioConfig(**SMALL), episodes=2, agent_config=agent_config)


def test_best_net_tracks_best_smoothed_reward():
    cfg = ScenarioConfig(**SMALL, seed=4)
    res = train("ppo", cfg, episodes=3, seed=1)
    assert res.best_net is not None
    assert res.best_smoothed_reward >= max(
        np.mean(res.reward_curve[: k + 1][-20:]) for k in range(3)) - 1e-12


def _sac_state(agent):
    """Copies of every net's parameters and every optimizer's moments."""
    nets = (agent.actor, agent.q1, agent.q2, agent.target_q1, agent.target_q2)
    opts = (agent.opt_actor, agent.opt_q1, agent.opt_q2)
    return ([p.copy() for net in nets for p in net.parameters()],
            [a.copy() for opt in opts for a in (*opt.m, *opt.v)],
            [opt.t for opt in opts])


def test_sac_update_fails_before_any_weight_moves():
    cfg = agents.SACConfig(batch_size=8, hidden=16)
    agent = agents.SACAgent(6, cfg, seed=3)
    gen = np.random.default_rng(0)
    for _ in range(cfg.batch_size):
        agent.buffer.push(gen.random(6), int(gen.integers(2)), float("nan"),
                          gen.random(6), False)
    before = _sac_state(agent)
    with pytest.raises(agents.NumericalError, match="critic"):
        agent.update()
    after = _sac_state(agent)
    for b, a in zip(before[0] + before[1], after[0] + after[1]):
        np.testing.assert_array_equal(a, b)
    assert after[2] == before[2] == [0, 0, 0]


def test_collect_episode_matches_reference_loop():
    """The rollout-driven PPO episode equals a hand-written day loop."""
    cfg = ScenarioConfig(**SMALL, seed=2)
    agent = agents.PPOAgent(cfg.obs_dim, PPOConfig(hidden=16), seed=5)
    entropy = (5, 1, 0)
    episode = agent.collect_episode(CleaningEnv(cfg), entropy)

    env = CleaningEnv(cfg)
    stream = RandomStream(entropy, stream_id=9)
    obs = env.reset([entropy])
    actions, rewards, log_probs = [], [], []
    while not env.done:
        probs = agent.actor.forward(obs)[0]
        a = 1 if stream.uniform() < probs[1] else 0
        res = env.step([a])
        np.testing.assert_array_equal(episode.observations[len(actions)], obs[0])
        actions.append(a)
        rewards.append(res.reward[0])
        log_probs.append(np.log(probs[a]))
        obs = res.observation
    assert episode.actions.tolist() == actions
    assert 0 < sum(actions) < cfg.n_days
    assert episode.rewards.tolist() == rewards
    assert episode.log_probs.tolist() == log_probs
