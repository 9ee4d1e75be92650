"""PPO and discrete SAC agents for the two-action cleaning MDP.

PPO is on-policy: one rollout = one full episode, then several epochs of
clipped-surrogate / value-regression minibatch updates.  SAC is off-policy
with a replay buffer, twin Q-networks taking the state concatenated with a
one-hot action, Polyak-averaged targets, and an entropy bonus
with fixed temperature.  Both agents run entirely on the float64 dense
networks from :mod:`pvclean.nn`.  :func:`evaluate` scores any policy as an
:class:`~pvclean.environment.Evaluation`, the per-replication record that
Sim-Opt returns for a fixed interval on the same replication seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import (CleaningEnv, Evaluation, NumericalError, ScenarioConfig,
                          cleaning_interval, observation_scales)
from .nn import Adam, DenseNet, clip_global_norm
from .rng import RandomStream, replication_entropy, training_entropy

__all__ = [
    "PPOConfig", "SACConfig", "NumericalError", "compute_gae",
    "clipped_surrogate_grad", "PPOAgent", "SACAgent", "ReplayBuffer",
    "GreedyPolicy", "FixedIntervalPolicy", "SampledPolicy", "TrainResult",
    "train", "rollout", "evaluate",
]

_SMOOTH_WINDOW = 20


@dataclass(frozen=True)
class PPOConfig:
    learning_rate: float = 0.0005
    gamma: float = 0.99
    gae_lambda: float = 0.97
    clip_epsilon: float = 0.012
    learning_epochs: int = 5
    minibatch_size: int = 256
    value_loss_coefficient: float = 0.5
    hidden: int = 256
    max_grad_norm: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.clip_epsilon < 1.0:
            raise ValueError(f"clip_epsilon must be in (0, 1): {self.clip_epsilon}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1]: {self.gamma}")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError(f"gae_lambda must be in [0, 1]: {self.gae_lambda}")


@dataclass(frozen=True)
class SACConfig:
    gamma: float = 0.99
    target_update_rate: float = 0.005
    entropy_alpha: float = 0.2
    learning_rate: float = 0.0003
    replay_capacity: int = 100_000
    batch_size: int = 256
    warmup_steps: int = 1000
    hidden: int = 256

    def __post_init__(self):
        if not 0.0 < self.target_update_rate <= 1.0:
            raise ValueError(f"target_update_rate must be in (0, 1]: {self.target_update_rate}")
        if self.replay_capacity < self.batch_size:
            raise ValueError("replay_capacity must be >= batch_size")


def compute_gae(rewards, values, bootstrap_value: float, gamma: float, lam: float):
    """Exponentially weighted advantage estimates within one episode.

    advantage_t = sum_{l >= 0} (gamma * lam)^l * delta_{t+l}, with
    delta_t = r_t + gamma * V(s_{t+1}) - V(s_t) and V after the last step
    given by ``bootstrap_value``.  Returns (advantages, value_targets);
    targets are advantages + values.  Advantages are returned raw; the PPO
    update normalizes them per rollout.
    """
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    if rewards.shape != values.shape:
        raise ValueError(f"rewards and values length mismatch: "
                         f"{rewards.shape} vs {values.shape}")
    n = len(rewards)
    next_values = np.append(values[1:], bootstrap_value)
    deltas = rewards + gamma * next_values - values
    advantages = np.empty(n)
    acc = 0.0
    for t in range(n - 1, -1, -1):
        acc = deltas[t] + gamma * lam * acc
        advantages[t] = acc
    return advantages, advantages + values


def clipped_surrogate_grad(ratios, advantages, clip_epsilon: float):
    """Per-sample d(objective)/d(log-prob) of the clipped surrogate.

    Zero exactly where the ratio sits outside [1-eps, 1+eps] with the
    advantage pushing it further out; the probability ratio times the
    advantage elsewhere.
    """
    r = np.asarray(ratios, dtype=float)
    a = np.asarray(advantages, dtype=float)
    surr1 = r * a
    surr2 = np.clip(r, 1.0 - clip_epsilon, 1.0 + clip_epsilon) * a
    return np.where(surr1 <= surr2, r * a, 0.0)


# ---------------------------------------------------------------------------
# Policies (action rules that agents.rollout plays)


class GreedyPolicy:
    """Argmax over the actor's action probabilities.

    ``action`` takes observations (replications, obs_dim) and returns one
    action per row.
    """

    def __init__(self, net: DenseNet):
        self.net = net

    def action(self, observation):
        return np.argmax(self.net.forward(observation), axis=-1)


class FixedIntervalPolicy:
    """Clean on the morning the days-since-clean counter reaches z.

    Takes the same observation batches as :class:`GreedyPolicy`.
    """

    def __init__(self, z: int, config: ScenarioConfig):
        self.z = cleaning_interval(z)
        self._scale = observation_scales(config)[1]   # of days since cleaning

    def action(self, observation):
        days = np.rint(np.asarray(observation)[..., 1] * self._scale)
        return (days >= self.z).astype(np.int64)


class SampledPolicy:
    """The stochastic training policy of one replication.

    Each day cleans when a uniform from stream 9 of the episode's entropy
    falls below the actor's clean probability.  ``probs`` keeps the last
    (1, 2) action probabilities, for the log-probability of the action.
    """

    def __init__(self, net: DenseNet, entropy):
        self.net = net
        self.probs = None
        self._stream = RandomStream(entropy, stream_id=9)

    def action(self, observation):
        self.probs = self.net.forward(observation)
        return np.array([1 if self._stream.uniform() < self.probs[0, 1] else 0])


# ---------------------------------------------------------------------------
# PPO


@dataclass
class Rollout:
    observations: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    log_probs: np.ndarray
    values: np.ndarray


class PPOAgent:
    """Actor-critic PPO over the 2-action space."""

    def __init__(self, obs_dim: int, config: PPOConfig = PPOConfig(), seed: int = 0):
        self.config = config
        h = config.hidden
        self.actor = DenseNet([obs_dim, h, 2], ["relu", "softmax"], seed=seed)
        self.critic = DenseNet([obs_dim, h, 1], ["relu", "linear"], seed=seed + 1)
        self.opt_actor = Adam(self.actor, config.learning_rate)
        self.opt_critic = Adam(self.critic, config.learning_rate)
        self._shuffle = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([seed, 7])))

    def collect_episode(self, env: CleaningEnv, entropy) -> Rollout:
        """One full stochastic-policy episode (the PPO rollout)."""
        policy = SampledPolicy(self.actor, entropy)
        observations, actions, rewards, log_probs = [], [], [], []

        def record(obs, a, res):
            observations.append(obs[0])
            actions.append(a[0])
            rewards.append(res.reward[0])
            log_probs.append(np.log(max(policy.probs[0, a[0]], 1e-300)))

        rollout(policy, env, [entropy], record)
        observations = np.array(observations)
        values = self.critic.forward(observations)[:, 0]
        return Rollout(observations, np.array(actions), np.array(rewards),
                       np.array(log_probs), values)

    def update(self, rollout: Rollout) -> dict:
        """Clipped-surrogate actor / MSE critic update over the rollout."""
        cfg = self.config
        advantages, targets = compute_gae(
            rollout.rewards, rollout.values, 0.0, cfg.gamma, cfg.gae_lambda)
        adv = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        n = len(adv)
        policy_losses, value_losses = [], []
        for _ in range(cfg.learning_epochs):
            order = self._shuffle.permutation(n)
            for start in range(0, n, cfg.minibatch_size):
                idx = order[start:start + cfg.minibatch_size]
                b = len(idx)
                obs = rollout.observations[idx]
                act = rollout.actions[idx]
                old_logp = rollout.log_probs[idx]
                badv = adv[idx]

                probs = self.actor.forward(obs)
                p_taken = np.clip(probs[np.arange(b), act], 1e-300, None)
                logp = np.log(p_taken)
                ratio = np.exp(logp - old_logp)
                surr1 = ratio * badv
                surr2 = np.clip(ratio, 1 - cfg.clip_epsilon, 1 + cfg.clip_epsilon) * badv
                policy_loss = -np.minimum(surr1, surr2).mean()

                grad_logp = -clipped_surrogate_grad(ratio, badv, cfg.clip_epsilon) / b
                grad_probs = np.zeros_like(probs)
                grad_probs[np.arange(b), act] = grad_logp / p_taken
                actor_grads = clip_global_norm(self.actor.backward(grad_probs),
                                               cfg.max_grad_norm)

                v = self.critic.forward(obs)[:, 0]
                verr = v - targets[idx]
                value_loss = cfg.value_loss_coefficient * float(np.mean(verr ** 2))
                grad_v = (2.0 * cfg.value_loss_coefficient * verr / b).reshape(-1, 1)
                critic_grads = self.critic.backward(grad_v)

                if not (np.isfinite(policy_loss) and np.isfinite(value_loss)):
                    raise NumericalError(
                        f"non-finite PPO loss (policy={policy_loss}, value={value_loss})")
                self.opt_actor.step(actor_grads)
                self.opt_critic.step(critic_grads)
                policy_losses.append(policy_loss)
                value_losses.append(value_loss)
        return {"policy_loss": float(np.mean(policy_losses)),
                "value_loss": float(np.mean(value_losses))}


# ---------------------------------------------------------------------------
# Discrete SAC


class ReplayBuffer:
    """Fixed-capacity ring buffer of transitions."""

    def __init__(self, capacity: int, obs_dim: int):
        self.capacity = int(capacity)
        self.obs = np.empty((capacity, obs_dim))
        self.actions = np.empty(capacity, dtype=np.int64)
        self.rewards = np.empty(capacity)
        self.next_obs = np.empty((capacity, obs_dim))
        self.dones = np.empty(capacity)
        self.size = 0
        self._pos = 0

    def push(self, obs, action, reward, next_obs, done) -> None:
        i = self._pos
        self.obs[i] = obs
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_obs[i] = next_obs
        self.dones[i] = float(done)
        self._pos = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, gen: np.random.Generator):
        idx = gen.integers(0, self.size, size=batch_size)
        return (self.obs[idx], self.actions[idx], self.rewards[idx],
                self.next_obs[idx], self.dones[idx])


class SACAgent:
    """Discrete-action SAC with twin Q-networks and Polyak targets.

    Q-networks take the state concatenated with a one-hot action, so
    expectations over the 2-action simplex are two critic forwards.
    """

    def __init__(self, obs_dim: int, config: SACConfig = SACConfig(), seed: int = 0):
        self.config = config
        h = config.hidden
        self.actor = DenseNet([obs_dim, h, h, 2], ["relu", "relu", "softmax"], seed=seed)
        self.q1 = DenseNet([obs_dim + 2, h, h, 1], ["relu", "relu", "linear"], seed=seed + 1)
        self.q2 = DenseNet([obs_dim + 2, h, h, 1], ["relu", "relu", "linear"], seed=seed + 2)
        self.target_q1 = self.q1.copy()
        self.target_q2 = self.q2.copy()
        self.opt_actor = Adam(self.actor, config.learning_rate)
        self.opt_q1 = Adam(self.q1, config.learning_rate)
        self.opt_q2 = Adam(self.q2, config.learning_rate)
        self.buffer = ReplayBuffer(config.replay_capacity, obs_dim)
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 13])))

    @staticmethod
    def _with_actions(obs: np.ndarray) -> np.ndarray:
        """(2B, obs_dim + 2) inputs: each state paired with both one-hots."""
        b = obs.shape[0]
        eye = np.eye(2)
        tiled = np.repeat(obs, 2, axis=0)
        onehots = np.tile(eye, (b, 1))
        return np.concatenate([tiled, onehots], axis=1)

    def _q_all_actions(self, net: DenseNet, obs: np.ndarray) -> np.ndarray:
        """(B, 2) Q-values for both actions."""
        return net.forward(self._with_actions(obs)).reshape(-1, 2)

    @staticmethod
    def polyak_update(target: DenseNet, online: DenseNet, rate: float) -> None:
        for tp, op in zip(target.parameters(), online.parameters()):
            tp *= (1.0 - rate)
            tp += rate * op

    def update(self) -> dict:
        """One gradient step on both critics and the actor, then Polyak."""
        cfg = self.config
        if self.buffer.size < cfg.batch_size:
            raise ValueError("replay buffer smaller than batch size")
        obs, act, rew, nobs, done = self.buffer.sample(cfg.batch_size, self._gen)
        b = len(act)
        alpha = cfg.entropy_alpha

        # Soft targets: expectation over next-action probabilities with the
        # minimum of the two target critics, entropy-regularized.
        next_probs = np.clip(self.actor.forward(nobs), 1e-12, None)
        tq = np.minimum(self._q_all_actions(self.target_q1, nobs),
                        self._q_all_actions(self.target_q2, nobs))
        v_next = (next_probs * (tq - alpha * np.log(next_probs))).sum(axis=1)
        y = rew + cfg.gamma * (1.0 - done) * v_next

        # Both critics' losses and gradients are checked before either
        # steps, so a non-finite update moves no weight (q2's gradient does
        # not read q1).
        q_losses, q_grads = [], []
        for net in (self.q1, self.q2):
            qsa = self._q_all_actions(net, obs)
            pred = qsa[np.arange(b), act]
            err = pred - y
            q_losses.append(float(np.mean(err ** 2)))
            grad = np.zeros((b, 2))
            grad[np.arange(b), act] = 2.0 * err / b
            q_grads.append(net.backward(grad.reshape(-1, 1)))
        if not all(np.isfinite(x).all() for x in (q_losses, *q_grads[0], *q_grads[1])):
            raise NumericalError(f"non-finite SAC critic loss or gradient (q={q_losses})")
        self.opt_q1.step(q_grads[0])
        self.opt_q2.step(q_grads[1])

        # Policy: ascend E_a~pi [min Q - alpha log pi], critics held fixed.
        probs = np.clip(self.actor.forward(obs), 1e-12, None)
        qmin = np.minimum(self._q_all_actions(self.q1, obs),
                          self._q_all_actions(self.q2, obs))
        policy_obj = float((probs * (qmin - alpha * np.log(probs))).sum(axis=1).mean())
        if not np.isfinite(policy_obj):
            raise NumericalError(f"non-finite SAC policy loss {-policy_obj}")
        grad_probs = -(qmin - alpha * (np.log(probs) + 1.0)) / b
        self.opt_actor.step(self.actor.backward(grad_probs))

        self.polyak_update(self.target_q1, self.q1, cfg.target_update_rate)
        self.polyak_update(self.target_q2, self.q2, cfg.target_update_rate)
        return {"q1_loss": q_losses[0], "q2_loss": q_losses[1],
                "policy_loss": -policy_obj}


# ---------------------------------------------------------------------------
# Training and evaluation loops


@dataclass
class TrainResult:
    reward_curve: list
    best_net: DenseNet          # actor checkpoint with best smoothed reward
    final_net: DenseNet
    best_smoothed_reward: float
    loss_history: list


def train(agent_kind: str, env_config: ScenarioConfig, episodes: int,
          seed: int = 0, agent_config=None) -> TrainResult:
    """Train PPO or SAC for ``episodes`` full episodes.

    PPO runs one update cycle per collected episode; SAC takes one gradient
    step per environment step once the warmup has filled the buffer.
    Training episode e uses the sub-seed (seed, training-tag, e), disjoint
    from the evaluation replication seeds.
    """
    if episodes < 1:
        raise ValueError(f"episode budget must be >= 1, got {episodes}")
    if agent_kind not in ("ppo", "sac"):
        raise ValueError(f"agent_kind must be 'ppo' or 'sac', got {agent_kind!r}")
    env = CleaningEnv(env_config)
    reward_curve = []
    loss_history = []
    best = -np.inf
    best_net = None

    if agent_kind == "ppo":
        agent = PPOAgent(env_config.obs_dim, agent_config or PPOConfig(), seed=seed)

        def play(entropy) -> float:
            episode = agent.collect_episode(env, entropy)
            loss_history.append(agent.update(episode))
            return float(episode.rewards.sum())
    else:
        cfg = agent_config or SACConfig()
        agent = SACAgent(env_config.obs_dim, cfg, seed=seed)
        total_steps = 0

        def learn(obs, a, res):
            nonlocal total_steps
            agent.buffer.push(obs[0], a[0], res.reward[0], res.observation[0], res.done)
            total_steps += 1
            if total_steps > cfg.warmup_steps and agent.buffer.size >= cfg.batch_size:
                loss_history.append(agent.update())

        def play(entropy) -> float:
            rollout(SampledPolicy(agent.actor, entropy), env, [entropy], learn)
            # The rewards summed day by day, in either reward mode.
            return float(-env.cumulative_cost[0])

    for ep in range(episodes):
        reward = play(training_entropy(seed, ep))
        if not math.isfinite(reward):
            raise NumericalError(f"training episode {ep} has a non-finite reward {reward}")
        reward_curve.append(reward)
        smoothed = float(np.mean(reward_curve[-_SMOOTH_WINDOW:]))
        if smoothed > best:
            best = smoothed
            best_net = agent.actor.copy()

    return TrainResult(reward_curve, best_net, agent.actor, best, loss_history)


def rollout(policy, env: CleaningEnv, seeds, on_step=None) -> CleaningEnv:
    """Play ``policy`` through the replications ``env.reset(seeds)`` starts.

    All replications run in lockstep: each day makes one batched
    ``policy.action`` call and one ``env.step``.
    ``on_step(observation, actions, step_result)`` sees every day.  Returns
    ``env`` holding the finished episodes' totals.
    """
    obs = env.reset(seeds)
    while not env.done:
        actions = policy.action(obs)
        res = env.step(actions)
        if on_step is not None:
            on_step(obs, actions, res)
        obs = res.observation
    return env


def evaluate(policy, env_config: ScenarioConfig, episodes: int = 30) -> Evaluation:
    """Total cost and cleanings of ``policy`` in each of ``episodes`` seeded episodes.

    Episode r uses the replication sub-seed (seed, replication-tag, r),
    disjoint from the training seeds.  These are the seeds of
    :func:`pvclean.simopt.evaluate_interval`, so entry r of the returned
    :class:`~pvclean.environment.Evaluation` pairs with entry r of its.
    """
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    env = rollout(policy, CleaningEnv(env_config),
                  [replication_entropy(env_config.seed, r) for r in range(episodes)])
    return Evaluation(env.cumulative_cost, env.cumulative_cleanings)
