"""PPO and discrete SAC agents for the two-action cleaning MDP.

PPO is on-policy: one rollout = one full episode, then several epochs of
clipped-surrogate / value-regression minibatch updates.  SAC is off-policy
with a replay buffer, twin Q-networks taking the state concatenated with a
one-hot action, Polyak-averaged targets, and an entropy bonus
with fixed temperature.  Both train with the paper's fixed settings, the
``PPO_*`` and ``SAC_*`` constants below; the one value a caller sets is
SAC's warmup (:class:`SACConfig`).  Both agents run entirely on the float64
dense networks from :mod:`pvclean.nn`.  :func:`evaluate` scores any policy as an
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
    "clipped_surrogate", "PPOAgent", "SACAgent", "ReplayBuffer",
    "GreedyPolicy", "FixedIntervalPolicy", "SampledPolicy", "TrainResult",
    "train", "rollout", "evaluate",
]

_SMOOTH_WINDOW = 20


# The paper's fixed PPO settings; no program varies them.
PPO_LEARNING_RATE = 0.0005
PPO_GAMMA = 0.99
PPO_GAE_LAMBDA = 0.97
PPO_CLIP_EPSILON = 0.012
PPO_EPOCHS = 5
PPO_MINIBATCH_SIZE = 256
PPO_VALUE_LOSS_COEFFICIENT = 0.5
PPO_HIDDEN = 256
PPO_MAX_GRAD_NORM = 0.5

# The paper's fixed discrete-SAC settings.
SAC_GAMMA = 0.99
SAC_TARGET_UPDATE_RATE = 0.005
SAC_ENTROPY_ALPHA = 0.2
SAC_LEARNING_RATE = 0.0003
SAC_REPLAY_CAPACITY = 100_000
SAC_BATCH_SIZE = 256
SAC_HIDDEN = 256


@dataclass(frozen=True)
class PPOConfig:
    """PPO has no settings: it trains with the ``PPO_*`` constants.

    Kept so that callers may still pass ``PPOConfig()`` to :func:`train`.
    """


@dataclass(frozen=True)
class SACConfig:
    """Steps taken before SAC's first gradient step."""

    warmup_steps: int = 1000


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


def clipped_surrogate(ratios, advantages):
    """Per-sample clipped-surrogate objective and its d/d(log-prob).

    The objective is min(r A, clip(r, 1-eps, 1+eps) A) with
    eps = ``PPO_CLIP_EPSILON``.  The gradient is zero exactly where the
    ratio sits outside [1-eps, 1+eps] with the advantage pushing it further
    out, and the probability ratio times the advantage elsewhere.
    """
    surr1 = ratios * advantages
    surr2 = np.clip(ratios, 1.0 - PPO_CLIP_EPSILON, 1.0 + PPO_CLIP_EPSILON) * advantages
    return np.minimum(surr1, surr2), np.where(surr1 <= surr2, surr1, 0.0)


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

    def __init__(self, obs_dim: int, seed: int = 0):
        h = PPO_HIDDEN
        self.actor = DenseNet([obs_dim, h, 2], ["relu", "softmax"], seed=seed)
        self.critic = DenseNet([obs_dim, h, 1], ["relu", "linear"], seed=seed + 1)
        self.opt_actor = Adam(self.actor, PPO_LEARNING_RATE)
        self.opt_critic = Adam(self.critic, PPO_LEARNING_RATE)
        self._shuffle = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([seed, 7])))

    def collect_episode(self, env: CleaningEnv, entropy) -> Rollout:
        """One full stochastic-policy episode (the PPO rollout)."""
        policy = SampledPolicy(self.actor, entropy)
        observations, actions, log_probs = [], [], []

        def record(obs, a, res):
            observations.append(obs[0])
            actions.append(a[0])
            log_probs.append(np.log(max(policy.probs[0, a[0]], 1e-300)))

        # The episode's days are priced once, after it is played.
        rewards = rollout(policy, env, [entropy], record).rewards()[:, 0]
        observations = np.array(observations)
        values = self.critic.forward(observations)[:, 0]
        return Rollout(observations, np.array(actions), rewards, np.array(log_probs), values)

    def update(self, rollout: Rollout) -> dict:
        """Clipped-surrogate actor / MSE critic update over the rollout."""
        advantages, targets = compute_gae(
            rollout.rewards, rollout.values, 0.0, PPO_GAMMA, PPO_GAE_LAMBDA)
        adv = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        n = len(adv)
        policy_losses, value_losses = [], []
        for _ in range(PPO_EPOCHS):
            order = self._shuffle.permutation(n)
            for start in range(0, n, PPO_MINIBATCH_SIZE):
                idx = order[start:start + PPO_MINIBATCH_SIZE]
                b = len(idx)
                obs = rollout.observations[idx]
                act = rollout.actions[idx]
                old_logp = rollout.log_probs[idx]
                badv = adv[idx]

                probs = self.actor.forward(obs)
                p_taken = np.clip(probs[np.arange(b), act], 1e-300, None)
                logp = np.log(p_taken)
                ratio = np.exp(logp - old_logp)
                objective, grad = clipped_surrogate(ratio, badv)
                policy_loss = -objective.mean()

                grad_logp = -grad / b
                grad_probs = np.zeros_like(probs)
                grad_probs[np.arange(b), act] = grad_logp / p_taken
                actor_grads = clip_global_norm(self.actor.backward(grad_probs),
                                               PPO_MAX_GRAD_NORM)

                v = self.critic.forward(obs)[:, 0]
                verr = v - targets[idx]
                value_loss = PPO_VALUE_LOSS_COEFFICIENT * float(np.mean(verr ** 2))
                grad_v = (2.0 * PPO_VALUE_LOSS_COEFFICIENT * verr / b).reshape(-1, 1)
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

    def __init__(self, obs_dim: int, seed: int = 0):
        h = SAC_HIDDEN
        self.actor = DenseNet([obs_dim, h, h, 2], ["relu", "relu", "softmax"], seed=seed)
        self.q1 = DenseNet([obs_dim + 2, h, h, 1], ["relu", "relu", "linear"], seed=seed + 1)
        self.q2 = DenseNet([obs_dim + 2, h, h, 1], ["relu", "relu", "linear"], seed=seed + 2)
        self.target_q1 = self.q1.copy()
        self.target_q2 = self.q2.copy()
        self.opt_actor = Adam(self.actor, SAC_LEARNING_RATE)
        self.opt_q1 = Adam(self.q1, SAC_LEARNING_RATE)
        self.opt_q2 = Adam(self.q2, SAC_LEARNING_RATE)
        self.buffer = ReplayBuffer(SAC_REPLAY_CAPACITY, obs_dim)
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 13])))

    @staticmethod
    def _with_actions(obs: np.ndarray) -> np.ndarray:
        """(2B, obs_dim + 2) inputs: each state paired with both one-hots."""
        b = obs.shape[0]
        eye = np.eye(2)
        tiled = np.repeat(obs, 2, axis=0)
        onehots = np.tile(eye, (b, 1))
        return np.concatenate([tiled, onehots], axis=1)

    @staticmethod
    def polyak_update(target: DenseNet, online: DenseNet, rate: float) -> None:
        for tp, op in zip(target.parameters(), online.parameters()):
            tp *= (1.0 - rate)
            tp += rate * op

    def update(self) -> dict:
        """One gradient step on both critics and the actor, then Polyak."""
        if self.buffer.size < SAC_BATCH_SIZE:
            raise ValueError("replay buffer smaller than batch size")
        obs, act, rew, nobs, done = self.buffer.sample(SAC_BATCH_SIZE, self._gen)
        b = len(act)
        alpha = SAC_ENTROPY_ALPHA
        # (2B, 1) critic outputs reshape to (B, 2) Q-values for both actions.
        x, next_x = self._with_actions(obs), self._with_actions(nobs)

        # Soft targets: expectation over next-action probabilities with the
        # minimum of the two target critics, entropy-regularized.
        next_probs = np.clip(self.actor.forward(nobs), 1e-12, None)
        tq = np.minimum(self.target_q1.forward(next_x),
                        self.target_q2.forward(next_x)).reshape(-1, 2)
        v_next = (next_probs * (tq - alpha * np.log(next_probs))).sum(axis=1)
        y = rew + SAC_GAMMA * (1.0 - done) * v_next

        # Both critics' losses and gradients are checked before either
        # steps, so a non-finite update moves no weight (q2's gradient does
        # not read q1).
        q_losses, q_grads = [], []
        for net in (self.q1, self.q2):
            pred = net.forward(x).reshape(-1, 2)[np.arange(b), act]
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
        qmin = np.minimum(self.q1.forward(x), self.q2.forward(x)).reshape(-1, 2)
        policy_obj = float((probs * (qmin - alpha * np.log(probs))).sum(axis=1).mean())
        if not np.isfinite(policy_obj):
            raise NumericalError(f"non-finite SAC policy loss {-policy_obj}")
        grad_probs = -(qmin - alpha * (np.log(probs) + 1.0)) / b
        self.opt_actor.step(self.actor.backward(grad_probs))

        self.polyak_update(self.target_q1, self.q1, SAC_TARGET_UPDATE_RATE)
        self.polyak_update(self.target_q2, self.q2, SAC_TARGET_UPDATE_RATE)
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
    from the evaluation replication seeds.  ``agent_config`` is a
    :class:`SACConfig` for SAC (default warmup when ``None``); PPO ignores it.
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
        agent = PPOAgent(env_config.obs_dim, seed=seed)

        def play(entropy) -> float:
            episode = agent.collect_episode(env, entropy)
            loss_history.append(agent.update(episode))
            return float(episode.rewards.sum())
    else:
        warmup_steps = (agent_config or SACConfig()).warmup_steps
        agent = SACAgent(env_config.obs_dim, seed=seed)
        total_steps = 0

        def learn(obs, a, res):
            nonlocal total_steps
            agent.buffer.push(obs[0], a[0], res.reward[0], res.observation[0], res.done)
            total_steps += 1
            if total_steps > warmup_steps and agent.buffer.size >= SAC_BATCH_SIZE:
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
    Raises :class:`~pvclean.environment.NumericalError` if a cost is not finite.
    """
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    env = rollout(policy, CleaningEnv(env_config),
                  [replication_entropy(env_config.seed, r) for r in range(episodes)])
    costs = env.cumulative_cost
    bad = np.flatnonzero(~np.isfinite(costs))
    if bad.size:
        raise NumericalError(f"non-finite cost in evaluation episode {bad[0]}")
    return Evaluation(costs, env.cumulative_cleanings)
