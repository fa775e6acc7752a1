"""Env-driven chaos injection: probabilistic crashes, hangs and corruption.

The resilience layer's tests (and the ``chaos-smoke`` CI job) need real
faults — a worker process that dies mid-task, a build that hangs past its
deadline, a cache write that commits garbage.  This harness injects them at
well-known **checkpoints** that production code consults when (and only
when) ``REPRO_CHAOS`` is set:

- ``task`` — the start of every pool-worker task
  (:func:`repro.experiments.orchestrator.engine._pool_execute` and the
  shm kernel worker, once per trial range);
- ``cache-write`` — between the temp-file write and the atomic rename in
  :meth:`repro.experiments.orchestrator.cache.ResultCache.store`.

Syntax (comma-separated rules)::

    REPRO_CHAOS=crash:0.2              # 20% chance a task start kills the process
    REPRO_CHAOS=hang:1@task            # every task start sleeps (deadline fodder)
    REPRO_CHAOS=corrupt:1:2@task       # first 2 checkpoints per process raise ChaosError
    REPRO_CHAOS=crash:1@cache-write    # die after the temp write, before the rename

i.e. ``kind:probability[:max][@site]`` where ``kind`` is ``crash`` /
``hang`` / ``corrupt``, ``max`` caps injections *per process* and ``site``
defaults to ``task``.  Supporting environment variables:

- ``REPRO_CHAOS_SEED`` — integer seeding the (counter-based) decision
  stream so a process's injection pattern is reproducible; unset, each
  process seeds itself from its pid.
- ``REPRO_CHAOS_HANG_SECONDS`` — how long a ``hang`` sleeps (default 30).
- ``REPRO_CHAOS_ONCE`` — a directory of injection tokens: each distinct
  ``(kind, site, key)`` fires **at most once across all processes** that
  share the directory.  This is what makes chaos CI runs deterministic-by
  -construction: with ``crash:0.2`` + a shared once-directory every task
  dies at most once, so bounded retries always converge.

The injection kinds:

- ``crash`` — ``os._exit(CHAOS_CRASH_EXIT_CODE)``: the process dies without
  running cleanup handlers, exactly like a kill, so pool breakage and torn
  writes are realistic;
- ``hang`` — sleeps ``REPRO_CHAOS_HANG_SECONDS`` (finite so leaked workers
  cannot outlive a test session forever);
- ``corrupt`` — at a task site raises
  :class:`~repro.core.exceptions.ChaosError`; at ``cache-write`` the
  checkpoint *returns* ``"corrupt"`` and the caller applies the corruption
  it knows how to apply (the cache scribbles over the temp file).
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.backend.base import campaign_uniform
from repro.core.exceptions import ChaosError, ReproError

#: Environment variable holding the chaos rule list.
CHAOS_ENV_VAR = "REPRO_CHAOS"

#: Environment variable seeding the per-process decision stream.
CHAOS_SEED_ENV_VAR = "REPRO_CHAOS_SEED"

#: Environment variable bounding how long a ``hang`` injection sleeps.
CHAOS_HANG_ENV_VAR = "REPRO_CHAOS_HANG_SECONDS"

#: Environment variable naming the shared once-token directory.
CHAOS_ONCE_ENV_VAR = "REPRO_CHAOS_ONCE"

#: Exit code a ``crash`` injection dies with (distinct from Python's 1/2 so
#: tests can tell an injected crash from an ordinary failure).
CHAOS_CRASH_EXIT_CODE = 13

#: Default ``hang`` duration, seconds.
DEFAULT_HANG_SECONDS = 30.0

#: The site a rule without ``@site`` applies to.
DEFAULT_SITE = "task"

#: Recognized injection kinds.
CHAOS_KINDS = ("crash", "hang", "corrupt")


@dataclass(frozen=True)
class ChaosRule:
    """One parsed injection rule: kind, probability, per-process cap, site.

    Attributes:
        kind: ``crash`` / ``hang`` / ``corrupt``.
        probability: chance in ``[0, 1]`` that a matching checkpoint fires.
        max_injections: per-process cap (``None``: unbounded).
        site: checkpoint name the rule applies to.
    """

    kind: str
    probability: float
    max_injections: Optional[int]
    site: str


def _parse_rule(segment: str) -> ChaosRule:
    spec, _, site = segment.partition("@")
    site = site.strip() or DEFAULT_SITE
    parts = [part.strip() for part in spec.split(":")]
    if not 2 <= len(parts) <= 3 or not parts[0]:
        raise ReproError(
            f"malformed chaos rule {segment!r} "
            "(expected kind:probability[:max][@site])"
        )
    kind = parts[0]
    if kind not in CHAOS_KINDS:
        raise ReproError(
            f"unknown chaos kind {kind!r} (known: {', '.join(CHAOS_KINDS)})"
        )
    try:
        probability = float(parts[1])
    except ValueError:
        raise ReproError(
            f"chaos probability in {segment!r} is not a number"
        ) from None
    if not 0.0 <= probability <= 1.0:
        raise ReproError(
            f"chaos probability must be in [0, 1], got {probability}"
        )
    max_injections: Optional[int] = None
    if len(parts) == 3:
        try:
            max_injections = int(parts[2])
        except ValueError:
            raise ReproError(
                f"chaos injection cap in {segment!r} is not an integer"
            ) from None
        if max_injections < 0:
            raise ReproError(
                f"chaos injection cap must be non-negative, got {max_injections}"
            )
    return ChaosRule(
        kind=kind, probability=probability, max_injections=max_injections, site=site
    )


class ChaosConfig:
    """A parsed chaos specification plus the per-process decision state."""

    def __init__(
        self,
        rules: Tuple[ChaosRule, ...] = (),
        *,
        seed: Optional[int] = None,
        hang_seconds: float = DEFAULT_HANG_SECONDS,
        once_dir: Optional[str] = None,
    ) -> None:
        self.rules = tuple(rules)
        self.hang_seconds = float(hang_seconds)
        self.once_dir = once_dir
        self.seed = seed if seed is not None else os.getpid()
        # One decision stream per process: counter-based (splitmix64) so the
        # sequence is reproducible for a fixed seed regardless of which
        # checkpoints were skipped.
        self._draws = 0
        self._injections: Dict[Tuple[str, str], int] = {}

    @classmethod
    def parse(
        cls,
        spec: str,
        *,
        seed: Optional[int] = None,
        hang_seconds: float = DEFAULT_HANG_SECONDS,
        once_dir: Optional[str] = None,
    ) -> "ChaosConfig":
        """Parse a ``REPRO_CHAOS`` value; usage errors raise ``ReproError``."""
        rules = tuple(
            _parse_rule(segment.strip())
            for segment in spec.split(",")
            if segment.strip()
        )
        return cls(rules, seed=seed, hang_seconds=hang_seconds, once_dir=once_dir)

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None) -> "ChaosConfig":
        """The configuration the environment describes (inactive when unset)."""
        env = environ if environ is not None else os.environ
        spec = env.get(CHAOS_ENV_VAR, "")
        if not spec.strip():
            return cls()
        seed_text = env.get(CHAOS_SEED_ENV_VAR, "").strip()
        seed = int(seed_text) if seed_text else None
        hang_text = env.get(CHAOS_HANG_ENV_VAR, "").strip()
        hang_seconds = float(hang_text) if hang_text else DEFAULT_HANG_SECONDS
        once_dir = env.get(CHAOS_ONCE_ENV_VAR, "").strip() or None
        return cls.parse(
            spec, seed=seed, hang_seconds=hang_seconds, once_dir=once_dir
        )

    @property
    def active(self) -> bool:
        """Whether any rule can ever fire."""
        return any(rule.probability > 0.0 for rule in self.rules)

    # ------------------------------------------------------------- injection

    def _uniform(self) -> float:
        value = campaign_uniform(self.seed, self._draws)
        self._draws += 1
        return value

    def _claim_once_token(self, rule: ChaosRule, key: str) -> bool:
        """Atomically claim the cross-process token; ``False`` if taken."""
        if self.once_dir is None:
            return True
        digest = hashlib.sha256(
            f"{rule.site}\x00{key}".encode("utf-8")
        ).hexdigest()[:24]
        path = os.path.join(self.once_dir, f"{rule.kind}-{digest}")
        try:
            os.makedirs(self.once_dir, exist_ok=True)
            descriptor = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError:
            # An unusable token directory must not turn chaos off silently —
            # but it also must not crash the host; fall back to firing.
            return True
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(f"{rule.site} {key}\n")
        return True

    def inject(self, site: str, key: str = "") -> Optional[str]:
        """Consult every rule matching ``site``; may not return (``crash``).

        Returns ``"corrupt"`` when a corruption injection fired at a
        non-task site (the caller applies it), ``None`` otherwise.  At task
        sites ``corrupt`` raises :class:`ChaosError` directly.
        """
        for rule in self.rules:
            if rule.site != site or rule.probability <= 0.0:
                continue
            count_key = (rule.kind, rule.site)
            if (
                rule.max_injections is not None
                and self._injections.get(count_key, 0) >= rule.max_injections
            ):
                continue
            if rule.probability < 1.0 and self._uniform() >= rule.probability:
                continue
            if not self._claim_once_token(rule, key):
                continue
            self._injections[count_key] = self._injections.get(count_key, 0) + 1
            if rule.kind == "crash":
                # A hard kill: no atexit, no finally, no flush — exactly the
                # failure mode the resilience layer must survive.
                os._exit(CHAOS_CRASH_EXIT_CODE)
            if rule.kind == "hang":
                time.sleep(self.hang_seconds)
                continue
            if site == DEFAULT_SITE:
                raise ChaosError(
                    f"chaos: injected corruption at {site!r} (key={key!r})"
                )
            return "corrupt"
        return None


_active_config: Optional[ChaosConfig] = None


def active_chaos() -> ChaosConfig:
    """The process-wide configuration, parsed from the environment once.

    Memoized because checkpoints sit on hot paths (every pool task, every
    cache write); :func:`reset_chaos` drops the memo for tests that change
    the environment mid-process.
    """
    global _active_config
    if _active_config is None:
        _active_config = ChaosConfig.from_env()
    return _active_config


def reset_chaos() -> None:
    """Forget the memoized configuration (re-read the env on next use)."""
    global _active_config
    _active_config = None


def chaos_checkpoint(site: str = DEFAULT_SITE, key: str = "") -> Optional[str]:
    """Consult the active chaos configuration at ``site``.

    The no-chaos fast path is one memoized attribute check; production
    callers pay nothing measurable for hosting a checkpoint.
    """
    config = active_chaos()
    if not config.active:
        return None
    return config.inject(site, key)
