"""Supervision of auxiliary services (event loggers, checkpoint server).

The paper runs the event loggers and the checkpoint server "on a reliable
component of the system" — but the processes themselves can still crash
and be restarted by an init-style supervisor while their durable storage
survives.  This module models exactly that failure mode: a *service-level*
crash (listener gone, connections reset, in-flight requests lost, state
kept) followed by a supervised relaunch after a short delay.

This is distinct from a *host-level* crash of an auxiliary node (see
``TestbedConfig.reliable_aux``), which is permanent: the storage is gone
and the system degrades to restart-from-scratch.
"""

from __future__ import annotations

from typing import Any

from ..obs.registry import Metrics
from ..runtime.config import TestbedConfig
from ..simnet.kernel import Simulator
from ..simnet.trace import Tracer

__all__ = ["ServiceSupervisor"]


class ServiceSupervisor:
    """Restarts crashed auxiliary services after ``svc_restart_delay``.

    Services register under their fabric name ("el:0", "cs:0", ...) and
    must expose ``start()``, ``stop(cause)`` and a ``host`` attribute.
    """

    def __init__(
        self,
        sim: Simulator,
        cfg: TestbedConfig,
        tracer: Tracer,
        metrics: Metrics,
    ) -> None:
        self.sim = sim
        self.cfg = cfg
        self.tracer = tracer
        self._m_crashes = metrics.counter("svc.crashes")
        self._m_restarts = metrics.counter("svc.restarts")
        self.services: dict[str, Any] = {}

    def register(self, name: str, service: Any) -> Any:
        """Place a (started) service under supervision."""
        self.services[name] = service
        return service

    def crash(self, name: str, downtime: float = 0.0) -> None:
        """Crash the named service; schedule its supervised relaunch.

        The service is down for ``max(downtime, cfg.svc_restart_delay)``
        simulated seconds, during which connects to its name are refused.
        """
        svc = self.services.get(name)
        if svc is None:
            raise KeyError(f"no supervised service {name!r}")
        svc.stop(f"{name} crashed")
        self._m_crashes.inc()
        down = max(downtime, self.cfg.svc_restart_delay)
        self.tracer.emit(self.sim.now, "svc.crash", service=name, down=down)
        self.sim.at(self.sim.now + down, lambda: self._relaunch(name, svc))

    def _relaunch(self, name: str, svc: Any) -> None:
        if svc.host.failed:
            return  # the machine itself died meanwhile: nothing to respawn on
        if self.services.get(name) is not svc:
            return  # replaced while down
        svc.start()
        self._m_restarts.inc()
        self.tracer.emit(self.sim.now, "svc.restart", service=name)
