"""Overload control for multi-tenant job streams.

``repro.control`` keeps a simulated node alive under arbitrary
overload: a token-bucket :class:`QuotaAccountant` charges each tenant
for admitted work, the :class:`ControlPlane` accepts / delays / sheds
arriving jobs against per-tenant credit and a global in-flight budget,
and three priority classes (``guaranteed`` / ``burstable`` /
``best-effort``) decide who is protected, who backs off, and whose
unstarted work is evicted when a guaranteed job needs room. Outcomes
surface as :class:`ControlResult` on
:meth:`repro.api.SimSpec.run_stream`'s stream result and as
``repro.obs`` job events.

With :meth:`ControlConfig.unlimited` the whole subsystem is a
structural no-op, bit-identical to the uncontrolled engine — the
property ``repro check`` verifies differentially.
"""

from repro.control.plane import (
    QOS_CLASSES,
    ControlConfig,
    ControlPlane,
    Decision,
    default_overload_config,
)
from repro.control.quota import QuotaAccountant, TenantQuota
from repro.control.result import ControlResult, JobOutcome

__all__ = [
    "QOS_CLASSES",
    "ControlConfig",
    "ControlPlane",
    "ControlResult",
    "Decision",
    "JobOutcome",
    "QuotaAccountant",
    "TenantQuota",
    "default_overload_config",
]
