"""Deterministic scripted model provider.

Stands in for a live model so every tier runs reproducibly offline.  Each
reply is a pure function of the conversation: the provider re-reads the
fenced JSON payloads the agents embed in their prompts and answers from
fixed rule tables.  Responses are compact JSON in exactly the shape the
agents parse for live models, so both modes share one parsing path.
"""

from __future__ import annotations

import json
import re

from .backend import count_tokens
from .errors import ProviderUnavailableError

# A fence is a whole line, and json.dumps escapes newlines: app text cannot forge one.
_PAYLOAD_RE = re.compile(r"^```json\n(.*?)\n```$", re.MULTILINE | re.DOTALL)

# Permissions considered ordinary for an app of a given declared category
# (substring match on the lowercased category), on top of BASE_EXPECTED.
BASE_EXPECTED = {
    "INTERNET",
    "ACCESS_NETWORK_STATE",
    "VIBRATE",
    "WAKE_LOCK",
    "FOREGROUND_SERVICE",
}

CATEGORY_EXPECTATIONS = {
    "flashlight": {"FLASHLIGHT", "CAMERA"},
    "messaging": {"SEND_SMS", "READ_SMS", "RECEIVE_SMS", "READ_CONTACTS"},
    "sms": {"SEND_SMS", "READ_SMS", "RECEIVE_SMS", "READ_CONTACTS"},
    "chat": {"READ_CONTACTS", "RECORD_AUDIO", "CAMERA"},
    "backup": {"READ_EXTERNAL_STORAGE", "WRITE_EXTERNAL_STORAGE"},
    "file": {"READ_EXTERNAL_STORAGE", "WRITE_EXTERNAL_STORAGE"},
    "navigation": {"ACCESS_FINE_LOCATION", "ACCESS_COARSE_LOCATION"},
    "maps": {"ACCESS_FINE_LOCATION", "ACCESS_COARSE_LOCATION"},
    "weather": {"ACCESS_COARSE_LOCATION"},
    "camera": {"CAMERA", "WRITE_EXTERNAL_STORAGE", "READ_EXTERNAL_STORAGE"},
    "photo": {"CAMERA", "WRITE_EXTERNAL_STORAGE", "READ_EXTERNAL_STORAGE"},
    "dialer": {"CALL_PHONE", "READ_PHONE_STATE", "READ_CALL_LOG", "READ_CONTACTS"},
    "phone": {"CALL_PHONE", "READ_PHONE_STATE", "READ_CALL_LOG", "READ_CONTACTS"},
    "recorder": {"RECORD_AUDIO", "WRITE_EXTERNAL_STORAGE"},
    "contacts": {"READ_CONTACTS"},
}

HIGH_RISK = {
    "READ_SMS",
    "SEND_SMS",
    "RECEIVE_SMS",
    "WRITE_SMS",
    "READ_CONTACTS",
    "READ_CALL_LOG",
    "PROCESS_OUTGOING_CALLS",
    "RECORD_AUDIO",
    "ACCESS_FINE_LOCATION",
    "CAMERA",
    "READ_CALENDAR",
    "CALL_PHONE",
}

MEDIUM_RISK = {
    "RECEIVE_BOOT_COMPLETED",
    "WRITE_EXTERNAL_STORAGE",
    "READ_EXTERNAL_STORAGE",
    "ACCESS_COARSE_LOCATION",
    "GET_ACCOUNTS",
    "READ_PHONE_STATE",
    "SYSTEM_ALERT_WINDOW",
    "REQUEST_INSTALL_PACKAGES",
}

# Scripted ReAct policy: one fixed forensic path per candidate.
_POLICY = ("extract_context", "trigger_paths", "taint_reachability")


def _payload(messages: list[tuple[str, str]]) -> dict:
    """Latest fenced JSON payload across the conversation."""
    for role, text in reversed(messages):
        if role != "user":
            continue
        blocks = _PAYLOAD_RE.findall(text)
        if blocks:
            return json.loads(blocks[-1])
    raise ProviderUnavailableError("scripted provider found no JSON payload in prompt")


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def expected_permissions(category: str) -> set[str]:
    expected = set(BASE_EXPECTED)
    lowered = category.lower()
    for key, perms in CATEGORY_EXPECTATIONS.items():
        if key in lowered:
            expected |= perms
    return expected


def permission_severity(permission: str) -> str:
    if permission in HIGH_RISK:
        return "High"
    if permission in MEDIUM_RISK:
        return "Medium"
    return "Low"


def threat_category(source_class: str, sink: str) -> str:
    cls = source_class.lower()
    if "smsmessage" in cls or "smsmanager" in cls or sink == "telephony":
        return "SMS-exfiltration"
    if any(k in cls for k in ("location", "contacts", "account", "telephonymanager",
                              "audio", "camera")):
        return "spyware"
    if sink == "network":
        return "data-exfiltration"
    if sink == "storage":
        return "data-theft"
    return "suspicious-behavior"


class ScriptedProvider:
    """Offline provider; replies depend only on the conversation content."""

    def chat(self, model_id: str, tier: str, messages: list[tuple[str, str]]):
        if tier == "recon":
            response = self._recon(messages)
        elif tier == "trace":
            response = self._trace(messages)
        elif tier == "verdict":
            response = self._verdict(messages)
        else:
            raise ProviderUnavailableError(f"scripted provider has no policy for tier {tier!r}")
        in_tokens = sum(count_tokens(text) for _role, text in messages)
        return response, in_tokens, count_tokens(response)

    # -- tier 1: intent/permission screening -------------------------------

    def _recon(self, messages) -> str:
        data = _payload(messages)
        category = data.get("category", "")
        expected = expected_permissions(category)
        signals = []
        for perm in data.get("permissions", []):
            if perm in expected:
                continue
            signals.append(
                {
                    "permission": perm,
                    "severity": permission_severity(perm),
                    "reason": f"permission {perm} is unexpected for a "
                              f"'{category}' app",
                }
            )
        return _dump(
            {
                "declared_intents": [category] if category else [],
                "risk_signals": signals,
            }
        )

    # -- tier 2: fixed forensic path ---------------------------------------

    def _trace(self, messages) -> str:
        step = sum(1 for role, _ in messages if role == "assistant")
        if step < len(_POLICY):
            tool = _POLICY[step]
            return _dump(
                {
                    "thought": f"step {step + 1}: run {tool} on the candidate site",
                    "action": tool,
                    "args": {},
                }
            )
        taint = self._latest_tool_observation(messages, "taint_reachability")
        hits = (taint or {}).get("reached_sinks") or []
        if step == len(_POLICY) and hits:
            first = hits[0]
            return _dump(
                {
                    "thought": "taint reached a sink; slice the sink statement",
                    "action": "backward_slice",
                    "args": {
                        "method": first["method"],
                        "line": first["line"],
                        "var": first["tainted_arg"],
                    },
                }
            )
        if hits:
            # a cut observation carries the full count beside its first sinks
            summary = (
                f"tainted data from the candidate reaches "
                f"{taint.get('sink_count', len(hits))} sink(s), first via {hits[0]['category']}"
            )
        else:
            summary = "no tainted flow from the candidate reaches any sink"
        return _dump(
            {"thought": "evidence is complete", "action": "conclude",
             "args": {"summary": summary}}
        )

    @staticmethod
    def _latest_tool_observation(messages, tool: str) -> dict | None:
        for role, text in reversed(messages):
            if role != "user":
                continue
            try:
                obj = json.loads(text)
            except ValueError:
                continue
            if isinstance(obj, dict) and obj.get("tool") == tool:
                if "error" in obj:
                    return None
                return obj
        return None

    # -- tier 3: evidence fusion -------------------------------------------

    def _verdict(self, messages) -> str:
        data = _payload(messages)
        vectors = data.get("vectors", [])
        supporting = [
            v
            for v in vectors
            if v.get("hits", 0) > 0
            and (v.get("trigger") in ("SystemEvent", "Unknown")
                 or v.get("severity") == "High")
        ]
        if supporting:
            verdict = "Malicious"
            confidence = min(0.99, round(0.5 + 0.1 * len(supporting), 2))
            first = supporting[0]
            category = threat_category(first.get("source_class", ""),
                                       first.get("sink", ""))
            chain = [
                {
                    "candidate": v["candidate"],
                    "trigger": v.get("trigger", "Unknown"),
                    "sink": v.get("sink", "none"),
                    "rationale": f"{v.get('trigger', 'Unknown')}-triggered flow from "
                                 f"{v.get('source_class', 'the candidate')} into a "
                                 f"{v.get('sink', 'unknown')} sink",
                }
                for v in supporting
            ]
            rationale = (
                f"{len(supporting)} of {len(vectors)} forensic vector(s) show "
                f"sensitive data leaving the app without a user-facing justification."
            )
        else:
            verdict = "Benign"
            exonerated = sum(1 for v in vectors if v.get("hits", 0) == 0)
            confidence = min(0.95, round(0.5 + 0.1 * exonerated, 2))
            category = "none"
            chain = []
            rationale = (
                f"{exonerated} of {len(vectors)} candidate(s) were fully exonerated; "
                f"no tainted flow with a risky trigger was found."
            )
        return _dump(
            {
                "app_id": data.get("app_id", ""),
                "verdict": verdict,
                "threat_category": category,
                "confidence": confidence,
                "evidence_chain": chain,
                "rationale": rationale,
            }
        )
