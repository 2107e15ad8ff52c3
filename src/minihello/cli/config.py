"""Engine configuration: flat `key = value` files plus command-line overrides.

Recognized keys: host, listen, seed (repeatable or comma separated), primary,
timeout.call, timeout.fetch, ping.interval, ping.misses, gossip.interval,
grant (repeatable, `sid-hex:mask-bits`), lockdown, stdout.
"""

from __future__ import annotations

from ..engine.engine import EngineConfig
from ..security import parse_grant_line


class ConfigError(Exception):
    pass


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "yes", "1", "on"):
        return True
    if text.lower() in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def parse_config_text(text: str, where: str = "<config>") -> dict:
    values: dict = {"seed": [], "grant": []}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{where}:{lineno}: expected 'key = value'")
        key = key.strip()
        value = value.strip()
        try:
            if key == "host":
                values["host"] = value
            elif key == "listen":
                values["listen"] = value
            elif key == "seed":
                values["seed"].extend(v.strip() for v in value.split(",") if v.strip())
            elif key == "primary":
                values["primary"] = _parse_bool(value)
            elif key == "timeout.call":
                values["call_timeout_ms"] = int(value)
            elif key == "timeout.fetch":
                values["fetch_timeout_ms"] = int(value)
            elif key == "ping.interval":
                values["ping_interval_ms"] = int(value)
            elif key == "ping.misses":
                values["ping_miss_limit"] = int(value)
            elif key == "gossip.interval":
                values["gossip_interval_ms"] = int(value)
            elif key == "grant":
                values["grant"].append(parse_grant_line(value))
            elif key == "lockdown":
                values["lockdown"] = _parse_bool(value)
            elif key == "stdout":
                values["stdout_path"] = value
            else:
                raise ConfigError(f"unknown key '{key}'")
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{where}:{lineno}: {exc}") from exc
    return values


def load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return parse_config_text(text, path)


# Keys whose value is the EngineConfig field of the same name.
_FIELDS = ("listen", "primary", "call_timeout_ms", "fetch_timeout_ms",
           "ping_interval_ms", "ping_miss_limit", "gossip_interval_ms",
           "lockdown", "stdout_path")


def build_engine_config(values: dict) -> EngineConfig:
    """The engine configuration of `values`. A key that is not given keeps
    EngineConfig's own default, so every host has the same defaults."""
    host = values.get("host")
    if not host:
        raise ConfigError("host name is required")
    return EngineConfig(host_name=host,
                        seeds=tuple(values.get("seed", ())),
                        grants=tuple(values.get("grant", ())),
                        **{key: values[key] for key in _FIELDS if key in values})
