"""Run configuration: conductor policy, Manin-constant assumption, local
solubility options, worker count, and seed.

A config file uses `key=value` lines (# comments allowed); command-line
flags override file values.  The effective config is echoed in every JSON
summary so runs are reproducible from their output alone.
"""

from dataclasses import asdict, dataclass

from .curves import POLICIES
from .descent2 import DEFAULT_DEPTH_MARGIN
from .errors import DomainError

_BOOL = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


@dataclass(frozen=True)
class Config:
    policy: str = "include-small"
    nu2_manin: int = 0
    solubility_real_place: bool = True
    depth_cap_extra: int = DEFAULT_DEPTH_MARGIN
    workers: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise DomainError(f"unknown policy {self.policy!r}")
        if self.nu2_manin < 0 or self.depth_cap_extra < 0 or self.workers < 1:
            raise DomainError("nu2_manin, depth_cap_extra >= 0 and workers >= 1 required")

    def as_dict(self):
        return asdict(self)


def parse_config_file(path):
    """Read `key=value` lines into a dict of Config field values."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            val = val.strip()
            if key not in Config.__dataclass_fields__:
                raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
            if key == "policy":
                values[key] = val
            elif key == "solubility_real_place":
                if val.lower() not in _BOOL:
                    raise DomainError(f"{path}:{lineno}: bad boolean {val!r}")
                values[key] = _BOOL[val.lower()]
            else:
                values[key] = int(val)
    return values


def load_config(path=None, **overrides):
    """Config from optional file plus keyword overrides (None values ignored)."""
    values = parse_config_file(path) if path else {}
    values.update({k: v for k, v in overrides.items() if v is not None})
    return Config(**values)
