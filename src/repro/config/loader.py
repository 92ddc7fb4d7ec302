"""Config-file layer: a :class:`SystemConfig` to and from JSON.

GPGPU-sim and gem5 drive their simulators from configuration files; this
module plays that role so experiments can be described declaratively::

    {
      "mechanism": "delegated_replies",
      "layout": "edge",
      "noc": {"channel_width_bytes": 8, "topology": "dragonfly"},
      "gpu_l1": {"size_bytes": 16384},
      "delegation": {"max_delegations_per_cycle": 1}
    }

``mechanism`` alone selects what runs.  Unknown keys, values outside a
field's declared range or choices and wrong JSON types all fail with a
one-line :class:`ConfigError` naming the dotted path; what is legal is
read from the field declarations in :mod:`repro.config.system`, which
also owns :func:`config_from_dict`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.config.system import ConfigError, SystemConfig, config_from_dict

__all__ = ["ConfigError", "config_from_dict", "load_config", "save_config"]


def load_config(path: Union[str, Path]) -> SystemConfig:
    """Load a :class:`SystemConfig` from a JSON file."""
    with open(path) as fh:
        return config_from_dict(json.load(fh))


def save_config(cfg: SystemConfig, path: Union[str, Path]) -> None:
    """Write a config to a JSON file (round-trips through
    :func:`load_config`)."""
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
