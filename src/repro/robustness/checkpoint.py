"""Campaign checkpointing: kill a campaign, resume it deterministically.

A two-week (300k-query) campaign must survive the harness host being
rebooted.  A serial campaign's checkpoint and each shard's sidecar of a
sharded campaign (``<path>.shard<w>``) are the same
:class:`CampaignCheckpoint`:

* ``spec`` — the campaign's identity: every configuration field that
  shapes its statement stream or its result (built by
  :func:`repro.core.campaign.campaign_spec`).  A resume whose own spec
  differs is refused, naming each differing field;
* ``progress`` — everything the campaign cannot re-derive by replay
  (built by :func:`repro.core.campaign.progress_snapshot`): stream
  positions processed, statements executed, outcome and fault counts
  (the injector's included), the oracle pipeline's state, triggered
  functions, coverage arcs/lines and the sandbox containment state;
* for serial campaigns, the seed phase's observed result types and the
  simulated elapsed time.

:func:`repro.core.campaign.checkpoint_files` names a campaign's files
(its ``checkpoint_path``, or one ``<path>.shard<w>`` per worker) and
:func:`repro.core.campaign.load_checkpoints` loads them: the one resume
rule of the CLI, the library and the service.

Resume strategy (see ``Campaign.run``): generation is deterministic, so
the resumed campaign *re-generates* the statement stream and skips the
positions it already processed without running them.  No random state
is saved: the engine's and the fault injector's generators are reseeded
from each statement before it runs.

Checkpoints are JSON (inspectable, diffable) and written atomically
(fsync'd tmp file + ``os.replace``) so a kill mid-write never corrupts
the resume point.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from typing import Any, Dict

#: bump when the on-disk layout changes incompatibly.
#: v2: the fault injector's random stream became position-keyed (see
#: repro.robustness.faults).  v3: serial checkpoints and shard sidecars
#: became one layout (``spec`` + ``progress``) and stopped saving random
#: state.  Files of any other version are refused.
CHECKPOINT_VERSION = 3

#: sharding layout version, part of every shard sidecar's spec: bumped
#: when the case-to-shard rule or the shard's progress accounting changes
#: (v3 replaced ``index % jobs`` with ``shard_of``; v4 is the shared
#: checkpoint layout)
SHARD_FORMAT_VERSION = 4


class CheckpointError(Exception):
    """The checkpoint is unreadable or inconsistent with the campaign."""


@dataclass
class CampaignCheckpoint:
    """One resumable snapshot of a running campaign or of one shard."""

    #: the campaign identity a resume must match (``campaign_spec``)
    spec: Dict[str, Any]
    #: what the campaign has done so far (``progress_snapshot``)
    progress: Dict[str, Any]
    #: serial campaigns only: the seed phase's observed result types (a
    #: resume past the seed phase does not re-run it) and simulated time
    return_types: Dict[str, str] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    version: int = CHECKPOINT_VERSION

    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Atomically persist the checkpoint as JSON."""
        # a shallow mapping: every field already holds plain JSON data, and
        # ``asdict`` would deep-copy the oracle state element by element
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        payload = json.dumps(data, sort_keys=True)
        # fsync'd temporary file, then os.replace: a kill mid-write leaves
        # the previous checkpoint intact
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "CampaignCheckpoint":
        """Read a checkpoint; any unusable file raises a
        :class:`CheckpointError` naming *path*."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"corrupt checkpoint {path!r}: {exc}") from None
        version = data.get("version") if isinstance(data, dict) else None
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {path!r} has version {version!r}, "
                f"expected {CHECKPOINT_VERSION}"
            )
        known = {f.name for f in fields(cls)}
        if set(data) != known:
            raise CheckpointError(
                f"checkpoint {path!r} has fields {sorted(data)}, "
                f"expected {sorted(known)}"
            )
        return cls(**data)

    # ------------------------------------------------------------------
    def validate_for(self, spec: Dict[str, Any]) -> None:
        """Refuse to resume into a campaign whose spec differs, naming
        every differing field (``'seed'``, ``'statement_family'``, ...)."""
        names = list(spec) + [name for name in self.spec if name not in spec]
        mismatches = [
            f"'{name}': checkpoint={self.spec.get(name)!r} "
            f"campaign={spec.get(name)!r}"
            for name in names
            if self.spec.get(name) != spec.get(name)
        ]
        if mismatches:
            raise CheckpointError(
                "checkpoint was written for a different campaign ("
                + "; ".join(mismatches)
                + ")"
            )
