"""JSON file formats for priors, profiles, and mechanism configs.

Prior files carry either the latent generative form or the raw pairwise
moments::

    {"signals": [...], "kind": "latent", "state_probs": [...], "emissions": [[...]]}
    {"signals": [...], "kind": "pairwise", "marginal": [...], "conditional": [[...]]}

``signals`` lists distinct strings.  The conditional is stored row-major
with rows indexed by the conditioned signal and columns by the conditioning
signal (``conditional[a][b] = q(a|b)``).  Profile files::

    {"n": ..., "agents": [{"theta": [[...]], "predictions": [[[...]]]}, ...]}

with ``theta[report][signal]`` and ``predictions[signal][report]`` a
probability vector.  Mechanism files::

    {"alpha": ..., "beta": ..., "rule": "log", "variant": "disagreement", "groupA": [...]}

with ``groupA`` a list of integer agent indices.  Each of these five fields
may be left out for its default (alpha 1, beta 0.05, the log rule, the
truthful variant, group A the first n // 2 agents); any other field is an
error.  A pairwise prior file is checked stochastic here, and a latent one
when its moments are derived.  All reals are IEEE doubles; Python's default
float printing is the shortest representation that round-trips exactly.

One writer, :func:`json_text`, gives the text of every file written here
and of every ``--format json`` output of the CLI: the whole object on one
line, with ``", "`` and ``": "`` separators, followed by one newline.  The
values, key order and float text are those of ``json.dumps``; only line
breaks and indentation are left out, which keeps ``json`` on its C encoder.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from .mechanism import MechanismConfig
from .priors import LatentStatePrior, PairwisePrior, PriorError, SignalSpace, from_latent
from .strategy import ProfileError, StrategyProfile
from .tolerances import PROBABILITY_TOL, probability_table_fault

__all__ = [
    "prior_to_dict",
    "prior_from_dict",
    "load_prior",
    "save_prior",
    "pairwise_from_loaded",
    "profile_to_dict",
    "profile_from_dict",
    "load_profile",
    "save_profile",
    "mechanism_from_dict",
    "load_mechanism",
    "save_mechanism",
    "json_text",
    "FormatError",
]


class FormatError(ValueError):
    """Raised for malformed input files."""


# the keys that save_mechanism writes, read back by mechanism_from_dict
_MECHANISM_FIELDS = tuple(MechanismConfig(group_a=(0,)).to_dict())


def _require(data: dict, key: str, path=None) -> object:
    if key not in data:
        where = f" in {path}" if path else ""
        raise FormatError(f"missing field {key!r}{where}")
    return data[key]


def prior_to_dict(prior: LatentStatePrior | PairwisePrior) -> dict:
    if isinstance(prior, LatentStatePrior):
        return {
            "signals": list(prior.space.labels),
            "kind": "latent",
            "state_probs": prior.state_probs.tolist(),
            "emissions": prior.emissions.tolist(),
        }
    return {
        "signals": list(prior.space.labels),
        "kind": "pairwise",
        "marginal": prior.marginal.tolist(),
        "conditional": prior.conditional.tolist(),
    }


def prior_from_dict(data: dict, path=None) -> LatentStatePrior | PairwisePrior:
    labels = _require(data, "signals", path)
    kind = data.get("kind", "pairwise")
    if kind == "latent":
        cls, keys = LatentStatePrior, ("state_probs", "emissions")
    elif kind == "pairwise":
        cls, keys = PairwisePrior, ("marginal", "conditional")
    else:
        raise FormatError(f"unknown prior kind {kind!r}")
    first, second = (_require(data, key, path) for key in keys)
    try:
        # a JSON string would pass as its characters, and numbers as labels
        if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
            raise PriorError(f"signals must be a list of strings, got {labels!r}")
        space = SignalSpace(tuple(labels))
        prior = cls(space, _real_array(first, keys[0]), _real_array(second, keys[1]))
        if kind == "pairwise" and probability_table_fault(prior.marginal, 0, PROBABILITY_TOL):
            raise PriorError("marginal is not a probability vector within tolerance")
        if kind == "pairwise" and probability_table_fault(prior.conditional, 0, PROBABILITY_TOL):
            raise PriorError("conditional columns are not stochastic within tolerance")
        return prior
    except (OverflowError, PriorError, TypeError, ValueError) as exc:
        raise FormatError(f"invalid prior{f' in {path}' if path else ''}: {exc}") from exc


def _real_array(value, key: str) -> np.ndarray:
    """``value`` as a float array.  Every entry must be a JSON number, though
    ``float`` reads a JSON string or boolean as one and NumPy reads null as
    NaN; the first entry that is not one is named."""
    leaves = [value]
    while (kinds := set(map(type, leaves))) == {list}:  # one nesting level a pass
        leaves = list(itertools.chain.from_iterable(leaves))
    kinds -= {float, int, list}  # a list beside numbers is left to NumPy's shape error
    if kinds:
        first = next(leaf for leaf in leaves if type(leaf) in kinds)
        raise FormatError(f"{key} entries must be numbers, got {first!r}")
    return np.asarray(value, dtype=float)


def _real(data: dict, key: str, default: float) -> float:
    value = data.get(key, default)
    if isinstance(value, (bool, str)):
        raise FormatError(f"{key} must be a number, got {value!r}")
    return float(value)


def pairwise_from_loaded(prior: LatentStatePrior | PairwisePrior, path=None) -> PairwisePrior:
    """Pairwise moments of a prior of either kind loaded from ``path``."""
    try:
        return from_latent(prior) if isinstance(prior, LatentStatePrior) else prior
    except PriorError as exc:
        raise FormatError(f"invalid latent prior{f' in {path}' if path else ''}: {exc}") from exc


def load_prior(path) -> LatentStatePrior | PairwisePrior:
    return prior_from_dict(_load_json(path), path)


def save_prior(prior: LatentStatePrior | PairwisePrior, path):
    _dump_json(prior_to_dict(prior), path)


def profile_to_dict(profile: StrategyProfile) -> dict:
    return {
        "n": profile.n,
        "agents": [
            {
                "theta": profile.thetas[i].tolist(),
                "predictions": profile.predictions[i].tolist(),
            }
            for i in range(profile.n)
        ],
    }


def profile_from_dict(data: dict, path=None) -> StrategyProfile:
    agents = _require(data, "agents", path)
    try:
        profile = StrategyProfile(
            _real_array([a["theta"] for a in agents], "theta"),
            _real_array([a["predictions"] for a in agents], "predictions"),
        )
    except (KeyError, OverflowError, ProfileError, TypeError, ValueError) as exc:
        raise FormatError(f"invalid profile{f' in {path}' if path else ''}: {exc}") from exc
    declared = data.get("n", profile.n)
    if declared != profile.n:
        raise FormatError(f"profile declares n={declared} but has {profile.n} agents")
    return profile


def load_profile(path) -> StrategyProfile:
    return profile_from_dict(_load_json(path), path)


def save_profile(profile: StrategyProfile, path):
    _dump_json(profile_to_dict(profile), path)


def mechanism_from_dict(data: dict, path=None) -> MechanismConfig:
    try:
        unknown = [key for key in data if key not in _MECHANISM_FIELDS]
        if unknown:
            raise FormatError(
                f"unknown fields {', '.join(map(repr, unknown))}; "
                f"a mechanism has {', '.join(_MECHANISM_FIELDS)}"
            )
        return MechanismConfig(
            alpha=_real(data, "alpha", 1.0),
            beta=_real(data, "beta", 0.05),
            rule=data.get("rule", "log"),
            variant=data.get("variant", "truthful"),
            group_a=tuple(data["groupA"]) if "groupA" in data else None,
        )
    except (OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"invalid mechanism{f' in {path}' if path else ''}: {exc}") from exc


def load_mechanism(path) -> MechanismConfig:
    return mechanism_from_dict(_load_json(path), path)


def save_mechanism(config: MechanismConfig, path):
    _dump_json(config.to_dict(), path)


def _load_json(path) -> dict:
    try:
        # bytes decoded at once: no newline translation, so a CR counts in the
        # offsets of a JSON error
        with open(path, "rb") as fh:
            data = json.loads(fh.read().decode("utf-8"))
    except FileNotFoundError:
        raise FormatError(f"no such file: {path}") from None
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError(f"expected a JSON object in {path}")
    return data


def json_text(data) -> str:
    """The text of every JSON file and JSON output: ``data`` on one line and a
    newline.  No ``indent``, which would send ``json`` to its pure-Python
    encoder (about 2.7 times slower on an n = 512, m = 3 profile under
    CPython 3.11)."""
    return json.dumps(data) + "\n"


def _dump_json(data: dict, path):
    Path(path).write_text(json_text(data), encoding="utf-8")
