"""Tests for scenario loading and validation."""

import copy
import importlib.util
import inspect
import itertools
import json
import logging
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from rigidflock.engine import RunConfig, SimulationDiverged, run, step_count
from rigidflock.scenario import (
    _KNOWN_KEYS,
    Scenario,
    ScenarioError,
    _pcg64,
    _seeded_poses,
    _uniform,
    bundled_scenario_path,
    load_scenario,
    scenario_from_dict,
)

ROOT = Path(__file__).resolve().parents[1]


def flock_dict():
    with open(bundled_scenario_path("pentagon_flock")) as fh:
        return json.load(fh)


def intercept_dict():
    with open(bundled_scenario_path("pentagon_intercept")) as fh:
        return json.load(fh)


def test_bundled_scenarios_load():
    for name in ("pentagon_flock", "pentagon_intercept"):
        scn = load_scenario(bundled_scenario_path(name))
        assert scn.name == name
        assert scn.n in (5, 6)
    with pytest.raises(FileNotFoundError):
        bundled_scenario_path("no_such_scenario")


def test_flock_scenario_fields():
    scn = load_scenario(bundled_scenario_path("pentagon_flock"))
    assert scn.mode == "flock"
    assert scn.v0_access == (1,)
    assert scn.gamma0 == pytest.approx(0.045)
    assert scn.gains.alpha == pytest.approx(0.05)
    assert scn.dt == pytest.approx(1e-3)
    assert scn.duration == pytest.approx(40.0)
    # Distances derive from the embedded pentagon.
    side = 0.11755705045849463
    assert scn.target.distances.min() == pytest.approx(side)


def test_intercept_scenario_fields():
    scn = load_scenario(bundled_scenario_path("pentagon_intercept"))
    assert scn.mode == "intercept"
    assert scn.leader == 6
    assert scn.gains.k_t == pytest.approx(1.0)
    # Default rate bounds derive from the target circle (r = 0.3, w = 0.2).
    assert scn.gamma_t1 == pytest.approx(0.3 * 0.2**2)
    assert scn.gamma_t2 >= 2 * 0.3 * 0.2
    # Leader's initial velocity estimate equals the target velocity.
    np.testing.assert_allclose(scn.initial_v_t_hat[-1], scn.signal.state(0.0)[1])


@pytest.mark.parametrize("mutate,pointer", [
    (lambda d: d.pop("mode"), "mode"),
    (lambda d: d.update(mode="chase"), "mode"),
    (lambda d: d.update(agents=2), "agents"),
    (lambda d: d.update(agents=2.5), "agents"),
    (lambda d: d["edges"].append([1, 1]), "edges"),
    (lambda d: d.update(target_positions_m=[[0.0, 0.0]] * 3), "target_positions_m"),
    (lambda d: d["gains"].update(k_a=-1.0), "gains.k_a"),
    (lambda d: d["gains"].pop("c"), "gains.c"),
    pytest.param(lambda d: d["gains"].update(c="abc"), "gains.c",
                 id="gains.c-str"),
    pytest.param(lambda d: d["gains"].update(c={}), "gains.c",
                 id="gains.c-dict"),
    pytest.param(lambda d: d["gains"].update(c=0.0), "gains.c",
                 id="gains.c-zero"),
    # A list holds one gain per agent: it is not broadcast.
    pytest.param(lambda d: d["gains"].update(c=[10.0]), "gains.c",
                 id="gains.c-one-element-list"),
    pytest.param(lambda d: d["gains"].update(c=[10.0] * 6), "gains.c",
                 id="gains.c-too-long"),
    pytest.param(lambda d: d["gains"].update(c=-1.0), "gains.c",
                 id="gains.c-negative"),
    pytest.param(lambda d: d["gains"].update(c=float("inf")), "gains.c",
                 id="gains.c-inf-not-sim.dt_s"),
    # gains.c follows the JSON-number rule of every other gain.
    pytest.param(lambda d: d["gains"].update(c="10"), "gains.c",
                 id="gains.c-numeric-str"),
    pytest.param(lambda d: d["gains"].update(c=True), "gains.c",
                 id="gains.c-bool"),
    pytest.param(lambda d: d["gains"].update(c=["10", 10, 10, 10, 10]), "gains.c",
                 id="gains.c-list-with-numeric-str"),
    pytest.param(lambda d: d["gains"].update(c=[10, 10, True, 10, 10]), "gains.c",
                 id="gains.c-list-with-bool"),
    (lambda d: d["gains"].update(alpha=0.0), "gains.alpha"),
    (lambda d: d["sim"].update(dt_s=-1.0), "sim.dt_s"),
    (lambda d: d["sim"].update(duration_s=-5.0), "sim.duration_s"),
    (lambda d: d["sim"].update(sample_every=0), "sim.sample_every"),
    (lambda d: d["sim"].update(dt_s=0.5), "sim.dt_s"),  # dt * c >= 1
    # A run ends on a logged row: dt 1e-3, sample_every 10.
    pytest.param(lambda d: d["sim"].update(duration_s=0.0025), "sim.duration_s",
                 id="sim.duration_s-half-step"),
    pytest.param(lambda d: d["sim"].update(duration_s=0.002), "sim.duration_s",
                 id="sim.duration_s-between-rows"),
    pytest.param(lambda d: d["sim"].update(sample_every=3), "sim.duration_s",
                 id="sim.sample_every-not-dividing"),
    (lambda d: d.update(anchor_sign=2.0), "anchor_sign"),
    pytest.param(lambda d: d.update(anchor_sign="x"), "anchor_sign",
                 id="anchor_sign-str"),
    (lambda d: d.update(smoothing_epsilon=-0.5), "smoothing_epsilon"),
    pytest.param(lambda d: d.update(smoothing_epsilon="x"), "smoothing_epsilon",
                 id="smoothing_epsilon-str"),
    (lambda d: d.update(v0_access=[]), "v0_access"),
    (lambda d: d.update(v0_access=[1, 1]), "v0_access"),
    (lambda d: d.update(v0_access=[9]), "v0_access"),
    # A list element once reached set() and raised TypeError.
    pytest.param(lambda d: d.update(v0_access=[[0]]), "v0_access",
                 id="v0_access-list-element"),
    pytest.param(lambda d: d.update(v0_access=[[1, 2]]), "v0_access",
                 id="v0_access-pair-element"),
    (lambda d: d.update(gamma0=-1.0), "gamma0"),
    pytest.param(lambda d: d.update(gamma0="x"), "gamma0",
                 id="gamma0-str"),
    pytest.param(lambda d: d.update(gamma0=[1]), "gamma0",
                 id="gamma0-list"),
    (lambda d: d.update(flock_velocity={"kind": "warp"}), "flock_velocity"),
    pytest.param(lambda d: d["flock_velocity"].update(radius_m=[1, 2]),
                 "flock_velocity", id="flock_velocity-radius_m-list"),
    pytest.param(lambda d: d["flock_velocity"].update(omega_radps=None),
                 "flock_velocity", id="flock_velocity-omega_radps-null"),
    pytest.param(lambda d: d["edges"].append([1]), "edges",
                 id="edges-singleton"),
    # The reference path follows the same number rule as the rest.
    pytest.param(lambda d: d["flock_velocity"].update(radius_m="0.3"),
                 "flock_velocity", id="flock_velocity-radius_m-numeric-str"),
    pytest.param(lambda d: d["flock_velocity"].update(omega_radps=True),
                 "flock_velocity", id="flock_velocity-omega_radps-bool"),
    pytest.param(lambda d: d["flock_velocity"].update(phase_rad="1"),
                 "flock_velocity", id="flock_velocity-phase_rad-numeric-str"),
    pytest.param(lambda d: d["flock_velocity"].update(center_m=["0", True]),
                 "flock_velocity", id="flock_velocity-center_m-str-and-bool"),
    pytest.param(lambda d: d["flock_velocity"].update(radius_m=10**400),
                 "flock_velocity", id="flock_velocity-radius_m-int-beyond-float"),
    # Finite fields whose speed or acceleration bound overflows.
    pytest.param(lambda d: d.update(flock_velocity={
        "kind": "waypoints", "points_m": [[0, 0], [1, 1]], "times_s": [0, 1e-320]}),
                 "flock_velocity", id="flock_velocity-waypoints-speed-overflows"),
    pytest.param(lambda d: d.update(flock_velocity={
        "kind": "circle", "radius_m": 1e308, "omega_radps": 1e10}),
                 "flock_velocity", id="flock_velocity-circle-bounds-overflow"),
    # A number is a JSON number: booleans and numeric strings are rejected.
    pytest.param(lambda d: d["gains"].update(k_a="6"), "gains.k_a",
                 id="gains.k_a-numeric-str"),
    pytest.param(lambda d: d["gains"].update(k_a=True), "gains.k_a",
                 id="gains.k_a-bool"),
    pytest.param(lambda d: d["gains"].update(k_a=10**400), "gains.k_a",
                 id="gains.k_a-int-beyond-float"),
    pytest.param(lambda d: d["target_positions_m"][0].__setitem__(0, -10**400),
                 "target_positions_m", id="target_positions_m-int-beyond-float"),
    pytest.param(lambda d: d["sim"].update(dt_s="0.001"), "sim.dt_s",
                 id="sim.dt_s-numeric-str"),
    pytest.param(lambda d: d.update(smoothing_epsilon=False), "smoothing_epsilon",
                 id="smoothing_epsilon-bool"),
    pytest.param(lambda d: d.update(anchor_sign=True), "anchor_sign",
                 id="anchor_sign-bool"),
    pytest.param(lambda d: d.update(anchor_sign="1"), "anchor_sign",
                 id="anchor_sign-numeric-str"),
    pytest.param(lambda d: d["target_positions_m"][0].__setitem__(0, True),
                 "target_positions_m", id="target_positions_m-bool"),
    pytest.param(lambda d: d["target_positions_m"][0].__setitem__(1, "0.1"),
                 "target_positions_m", id="target_positions_m-numeric-str"),
    pytest.param(lambda d: d.update(target_positions_m=[[0.0, 0.0]] * 4 + [[0.0]]),
                 "target_positions_m", id="target_positions_m-ragged"),
    pytest.param(lambda d: d["edges"].append([1.5, 2]), "edges",
                 id="edges-float-id"),
    pytest.param(lambda d: d["edges"].append([True, 2]), "edges",
                 id="edges-bool-id"),
    (lambda d: d.update(initial={}), "initial"),
    (lambda d: d["initial"].update(seed=-3), "initial.seed"),
    (lambda d: d["initial"].update(perturbation_radius_m=-0.1),
     "initial.perturbation_radius_m"),
    pytest.param(lambda d: d["initial"].update(perturbation_radius_m="x"),
                 "initial.perturbation_radius_m",
                 id="initial.perturbation_radius_m-str"),
    pytest.param(lambda d: d["sim"].update(sample_every=1.5),
                 "sim.sample_every: must be an integer", id="sim.sample_every-float"),
    pytest.param(lambda d: d["sim"].update(sample_every=True),
                 "sim.sample_every: must be an integer", id="sim.sample_every-bool"),
    pytest.param(lambda d: d.update(gains=5), "gains: must be an object",
                 id="gains-not-an-object"),
    # Non-positive distances were once reported under target_positions_m.
    pytest.param(lambda d: d.update(target_distances_m=[0.0] * len(d["edges"])),
                 "^target_distances_m: entries must be positive",
                 id="target_distances_m-zero"),
    pytest.param(lambda d: d.update(target_distances_m=[-1.0] * len(d["edges"])),
                 "^target_distances_m: entries must be positive",
                 id="target_distances_m-negative"),
    # json.load reads NaN as a float.
    pytest.param(lambda d: d.update(initial={"poses": [[float("nan"), 0.0, 0.0]] * 5}),
                 "initial.poses: entries must be finite", id="initial.poses-nan"),
])
def test_flock_validation_errors_name_the_field(mutate, pointer):
    d = flock_dict()
    mutate(d)
    with pytest.raises(ScenarioError, match=pointer.replace(".", r"\.")):
        scenario_from_dict(d)


def test_intercept_validation_errors():
    d = intercept_dict()
    d["gains"].pop("k_t")
    with pytest.raises(ScenarioError, match=r"gains\.k_t"):
        scenario_from_dict(d)
    for gain in ("k_a", "k_t", "alpha1", "alpha2"):
        d = intercept_dict()
        d["gains"][gain] = 0
        with pytest.raises(ScenarioError, match=rf"gains\.{gain}"):
            scenario_from_dict(d)
    for field in ("gamma_t1", "gamma_t2"):
        d = intercept_dict()
        d[field] = "x"
        with pytest.raises(ScenarioError, match=field):
            scenario_from_dict(d)
    # anchor_sign is checked in both modes.
    d = intercept_dict()
    d["anchor_sign"] = 2.0
    with pytest.raises(ScenarioError, match=r"^anchor_sign: "):
        scenario_from_dict(d)
    d = intercept_dict()
    d.pop("target")
    with pytest.raises(ScenarioError, match="target"):
        scenario_from_dict(d)
    # Leader's desired position must sit inside the followers' hull.
    d = intercept_dict()
    d["target_positions_m"][-1] = [5.0, 5.0]
    with pytest.raises(ScenarioError, match="hull"):
        scenario_from_dict(d)


@pytest.mark.parametrize("target", [
    pytest.param({"radius_m": "0.3"}, id="target-radius_m-numeric-str"),
    pytest.param({"omega_radps": True}, id="target-omega_radps-bool"),
    pytest.param({"phase_rad": "1"}, id="target-phase_rad-numeric-str"),
    pytest.param({"center_m": ["0", True]}, id="target-center_m-str-and-bool"),
    pytest.param({"radius_m": 10**400}, id="target-radius_m-int-beyond-float"),
    pytest.param({"kind": "line", "start_m": [0.0, "1"], "velocity_mps": [0.1, 0.0]},
                 id="target-line-start_m-numeric-str"),
    pytest.param({"kind": "line", "start_m": [0.0, 0.0], "velocity_mps": [True, 0.0]},
                 id="target-line-velocity_mps-bool"),
    pytest.param({"kind": "sine", "start_m": [0.0, 0.0], "velocity_mps": [0.1, 0.0],
                  "amplitude_m": True, "omega_radps": 1.0},
                 id="target-sine-amplitude_m-bool"),
    pytest.param({"kind": "sine", "start_m": [0.0, 0.0], "velocity_mps": [0.1, 0.0],
                  "amplitude_m": 0.1, "omega_radps": "1"},
                 id="target-sine-omega_radps-numeric-str"),
    pytest.param({"kind": "waypoints", "points_m": [[0.0, 0.0], [1.0, "0"]],
                  "times_s": [0.0, 10.0]}, id="target-waypoints-points_m-numeric-str"),
    pytest.param({"kind": "waypoints", "points_m": [[0.0, 0.0], [1.0, 0.0]],
                  "times_s": [False, 10.0]}, id="target-waypoints-times_s-bool"),
    # Without explicit gamma_t1/gamma_t2 these once blamed gamma_t2.
    pytest.param({"radius_m": 1e308, "omega_radps": 1e10},
                 id="target-circle-bounds-overflow"),
    pytest.param({"kind": "waypoints", "points_m": [[0, 0], [1, 1]],
                  "times_s": [0, 1e-320]}, id="target-waypoints-speed-overflows"),
])
def test_intercept_target_errors_name_the_field(target):
    d = intercept_dict()
    d["target"].update(target)
    with pytest.raises(ScenarioError, match=r"^target: "):
        scenario_from_dict(d)


@pytest.mark.parametrize("target", [
    pytest.param({"radius_m": 1, "omega_radps": 0, "phase_rad": -2,
                  "center_m": [0, 1]}, id="circle-ints"),
    pytest.param({"kind": "line", "start_m": [0, 0], "velocity_mps": [0.1, 0]},
                 id="line"),
    pytest.param({"kind": "sine", "start_m": [0, 0], "velocity_mps": [0.1, 0],
                  "amplitude_m": 0.1, "omega_radps": 1}, id="sine"),
    pytest.param({"kind": "waypoints", "points_m": [[0, 0], [1, 0.5]],
                  "times_s": [0, 10]}, id="waypoints"),
])
def test_intercept_target_accepts_json_numbers(target):
    d = intercept_dict()
    d["target"].update(target)
    assert scenario_from_dict(d).signal.sup_speed() >= 0.0


def test_distances_override_must_match_positions():
    d = flock_dict()
    d["target_distances_m"] = [0.5] * len(d["edges"])
    with pytest.raises(ScenarioError, match="target_positions_m"):
        scenario_from_dict(d)


def test_non_rigid_formation_rejected():
    d = flock_dict()
    d["agents"] = 4
    d["edges"] = [[1, 2], [2, 3], [3, 4], [1, 4]]
    d["target_positions_m"] = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    with pytest.raises(ScenarioError, match="rigid"):
        scenario_from_dict(d)


def test_explicit_poses_accepted():
    d = flock_dict()
    n = d["agents"]
    poses = [[p[0], p[1], 0.1] for p in d["target_positions_m"]]
    d["initial"] = {"poses": poses}
    scn = scenario_from_dict(d)
    np.testing.assert_allclose(scn.initial_poses, poses)
    assert scn.seed is None
    # Bad shape is caught with a pointer.
    d["initial"] = {"poses": [[0.0, 0.0]] * n}
    with pytest.raises(ScenarioError, match=r"initial\.poses"):
        scenario_from_dict(d)


def test_seed_override():
    d = flock_dict()
    a = scenario_from_dict(d, seed=1)
    b = scenario_from_dict(d, seed=1)
    c = scenario_from_dict(d, seed=2)
    np.testing.assert_array_equal(a.initial_poses, b.initial_poses)
    assert np.abs(a.initial_poses - c.initial_poses).max() > 0.0
    # Override conflicts with explicit poses.
    d["initial"] = {"poses": [[0.0, 0.0, 0.0]] * d["agents"]}
    with pytest.raises(ScenarioError, match="conflicts"):
        scenario_from_dict(d, seed=1)


def test_seeded_poses_stay_within_radius():
    d = flock_dict()
    radius = d["initial"]["perturbation_radius_m"]
    anchor = np.array(d["target_positions_m"])
    for seed in (0, 1, 2, 3):
        scn = scenario_from_dict(d, seed=seed)
        offsets = scn.initial_poses[:, :2] - anchor
        assert np.hypot(offsets[:, 0], offsets[:, 1]).max() <= radius + 1e-12
        assert np.all(np.abs(scn.initial_poses[:, 2]) <= np.pi)


# float.hex of the bundled scenarios' seeded initial_poses: a change to
# the seeded stream changes every seeded run, so it fails here first.
PINNED_POSES = {
    "pentagon_flock": [
        ["0x1.6950c9a4ba8eap-5", "0x1.f8daa7792b2e3p-4", "-0x1.6356ce0af8600p-1"],
        ["-0x1.b99c6315cca0fp-4", "0x1.e3e83e92a23a2p-5", "-0x1.b1f0cbb258650p+0"],
        ["-0x1.37256473a1424p-6", "-0x1.a58f91376740cp-4", "-0x1.0bd8821730fbep+1"],
        ["0x1.39307551cb616p-5", "-0x1.f2ce6350f04c4p-4", "-0x1.16b91402cce60p+1"],
        ["0x1.5865df8679e18p-4", "0x1.43c704ccd156ep-4", "0x1.7d4983eaa1606p+1"],
    ],
    "pentagon_intercept": [
        ["0x1.8465d06fa7e49p-6", "0x1.9b34ed9ec3570p-3", "-0x1.8a4a88d09da88p+0"],
        ["-0x1.6c5e392b3a11fp-3", "0x1.286eba7775bf1p-5", "-0x1.6160c79cc6d40p-2"],
        ["-0x1.c1f8ac4de770ap-4", "-0x1.7f22daaf297bbp-3", "0x1.d436f2ce07300p-6"],
        ["0x1.a86115ffe56e4p-4", "-0x1.4589eb5f506b1p-3", "0x1.583373e510d38p-2"],
        ["0x1.7a8af2474372cp-3", "0x1.3cc43b2115ad9p-4", "0x1.8e8145e6fb4aap+1"],
        ["-0x1.4674a7025dbcfp-8", "0x1.c416429f43e58p-6", "0x1.d6bed00d42054p+0"],
    ],
}


@pytest.mark.parametrize("name", sorted(PINNED_POSES))
def test_bundled_seeded_poses_are_pinned(name):
    poses = load_scenario(bundled_scenario_path(name)).initial_poses
    assert [[float(v).hex() for v in row] for row in poses] == PINNED_POSES[name]


# The (low, high) pairs _seeded_poses draws with, in its order.
UNIFORM_RANGES = [(0.0, 1.0), (0.0, 2.0 * np.pi), (-np.pi, np.pi)]


def assert_stream_is_numpys(seed, n):
    raw = np.random.PCG64(seed).random_raw(n)
    assert list(itertools.islice(_pcg64(seed), n)) == raw.tolist()
    for low, high in UNIFORM_RANGES:
        np.testing.assert_array_equal(
            _uniform(_pcg64(seed), low, high, n),
            np.random.default_rng(seed).uniform(low, high, size=n))
    # The poses as numpy's Generator drew them, one stream for all three.
    rng = np.random.default_rng(seed)
    u, ang, theta = (rng.uniform(low, high, size=n) for low, high in UNIFORM_RANGES)
    anchor = np.linspace(-1.0, 1.0, 2 * n).reshape(n, 2)
    expected = np.column_stack([anchor[:, 0] + 0.1 * np.sqrt(u) * np.cos(ang),
                                anchor[:, 1] + 0.1 * np.sqrt(u) * np.sin(ang),
                                theta])
    np.testing.assert_array_equal(_seeded_poses(anchor, seed, 0.1), expected)


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 2, 2**32 - 1, 2**32,
                                  2**64 + 3, 2**100 + 17])
def test_seeded_stream_is_numpys_default_stream(seed):
    assert_stream_is_numpys(seed, 300)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**130 - 1), n=st.integers(1, 300))
def test_seeded_stream_is_numpys_default_stream_for_any_seed(seed, n):
    assert_stream_is_numpys(seed, n)


def test_duration_and_dt_overrides():
    scn = load_scenario(bundled_scenario_path("pentagon_flock"),
                        duration=2.0, dt=5e-4)
    assert scn.duration == 2.0
    assert scn.dt == 5e-4


def test_leader_estimate_row_forced(caplog):
    d = intercept_dict()
    n = d["agents"]
    d["initial"]["v_t_hat"] = [[0.7, 0.7]] * n
    with caplog.at_level(logging.WARNING, logger="rigidflock.scenario"):
        scn = scenario_from_dict(d)
    vt0 = scn.signal.state(0.0)[1]
    np.testing.assert_allclose(scn.initial_v_t_hat[-1], vt0)
    np.testing.assert_allclose(scn.initial_v_t_hat[0], [0.7, 0.7])
    assert any("leader row" in r.message for r in caplog.records)


def dominate_warnings(caplog, d):
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="rigidflock.scenario"):
        scenario_from_dict(d)
    return [r.getMessage() for r in caplog.records if "does not dominate" in r.getMessage()]


def test_weak_gain_warns_but_loads(caplog):
    d = flock_dict()
    d["gains"]["alpha"] = 1e-6
    with caplog.at_level(logging.WARNING, logger="rigidflock.scenario"):
        scn = scenario_from_dict(d)
    assert isinstance(scn, Scenario)
    assert any("dominate" in r.message for r in caplog.records)
    # One bound, one warning: without gamma0, gamma0 is the velocity's bound.
    del d["gamma0"]
    assert len(dominate_warnings(caplog, d)) == 1
    d["gamma0"], d["gains"]["alpha"] = 0.001, 0.005
    [warning] = dominate_warnings(caplog, d)
    assert "flock_velocity's acceleration bound = 0.0135" in warning


def intercept_with_leader_row_override():
    d = intercept_dict()
    d["initial"]["v_t_hat"] = [[0.7, 0.7]] * d["agents"]
    return d


@pytest.mark.parametrize("make, gain", [
    (flock_dict, "alpha"), (intercept_dict, "alpha2"),
    pytest.param(intercept_with_leader_row_override, "k_a",
                 id="intercept_dict-leader-row-k_a")])
def test_rejected_file_logs_no_gain_warning(caplog, make, gain):
    d = make()
    d["gains"][gain] = 0
    with caplog.at_level(logging.WARNING, logger="rigidflock.scenario"):
        with pytest.raises(ScenarioError, match=rf"^gains\.{gain}: "):
            scenario_from_dict(d)
    assert not [r for r in caplog.records if "does not dominate" in r.getMessage()
                or "leader row" in r.getMessage()]


def test_unknown_field_warns(caplog):
    d = flock_dict()
    d["frobnicate"] = 1
    with caplog.at_level(logging.WARNING, logger="rigidflock.scenario"):
        scenario_from_dict(d)
    assert any("unknown field" in r.message for r in caplog.records)


@pytest.mark.parametrize("make, obj, key", [
    # Each of these once loaded without a word; the first two ran on the
    # default of the field they misspell.
    (flock_dict, "sim", "sample_evry"),
    (intercept_dict, "initial", "v_t_hatt"),
    (flock_dict, "initial", "v_f_hatt"),
    (intercept_dict, "gains", "alpha_1"),
])
def test_unknown_nested_field_warns_with_its_path(caplog, make, obj, key):
    d = make()
    d[obj][key] = 1
    with caplog.at_level(logging.WARNING, logger="rigidflock.scenario"):
        scenario_from_dict(d)
    assert [r.getMessage() for r in caplog.records] == [
        f"scenario: ignoring unknown field '{obj}.{key}'"]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shipped_and_benchmark_scenarios_warn_of_no_field(caplog):
    # A field that every mode reads stays known in both modes.
    docs = [flock_dict(), intercept_dict(), flock_dict()]
    docs[2]["initial"] = {"poses": [[0.0, 0.0, 0.0]] * docs[2]["agents"],
                          "v_f_hat": [[0.0, 0.0]] * docs[2]["agents"]}
    docs += [make(ROOT, seed) for make in _workloads().GENERATORS.values()
             for seed in (3, 11)]
    with caplog.at_level(logging.WARNING, logger="rigidflock.scenario"):
        for d in docs:
            scenario_from_dict(d)
    assert not [r for r in caplog.records if "unknown field" in r.getMessage()]


def test_scenario_is_its_run_config():
    # Beyond RunConfig, a Scenario declares only what the run report reads.
    assert issubclass(Scenario, RunConfig)
    assert list(inspect.get_annotations(Scenario)) == [
        "name", "notes", "seed", "target", "v0_access", "gamma0",
        "gamma_t1", "gamma_t2"]
    for name in ("pentagon_flock", "pentagon_intercept"):
        scn = load_scenario(bundled_scenario_path(name))
        assert scn.to_run_config() is scn


@pytest.mark.parametrize("name, keys", [
    ("pentagon_flock", ["k_a", "c", "alpha"]),
    ("pentagon_intercept", ["k_a", "k_t", "c", "alpha1", "alpha2"]),
])
def test_gains_keep_the_summary_order(name, keys):
    # summary.json writes the "gains" block in this order.
    scn = load_scenario(bundled_scenario_path(name))
    assert list(vars(scn.gains)) == keys


def test_run_config_round_trip_runs():
    scn = load_scenario(bundled_scenario_path("pentagon_flock"), duration=0.1)
    log = run(scn.to_run_config())
    assert log.rows == 11


def test_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ScenarioError, match="JSON"):
        load_scenario(path)
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ScenarioError, match="^scenario: top level must be a JSON object$"):
        load_scenario(path)


def nested_scenario_text(field, depth, inner):
    """pentagon_flock's JSON text with ``field`` (a dotted path) set to the
    JSON text ``inner`` inside ``depth`` lists."""
    d = flock_dict()
    *parents, key = field.split(".")
    obj = d
    for parent in parents:
        obj = obj[parent]
    obj[key] = "@"
    return json.dumps(d).replace('"@"', "[" * depth + inner + "]" * depth)


def test_json_nested_beyond_the_decoder_is_a_scenario_error(tmp_path):
    # The decoder's RecursionError once escaped as a traceback.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    with pytest.raises(ScenarioError,
                       match=f"^{re.escape(str(path))}: JSON nested too deeply"):
        load_scenario(path)


@pytest.mark.parametrize("field, inner, error", [
    pytest.param("target_positions_m", json.dumps(flock_dict()["target_positions_m"]),
                 "must be a numeric array", id="target_positions_m"),
    pytest.param("target_distances_m", json.dumps([1.0] * len(flock_dict()["edges"])),
                 "must be a numeric array", id="target_distances_m"),
    pytest.param("gains.c", "1.0", "heading gains c must be one number or one per agent",
                 id="gains.c-number"),
    pytest.param("gains.c", '"x"', "must be a number or a list of numbers",
                 id="gains.c-string"),
])
def test_deeply_nested_array_is_a_scenario_error(tmp_path, field, inner, error):
    # 500 levels decode, but once exhausted the array check's recursion.
    path = tmp_path / "nested.json"
    path.write_text(nested_scenario_text(field, 500, inner), encoding="utf-8")
    with pytest.raises(ScenarioError, match=f"^{re.escape(field)}: {error}"):
        load_scenario(path)


# Values the boundary fuzz writes into a scenario; _DELETE removes the field.
_DELETE = object()
_FUZZ_VALUES = [None, True, False, 0, 1, -1, 1e308, -1e308, 2**70, "x", [], [[0]],
                [[1, 2]], {}, _DELETE]
# Schema paths a ScenarioError message may start with.
_FIELDS = {prefix + key for prefix, keys in _KNOWN_KEYS.items() for key in keys}
_FUZZ_MAX_STEPS = 1000  # sim.dt_s = 1e-9 is valid: 50M steps for 0.05 s


def _fields(doc, path=()):
    """The path of every value below the top level of a JSON document."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


def _has(parent, key):
    if isinstance(parent, dict):
        return key in parent
    return isinstance(parent, list) and isinstance(key, int) and key < len(parent)


@st.composite
def _mutated_scenario(draw):
    doc = draw(st.sampled_from([flock_dict, intercept_dict]))()
    paths = list(_fields(doc))
    for path in draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3)):
        value = draw(st.sampled_from(_FUZZ_VALUES))
        parent = doc
        for key in path[:-1]:  # an earlier edit may have replaced a parent
            parent = parent[key] if _has(parent, key) else None
        if not _has(parent, path[-1]):
            continue
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
    return doc


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_mutated_scenario())
def test_scenario_boundary_fuzz(doc):
    # Every file either fails with a ScenarioError that names its field,
    # or runs in both forms to the same status, with no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            scn = scenario_from_dict(doc, duration=0.05)
        except ScenarioError as exc:
            assert str(exc).split(": ")[0] in _FIELDS, str(exc)
            return
        if step_count(scn.duration, scn.dt, scn.sample_every) > _FUZZ_MAX_STEPS:
            event("over the step cap")
            return
        ends = []
        for form in (None, "numpy"):
            try:
                run(scn, force_kernel=form)
                ends.append("ok")
            except SimulationDiverged as exc:
                # Not the agent: near the float limit the numpy law can
                # blame another one at the same step (FOUND in CHANGES.md).
                ends.append(f"diverged at {exc.time_s!r} s")
        assert ends[0] == ends[1], ends
        event("ran" if ends[0] == "ok" else "diverged")
