"""Library argument errors share one type inside the ValidationError family."""

import numpy as np
import pytest

from meissner import (
    ArgumentError,
    BallSystem,
    OptimizationProblem,
    SmoothingChoice,
    ValidationError,
    build_meissner,
    mc_volume,
    optimize_meissner,
    optimize_pyramid,
    random_feasible_pyramid,
    regular_pyramid,
    regular_tetrahedron,
    tessellate,
    validate_vertex_set,
    width_samples,
    write_mesh,
)
from meissner import montecarlo, optimize
from meissner.sphere import f_property_check


def test_argument_error_is_a_validation_error_and_a_value_error():
    assert issubclass(ArgumentError, ValidationError)
    assert issubclass(ArgumentError, ValueError)


@pytest.mark.parametrize(
    "call",
    [
        lambda tmp: validate_vertex_set(np.zeros((4, 2))),
        lambda tmp: validate_vertex_set(np.zeros((3, 3))),
        lambda tmp: build_meissner(regular_tetrahedron(), SmoothingChoice((True,))),
        lambda tmp: regular_pyramid(0),
        lambda tmp: mc_volume(BallSystem.from_points(np.zeros((1, 3))), 0, seed=0),
        lambda tmp: mc_volume(BallSystem.from_points(np.zeros((1, 3))), 10, seed=0, threads=0),
        lambda tmp: mc_volume(BallSystem.from_points(np.zeros((1, 3))), 10, seed=0, threads=-3),
        lambda tmp: width_samples(BallSystem.from_points(np.zeros((1, 3))), 0, seed=0),
        # a count must be an integer: a float is refused, not truncated or run as given
        lambda tmp: mc_volume(BallSystem.from_points(np.zeros((1, 3))), 8192.0, seed=0),
        lambda tmp: mc_volume(BallSystem.from_points(np.zeros((1, 3))), 10, seed=0, threads=2.0),
        lambda tmp: width_samples(BallSystem.from_points(np.zeros((1, 3))), 10.0, seed=0),
        lambda tmp: optimize_pyramid(4),
        lambda tmp: tessellate(build_meissner(regular_tetrahedron()), 9),
        lambda tmp: write_mesh(
            tessellate(build_meissner(regular_tetrahedron()), 0), tmp / "x.stl", fmt="stl"
        ),
        lambda tmp: optimize_pyramid(5, restarts=0),
        lambda tmp: optimize_meissner(OptimizationProblem.from_vertex_set(regular_tetrahedron()), restarts=0),
        lambda tmp: optimize_pyramid(5, restarts=2.0),
        # a tolerance outside (0, 1) would accept this set of diameter 2 * sqrt(2), or no set at all
        lambda tmp: validate_vertex_set([[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2]], tol=2.0),
        lambda tmp: validate_vertex_set(regular_tetrahedron().points, tol=1.0),
        lambda tmp: validate_vertex_set(regular_tetrahedron().points, tol=0.0),
        lambda tmp: validate_vertex_set(regular_tetrahedron().points, tol=-1.0),
        lambda tmp: validate_vertex_set(regular_tetrahedron().points, tol=float("nan")),
        # nor is a bool, which Python counts an int: True ran as one sample, thread or restart
        lambda tmp: mc_volume(BallSystem.from_points(np.zeros((1, 3))), True, seed=0),
        lambda tmp: mc_volume(BallSystem.from_points(np.zeros((1, 3))), 10, seed=0, threads=True),
        lambda tmp: width_samples(BallSystem.from_points(np.zeros((1, 3))), True, seed=0),
        lambda tmp: optimize_pyramid(5, restarts=True),
        lambda tmp: optimize_meissner(OptimizationProblem.from_vertex_set(regular_tetrahedron()), restarts=True),
    ],
)
def test_bad_arguments_raise_argument_error(call, tmp_path):
    with pytest.raises(ArgumentError):
        call(tmp_path)


@pytest.mark.parametrize("seed", [-1, 1.5, True, False])
@pytest.mark.parametrize(
    "call",
    [
        lambda seed: mc_volume(BallSystem.from_points(np.zeros((1, 3))), 10, seed=seed),
        lambda seed: width_samples(BallSystem.from_points(np.zeros((1, 3))), 4, seed=seed),
        lambda seed: random_feasible_pyramid(2, seed),
        lambda seed: optimize_meissner(OptimizationProblem.from_vertex_set(regular_tetrahedron()), 2, seed),
    ],
    ids=["mc_volume", "width_samples", "random_feasible_pyramid", "optimize_meissner"],
)
def test_random_streams_take_non_negative_integer_seeds(call, seed):
    with pytest.raises(ArgumentError, match="seed"):
        call(seed)


def test_a_bad_seed_is_rejected_before_any_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("work started before the seed was checked")

    monkeypatch.setattr(montecarlo, "_sampling_box", refuse)
    monkeypatch.setattr(optimize, "_restart", refuse)
    with pytest.raises(ArgumentError, match="seed"):
        mc_volume(BallSystem.from_points(np.zeros((1, 3))), 10, seed=-1)
    with pytest.raises(ArgumentError, match="seed"):
        optimize_meissner(OptimizationProblem.from_vertex_set(regular_tetrahedron()), 2, seed=-1)


def test_a_single_restart_draws_no_stream_and_takes_any_seed():
    report = optimize_meissner(OptimizationProblem.from_vertex_set(regular_tetrahedron()), 1, seed=-1)
    assert len(report.records) == 1


@pytest.mark.parametrize("grid", [0, 1])
def test_f_property_check_needs_two_grid_points(grid):
    with pytest.raises(ArgumentError, match="grid"):
        f_property_check(grid)
