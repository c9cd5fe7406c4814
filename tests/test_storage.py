"""CSV and manifest IO: exact roundtrips and byte-level determinism."""

import json
import os
import signal

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from discflux import storage
from discflux.entropy import TraceField
from discflux.solver import Field, Grid, Trajectory


def _trajectory(seed=0, counts=(5, 4), n_times=3):
    grid = Grid((-0.5, 0.0), (0.5, 1.0), counts)
    rng = np.random.default_rng(seed)
    states = rng.uniform(0.0, 1.0, (n_times,) + counts)
    times = tuple(0.05 * i for i in range(n_times))
    return Trajectory(grid=grid, times=times, states=states, manifest={})


def test_field_csv_roundtrip_is_exact(tmp_path):
    grid = Grid((-0.5,), (0.5,), (16,))
    values = np.random.default_rng(1).uniform(0.0, 1.0, 16)
    field = Field(grid, values, 0.125)
    path = tmp_path / "field.csv"
    storage.write_field_csv(path, field)

    back = storage.read_field_csv(path)
    assert back.grid == grid
    assert back.time == 0.125
    assert_array_equal(back.values, values)


def test_trajectory_csv_roundtrip_2d(tmp_path):
    traj = _trajectory()
    path = tmp_path / "traj.csv"
    storage.write_trajectory_csv(path, traj)

    header = path.read_text().splitlines()[0]
    assert header == "t,x1,x2,u"

    back = storage.read_trajectory_csv(path)
    assert back.grid == traj.grid
    assert back.times == traj.times
    assert_array_equal(back.states, traj.states)


def test_read_field_rejects_multiple_times(tmp_path):
    path = tmp_path / "traj.csv"
    storage.write_trajectory_csv(path, _trajectory(counts=(6, 5)))
    with pytest.raises(ValueError, match="single-time"):
        storage.read_field_csv(path)


def test_read_rejects_malformed_grids(tmp_path):
    skewed = tmp_path / "skewed.csv"
    skewed.write_text("t,x1,u\n0.0,0.0,1.0\n0.0,0.1,1.0\n0.0,0.35,1.0\n")
    with pytest.raises(ValueError, match="uniform"):
        storage.read_field_csv(skewed)

    # drop one row from the second time only: the grid is still inferable
    # from the first time, so the hole is detectable
    traj = _trajectory(counts=(8, 4))
    full = tmp_path / "full.csv"
    storage.write_trajectory_csv(full, traj)
    lines = full.read_text().splitlines()
    per_time = traj.grid.counts[0] * traj.grid.counts[1]
    del lines[1 + per_time + 3]
    holed = tmp_path / "holed.csv"
    holed.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="cover the full grid"):
        storage.read_trajectory_csv(holed)


def test_manifest_roundtrip_and_layout(tmp_path):
    data = {"b": [1, 2.5], "a": {"nested": True, "id": "L1-02"}}
    path = tmp_path / "manifest.json"
    storage.write_manifest(path, data)
    assert json.loads(path.read_text()) == data
    assert path.read_text() == json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_matrix_csv_roundtrip(tmp_path):
    ids = ["L1-00", "L1-01", "L1-02"]
    matrix = np.random.default_rng(7).uniform(0.0, 2.0, (3, 3))
    np.fill_diagonal(matrix, 0.0)
    path = tmp_path / "matrix.csv"
    storage.write_matrix_csv(path, ids, matrix)

    assert path.read_text().splitlines()[0] == "id,L1-00,L1-01,L1-02"
    back = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2, 3))
    assert_array_equal(back, matrix)


def test_deltas_csv_pairs_consecutive_epsilons(tmp_path):
    path = tmp_path / "deltas.csv"
    storage.write_deltas_csv(path, [4e-3, 2e-3, 1e-3], [0.5, 0.25])
    assert path.read_text() == (
        "eps_coarse,eps_fine,delta\n"
        "0.004,0.002,0.5\n"
        "0.002,0.001,0.25\n"
    )


def test_trace_csv_one_dimensional(tmp_path):
    trace = TraceField(
        times=(0.0, 0.1),
        tangential_points=np.zeros((1, 0)),
        surface_points=np.zeros((1, 1)),
        left=np.array([[0.2], [0.4]]),
        right=np.array([[0.6], [0.8]]),
        tangential_weight=1.0,
    )
    path = tmp_path / "trace.csv"
    storage.write_trace_csv(path, trace)
    # p_u is the mean of the one-sided limits, s is 0 with no tangential axis
    assert path.read_text() == (
        "t,s,p_u\n"
        "0.0,0.0,0.4\n"
        "0.1,0.0,0.6000000000000001\n"
    )


def test_trace_csv_tangential_column(tmp_path):
    tang = np.array([[-0.25], [0.0], [0.25]])
    trace = TraceField(
        times=(0.0,),
        tangential_points=tang,
        surface_points=np.hstack([np.zeros((3, 1)), tang]),
        left=np.array([[0.1, 0.2, 0.3]]),
        right=np.array([[0.1, 0.2, 0.3]]),
        tangential_weight=0.5,
    )
    path = tmp_path / "trace.csv"
    storage.write_trace_csv(path, trace)
    rows = [ln.split(",") for ln in path.read_text().splitlines()[1:]]
    assert [float(r[1]) for r in rows] == [-0.25, 0.0, 0.25]
    assert [float(r[2]) for r in rows] == [0.1, 0.2, 0.3]


def test_float_formatting_roundtrips_shortest_repr(tmp_path):
    grid = Grid((0.0,), (1.0,), (4,))
    tricky = np.array([0.1 + 0.2, 1.0 / 3.0, 1e-17, -0.0])
    field = Field(grid, tricky, 0.0)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    storage.write_field_csv(a, field)
    storage.write_field_csv(b, field)
    assert a.read_bytes() == b.read_bytes()
    assert "0.30000000000000004" in a.read_text()
    assert_array_equal(storage.read_field_csv(a).values, tricky)


# ---------------------------------------------------------------------------
# the bulk writers against the row-by-row writers they replaced


def _fmt(x) -> str:
    return repr(float(x))


def _rows_trajectory(grid, times, states) -> str:
    pts = grid.points().reshape(-1, grid.d)
    out = ["t," + ",".join(f"x{k + 1}" for k in range(grid.d)) + ",u\n"]
    for i, t in enumerate(times):
        flat = np.asarray(states[i]).reshape(-1)
        for row, value in zip(pts, flat):
            out.append(_fmt(t) + "," + ",".join(_fmt(c) for c in row) + "," + _fmt(value) + "\n")
    return "".join(out)


def _rows_trace(trace) -> str:
    p = trace.averaged
    out = ["t,s,p_u\n"]
    for i, t in enumerate(trace.times):
        for m in range(p.shape[1]):
            s = trace.tangential_points[m, 0] if trace.tangential_points.shape[1] else 0.0
            out.append(_fmt(t) + "," + _fmt(s) + "," + _fmt(p[i, m]) + "\n")
    return "".join(out)


def _rows_matrix(ids, matrix) -> str:
    out = ["id," + ",".join(ids) + "\n"]
    for i, row_id in enumerate(ids):
        out.append(row_id + "," + ",".join(_fmt(v) for v in matrix[i]) + "\n")
    return "".join(out)


def _rows_deltas(epsilons, deltas) -> str:
    out = ["eps_coarse,eps_fine,delta\n"]
    for k, delta in enumerate(deltas):
        out.append(_fmt(epsilons[k]) + "," + _fmt(epsilons[k + 1]) + "," + _fmt(delta) + "\n")
    return "".join(out)


# signed zero, extreme exponents, the classic rounding case, integral floats
TRICKY = np.array([-0.0, 0.0, 1e-300, 5e-324, 0.1 + 0.2, 1.0 / 3.0, 1.0, -2.0,
                   1e16, 123456789.0, 2.0 ** -1074 * 3, -1e300])


def _tricky_states(n_times, counts, seed=3):
    states = np.random.default_rng(seed).uniform(-1.0, 1.0, (n_times,) + counts).reshape(n_times, -1)
    states[:, :TRICKY.size] = np.roll(TRICKY, 1)[None, :]
    states[-1, -TRICKY.size:] = TRICKY
    return states.reshape((n_times,) + counts)


@pytest.mark.parametrize("lows, highs, counts, times", [
    ((-0.5,), (0.5,), (16,), (0.0, 0.1 + 0.2, 1.0)),
    ((-0.5, 0.0), (0.5, 1.0), (6, 5), (0.0, 1e-300, 0.25, 2.0)),
    ((0.0, -1.0), (1.0, 1.0), (7, 4), (0.30000000000000004,)),
    ((-0.662, 0.0), (0.0, 0.3), (199, 6), (0.0,)),
])
def test_trajectory_writer_matches_row_writer_and_reads_back(tmp_path, lows, highs, counts, times):
    grid = Grid(lows, highs, counts)
    states = _tricky_states(len(times), counts)
    path = tmp_path / "traj.csv"
    if len(times) == 1:
        storage.write_field_csv(path, Field(grid, states[0], times[0]))
    else:
        storage.write_trajectory_csv(path, Trajectory(grid=grid, times=times, states=states, manifest={}))
    assert path.read_bytes() == _rows_trajectory(grid, times, states).encode()

    back = storage.read_trajectory_csv(path)
    assert back.grid == grid
    assert back.times == times
    assert_array_equal(back.states, states)
    # bit for bit, including the sign of zero
    assert back.states.tobytes() == states.tobytes()


def test_read_rejects_foreign_header(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("time,x,u\n0.0,0.0,1.0\n0.0,0.5,1.0\n")
    with pytest.raises(ValueError, match="not a trajectory CSV"):
        storage.read_trajectory_csv(path)


def test_trace_matrix_deltas_writers_match_row_writers(tmp_path):
    for tang in (np.zeros((1, 0)), np.array([[-0.25], [0.0], [0.1 + 0.2]])):
        m = tang.shape[0]
        left = np.vstack([TRICKY[:m], TRICKY[-m:], np.full(m, 0.5)])
        trace = TraceField(
            times=(0.0, 0.1 + 0.2, 1.0),
            tangential_points=tang,
            surface_points=np.zeros((m, 1 + tang.shape[1])),
            left=left,
            right=left[::-1],
            tangential_weight=1.0,
        )
        path = tmp_path / "trace.csv"
        storage.write_trace_csv(path, trace)
        assert path.read_bytes() == _rows_trace(trace).encode()

    ids = ["L1-00", "L1-01", "L1-02", "L1-03"]
    matrix = np.resize(TRICKY, (4, 4))
    path = tmp_path / "matrix.csv"
    storage.write_matrix_csv(path, ids, matrix)
    assert path.read_bytes() == _rows_matrix(ids, matrix).encode()

    epsilons = [4e-3, 2e-3, 1e-3, 5e-4]
    deltas = [0.1 + 0.2, 1.0, -0.0]
    path = tmp_path / "deltas.csv"
    storage.write_deltas_csv(path, epsilons, deltas)
    assert path.read_bytes() == _rows_deltas(epsilons, deltas).encode()


def test_ensure_dir_creates_and_returns(tmp_path):
    target = tmp_path / "a" / "b"
    assert storage.ensure_dir(target) == target
    assert target.is_dir()
    assert storage.ensure_dir(target) == target


def _planted_write(path, action):
    if action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if action:
        raise OSError(action)
    with open(path, "w") as fh:
        fh.write("ok\n")


@pytest.mark.parametrize("actions, first", [
    ((None, "disk full", None, "quota"), "OSError: disk full"),
    ((None, "kill", "disk full"), "writer exited with code -9"),
    (("x" * 10000, "disk full"), "OSError: " + "x" * 100),
], ids=["two-failures", "killed", "long-reason"])
def test_writers_raise_the_first_failure_in_submission_order(tmp_path, actions, first):
    writers = storage.Writers()
    for k, action in enumerate(actions):
        writers.submit(_planted_write, tmp_path / f"f{k}", action)
    with pytest.raises(storage.WriteError) as info:
        writers.wait()
    failed = next(k for k, action in enumerate(actions) if action)
    assert str(info.value).startswith(f"writing {tmp_path / f'f{failed}'}: {first}")
    assert len(str(info.value)) < 5000
    # every child is reaped, the successful writes are complete, and the
    # next join has nothing to wait for
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert all((tmp_path / f"f{k}").read_text() == "ok\n" for k, action in enumerate(actions) if not action)
    writers.wait()
