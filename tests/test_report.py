import numpy as np

from preictal.report import _Plot


def test_polyline_matches_point_by_point_formatting():
    rng = np.random.default_rng(4)
    ts = np.sort(rng.uniform(0.0, 3600.0, 400))
    vs = rng.exponential(size=400)
    vs[::7] = 0.0
    p = _Plot(t_max=float(ts[-1]), y_max=0.8 * float(vs.max()))   # some values clip
    points = []
    for t, v in zip(ts.tolist(), vs.tolist()):
        v = min(max(v, 0.0), p.y_max)
        x = p.x0 + (p.x1 - p.x0) * (t / p.t_max)
        y = p.y0 + (p.y1 - p.y0) * (v / p.y_max)
        points.append(f"{x:.2f},{y:.2f}")
    assert f'points="{" ".join(points)}"' in p.polyline(ts, vs, "error-raw", "blue", 1.0)
