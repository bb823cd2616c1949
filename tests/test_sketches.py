import ast
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import sketchreg.linalg as linalg_mod
import sketchreg.sketches as sketches_mod
from sketchreg.errors import DimensionMismatchError, SketchSizeError
from sketchreg.sketches import (
    _PANEL_COLS,
    _PANEL_ROWS,
    _TAGS,
    KINDS,
    SketchOperator,
    apply,
    hadamard_operator,
    make_sketch,
    range_distortion,
    seeds,
    stream,
)
from sketchreg.solvers import SolverConfig, resolve_sketch_size
from helpers import box_muller_sketch, dense_sketch, distortion_per_direction, force_workers


class TestMakeSketch:
    def test_countsketch_deterministic(self):
        first = make_sketch("countsketch", 2, 4, seed=7)
        second = make_sketch("countsketch", 2, 4, seed=7)
        np.testing.assert_array_equal(first.buckets, second.buckets)
        np.testing.assert_array_equal(first.signs, second.signs)

    @pytest.mark.parametrize("kind", ["gaussian", "countsketch", "srht"])
    def test_apply_bitwise_reproducible(self, kind):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((100, 6))
        out1 = apply(make_sketch(kind, 40, 100, seed=5), m)
        out2 = apply(make_sketch(kind, 40, 100, seed=5), m)
        np.testing.assert_array_equal(out1, out2)

    def test_gaussian_entry_distribution(self):
        # One panel of two full tiles, 262144 entries, should look like
        # N(0, 1/s). Each tile's first half holds cos(t) r, its second
        # half the sin(t) r of the same draws: rows 32-63 of the panel.
        sk = make_sketch("gaussian", _PANEL_ROWS, 2 * _PANEL_COLS, seed=11)
        z = dense_sketch(sk) * np.sqrt(sk.s)
        assert np.all(np.isfinite(z))
        assert abs(z.mean()) <= 0.01
        assert abs(z.var() - 1.0) <= 0.02
        assert abs(np.mean((z - z.mean()) ** 4) / z.var() ** 2 - 3.0) <= 0.06
        assert np.abs(z).max() <= 5.78
        half = _PANEL_ROWS // 2
        for left in (0, _PANEL_COLS):
            cos_half = z[:half, left:left + _PANEL_COLS].ravel()
            sin_half = z[half:, left:left + _PANEL_COLS].ravel()
            assert abs(np.corrcoef(cos_half, sin_half)[0, 1]) <= 0.02
            assert abs(np.corrcoef(cos_half**2, sin_half**2)[0, 1]) <= 0.02

    def test_srht_legal_at_bench_scale(self):
        sk = make_sketch("srht", 1000, 100_000, seed=1)
        assert sk.s == 1000 and sk.n_pad == 2**17

    @pytest.mark.parametrize("s,n", [(0, 4), (4, 4), (5, 4)])
    def test_invalid_sizes(self, s, n):
        with pytest.raises(SketchSizeError):
            make_sketch("gaussian", s, n, seed=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_sketch("fft", 2, 4, seed=0)

    def test_kinds_are_the_three_embeddings(self):
        assert KINDS == ("gaussian", "countsketch", "srht")
        with pytest.raises(ValueError, match="unknown sketch kind"):
            make_sketch("identity", 4, 4, seed=0)

    @pytest.mark.parametrize("seed", [1.5, -1, "1", None])
    def test_seed_must_be_an_integer_at_least_0(self, seed):
        with pytest.raises(ValueError, match="seed must be"):
            make_sketch("srht", 8, 64, seed)

    def test_numpy_integer_seed_is_the_same_stream(self):
        for kind in KINDS:
            ref = make_sketch(kind, 8, 64, 3)
            for seed in (np.int64(3), np.uint32(3)):
                sk = make_sketch(kind, 8, 64, seed)
                m = np.arange(64.0)
                assert apply(sk, m).tobytes() == apply(ref, m).tobytes()


class TestStreams:
    def test_tag_table_is_pinned(self):
        # Changing a tag changes every draw of its stream.
        assert _TAGS == {"gaussian": 1, "countsketch": 2, "srht": 3, "distortion": 99,
                         "sample": 1002, "estimate": 1003, "ihs": 1005, "data": 7001}
        assert len(set(_TAGS.values())) == len(_TAGS)
        assert set(KINDS) <= _TAGS.keys()

    def test_stream_is_the_tagged_seed_sequence(self):
        for name, tag in _TAGS.items():
            expected = np.random.default_rng(np.random.SeedSequence([5, tag, 2], spawn_key=(3,)))
            got = stream(np.uint32(5), name, 2, spawn_key=(3,))
            assert got.integers(0, 2**62, size=4).tolist() == \
                expected.integers(0, 2**62, size=4).tolist()
            words = np.random.SeedSequence([5, tag, 2], spawn_key=(3,)).generate_state(2)
            np.testing.assert_array_equal(
                seeds(5, name, 2, spawn_key=(3,)).generate_state(2), words)

    @pytest.mark.parametrize("seed", [1.5, -1, "3", None])
    def test_rule_rejects_a_bad_seed(self, seed):
        for rule in (seeds, stream):
            with pytest.raises(ValueError, match="seed must be"):
                rule(seed, "data")

    def test_only_the_rule_builds_a_stream(self):
        package = Path(sketches_mod.__file__).parent
        tree = ast.parse((package / "sketches.py").read_text())
        inside = {lineno for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name in ("seeds", "stream")
                  for lineno in range(node.lineno, node.end_lineno + 1)}
        found = []
        for path in sorted(package.glob("*.py")):
            for lineno, line in enumerate(path.read_text().splitlines(), start=1):
                if "SeedSequence(" in line or "default_rng(" in line:
                    found.append((path.name, lineno in inside))
        assert found and all(name == "sketches.py" and ok for name, ok in found), found


class TestApply:
    def test_countsketch_bucket_sums_by_hand(self):
        sk = SketchOperator(
            kind="countsketch", s=2, n=4, seed=0,
            signs=np.array([1.0, -1.0, 1.0, 1.0]),
            buckets=np.array([0, 1, 0, 1]),
        )
        np.testing.assert_allclose(apply(sk, np.array([1.0, 2.0, 3.0, 4.0])), [4.0, 2.0])

    def test_gaussian_zero_matrix(self):
        sk = make_sketch("gaussian", 10, 50, seed=3)
        np.testing.assert_array_equal(apply(sk, np.zeros((50, 3))), np.zeros((10, 3)))

    def test_srht_matches_dense_oracle(self):
        # Oracle: explicit sqrt(n/s) * P H D matrix product.
        sk = make_sketch("srht", 4, 8, seed=21)
        rng = np.random.default_rng(2)
        m = rng.standard_normal((8, 2))
        h = scipy.linalg.hadamard(8) / np.sqrt(8.0)
        dense = np.sqrt(8.0 / 4.0) * (h @ np.diag(sk.signs))[sk.rows]
        np.testing.assert_allclose(apply(sk, m), dense @ m, atol=1e-12)

    @pytest.mark.parametrize("shape", [(), (7,)])
    @pytest.mark.parametrize("s", [3, 50, 400])
    def test_countsketch_matches_add_at(self, shape, s):
        # Reference: scatter-add each signed row into its bucket in row
        # order. 500 rows into 400 buckets leave about a quarter empty.
        sk = make_sketch("countsketch", s, 500, seed=s)
        if s == 400:
            assert np.unique(sk.buckets).size < s
        m = np.random.default_rng(s).standard_normal((500, *shape))
        expected = np.zeros((s, *shape))
        signs = sk.signs[:, None] if shape else sk.signs
        np.add.at(expected, sk.buckets, signs * m)
        assert np.array_equal(apply(sk, m), expected)

    def test_countsketch_maps_basis_vectors(self):
        sk = make_sketch("countsketch", 5, 20, seed=9)
        for i in range(20):
            e = np.zeros(20)
            e[i] = 1.0
            out = apply(sk, e)
            expected = np.zeros(5)
            expected[sk.buckets[i]] = sk.signs[i]
            np.testing.assert_array_equal(out, expected)

    def test_srht_hd_stage_is_isometry(self):
        v = np.random.default_rng(5).standard_normal(33)
        flattened = apply(hadamard_operator(33, seed=4), v)
        assert flattened.shape == (64,)
        assert abs(np.linalg.norm(flattened) - np.linalg.norm(v)) <= 1e-12 * np.linalg.norm(v)

    @pytest.mark.parametrize("n", [1000, 1024])
    def test_srht_bitwise_independent_of_worker_count(self, monkeypatch, n):
        # The sign pass splits rows [0, n) and leaves the padding zero.
        m = np.random.default_rng(n).standard_normal((n, 3))
        outs = []
        for workers in (1, 2, 3):
            force_workers(monkeypatch, workers)
            outs.append(apply(hadamard_operator(n, seed=6), m))
        for out in outs[1:]:
            assert np.array_equal(out, outs[0])

    def test_dimension_mismatch(self):
        sk = make_sketch("gaussian", 4, 10, seed=0)
        with pytest.raises(DimensionMismatchError):
            apply(sk, np.ones((11, 2)))


class TestGaussianPanels:
    def test_bitwise_independent_of_worker_count(self, monkeypatch):
        # Four panels, the last one ragged, and three column tiles.
        s, n = 3 * _PANEL_ROWS + 5, 2 * _PANEL_COLS + 7
        sk = make_sketch("gaussian", s, n, seed=8)
        m = np.random.default_rng(8).standard_normal((n, 3))
        outs = []
        for workers in (1, 2, 3):
            force_workers(monkeypatch, workers)
            outs.append(apply(sk, m))
        for out in outs[1:]:
            assert np.array_equal(out, outs[0])

    @pytest.mark.parametrize("shape", [(), (1,)])
    def test_matches_dense_at_ragged_edges(self, shape):
        s, n = 2 * _PANEL_ROWS + 3, 2 * _PANEL_COLS + 5
        sk = make_sketch("gaussian", s, n, seed=12)
        m = np.random.default_rng(12).standard_normal((n, *shape))
        expected = dense_sketch(sk) @ m
        out = apply(sk, m)
        assert out.shape == expected.shape == (s, *shape)
        np.testing.assert_allclose(out, expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("s,n", [(2 * _PANEL_ROWS + 3, 2 * _PANEL_COLS + 5), (3, 7)])
    def test_is_the_box_muller_rule(self, s, n):
        # The last panel is ragged and its last tile has an odd number
        # of entries, so one angle's sine is dropped.
        assert (s % _PANEL_ROWS) * (n % _PANEL_COLS) % 2 == 1
        sk = make_sketch("gaussian", s, n, seed=9)
        assert np.array_equal(dense_sketch(sk), box_muller_sketch(sk))

    @pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-24])
    def test_draw_is_finite_at_the_extreme_uniforms(self, u):
        # The largest float32 uniform gives the largest radius,
        # sqrt(48 ln 2); u = 0 gives radius 0.
        class Fixed:
            def random(self, out, dtype):
                out[...] = u

        z = np.empty(5)
        sketches_mod._box_muller(Fixed(), z, np.empty(6, dtype=np.float32))
        radius = np.sqrt(48.0 * np.log(2.0)) if u else 0.0
        np.testing.assert_allclose(np.hypot(z[:2], z[3:]), radius, rtol=1e-6)
        assert np.all(np.abs(z) <= 5.78)

    def test_panels_draw_independent_streams(self):
        # A seed shared by every panel would repeat panel 0 in panel 1.
        sk = make_sketch("gaussian", 2 * _PANEL_ROWS, 3000, seed=4)
        dense = dense_sketch(sk)
        first, second = dense[:_PANEL_ROWS].ravel(), dense[_PANEL_ROWS:].ravel()
        assert abs(np.corrcoef(first, second)[0, 1]) <= 0.05

    def test_peak_memory_is_panel_buffers(self, monkeypatch):
        # Two workers' 64 x 2048 float64 tiles and float32 uniforms
        # (3 MiB) and s x d outputs; the ziggurat's 64 x 4096 tiles took
        # 4 MiB, the old s x 8192 row blocks peaked at 75 MiB here.
        force_workers(monkeypatch, 2)
        m = np.random.default_rng(1).standard_normal((2**14, 20))
        sk = make_sketch("gaussian", 600, 2**14, seed=1)
        tracemalloc.start()
        try:
            apply(sk, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_an_error_in_a_panel_reaches_the_caller(self, monkeypatch):
        # A failed panel returns its worker's scratch, so the panels
        # queued behind it do not wait for it forever.
        force_workers(monkeypatch, 2)

        def failing(rng, out, uniforms):
            raise FloatingPointError("draw failed")

        monkeypatch.setattr(sketches_mod, "_box_muller", failing)
        errors = []

        def call():
            try:
                apply(make_sketch("gaussian", 8 * _PANEL_ROWS, 1000, seed=0), np.ones((1000, 2)))
            except FloatingPointError as exc:
                errors.append(exc)

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive() and len(errors) == 1

    def test_small_apply_runs_inline(self, monkeypatch):
        # 400 x 4096 is below 2^22 entries of S, where two workers lose.
        built = []

        def recording_pool(workers):
            built.append(workers)
            return ThreadPoolExecutor(workers)

        monkeypatch.setattr(linalg_mod, "ThreadPoolExecutor", recording_pool)
        monkeypatch.setattr(linalg_mod, "_worker_count", lambda tasks: 2)
        sk = make_sketch("gaussian", 400, 4096, seed=3)
        m = np.random.default_rng(3).standard_normal((4096, 8))
        inline = apply(sk, m)
        assert built == []
        force_workers(monkeypatch, 2)
        assert np.array_equal(apply(sk, m), inline) and built == [2]

    def test_no_thread_outlives_apply(self, monkeypatch):
        force_workers(monkeypatch, 2)
        sk = make_sketch("gaussian", 4 * _PANEL_ROWS, 1000, seed=2)
        before = threading.active_count()
        apply(sk, np.ones((1000, 2)))
        assert threading.active_count() == before

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity call")
    def test_worker_count_is_cpus_capped_by_panels(self):
        assert linalg_mod._worker_count(1) == 1
        assert linalg_mod._worker_count(10**6) == len(os.sched_getaffinity(0))


class TestEmbeddingDistortion:
    def test_hadamard_transform_is_isometric(self):
        m = np.random.default_rng(1).standard_normal((32, 4))
        sk = hadamard_operator(32, seed=0)
        assert range_distortion(apply(sk, m), m, sk.seed, 50) <= 1e-12

    def test_gaussian_embedding_quality(self):
        a = np.random.default_rng(2).standard_normal((2048, 10))
        sk = make_sketch("gaussian", 200, 2048, seed=3)
        assert range_distortion(apply(sk, a), a, sk.seed, 100) <= 0.5

    def test_countsketch_embedding_quality(self):
        a = np.random.default_rng(2).standard_normal((2048, 10))
        sk = make_sketch("countsketch", 100, 2048, seed=3)
        assert range_distortion(apply(sk, a), a, sk.seed, 100) <= 0.5

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_one_direction_at_a_time(self, kind):
        a = np.random.default_rng(4).standard_normal((2048, 10)) * np.logspace(0, 4, 10)
        sk = make_sketch(kind, 120, 2048, seed=5)
        want = distortion_per_direction(apply(sk, a), a, 5, 60)
        assert range_distortion(apply(sk, a), a, sk.seed, 60) == pytest.approx(want, abs=1e-12)

    def test_products_stay_below_the_size_of_m(self):
        # Products of m itself with 100 directions would be 5 x m.nbytes.
        a = np.random.default_rng(6).standard_normal((2**15, 20))
        sk = make_sketch("gaussian", 160, 2**15, seed=1)
        tracemalloc.start()
        try:
            range_distortion(apply(sk, a), a, sk.seed, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.0 * a.nbytes

    def test_one_block_draws_the_sequential_directions(self):
        rng = stream(5, "distortion")
        sequential = np.array([rng.standard_normal(7) for _ in range(30)])
        np.testing.assert_array_equal(stream(5, "distortion").standard_normal((30, 7)),
                                      sequential)


def test_default_sizes_scale_with_d():
    def size(kind):
        return resolve_sketch_size(SolverConfig(sketch_kind=kind), 2**15, 20, False)

    assert size("gaussian") == 160
    assert size("srht") >= 160
    assert size("countsketch") == 420


def cli_import_loads(module: str) -> str:
    """Whether a fresh ``import sketchreg.cli`` loads ``module``, as the
    child prints it: "True" or "False"."""
    import sketchreg

    src = str(Path(sketchreg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import sys, sketchreg.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    return out.stdout.strip()


def test_cli_import_does_not_load_scipy_sparse():
    # scipy.sparse is imported only when a CountSketch is applied.
    assert cli_import_loads("scipy.sparse") == "False"


def test_cli_import_does_not_load_yaml():
    # yaml is imported only when ``bench --config`` reads a config.
    assert cli_import_loads("yaml") == "False"
