"""Channel generation: distribution moments, composition, reproducibility."""

import dataclasses
import math

import numpy as np
import pytest

from mwrelay import (
    GeometryModel,
    InvalidConfigError,
    SystemConfig,
    bound_report,
    checked_gains,
    draw_large_scale,
    draw_small_scale,
    estimate_link_se,
    qpsk_frame,
    read_beta_file,
    run_round_noiseless,
    run_round_noisy,
    write_beta_file,
)
from mwrelay.channel import STREAM_CHANNEL, STREAM_PROFILE, substream
from oracles import compose_channel

# Frozen once from the implementation at seed 42 (default geometry, K=10).
GOLDEN_BETA_SEED42 = np.array([
    1.63743412e-03, 1.60893916e-03, 1.26090730e-05, 5.41679502e-04,
    7.33634468e-05, 1.30099297e-04, 1.64535084e-04, 4.19805310e-05,
    1.51719679e-04, 1.68509646e-03,
])


def test_entry_moments_against_distribution():
    rng = substream(123, STREAM_CHANNEL, 0)
    H = draw_small_scale(100, 10_000, rng)  # 1e6 entries
    n = H.size
    stderr_mean = 1.0 / math.sqrt(2 * n)  # per real component
    assert abs(H.real.mean()) < 4 * stderr_mean
    assert abs(H.imag.mean()) < 4 * stderr_mean
    assert abs((np.abs(H) ** 2).mean() - 1.0) < 0.01
    assert abs(H.real.var() - 0.5) < 0.01
    assert abs(H.imag.var() - 0.5) < 0.01


def test_column_norm_oracle_m64():
    # Monte Carlo oracle: E||h_k||^2 = M for CN(0, I_M) columns.
    rng = substream(5, STREAM_CHANNEL, 1)
    H = draw_small_scale(64, 20_000, rng)
    norms = (np.abs(H) ** 2).sum(axis=0)
    assert abs(norms.mean() - 64.0) / 64.0 < 0.01


def test_compose_identity_and_scaling():
    rng = substream(9, STREAM_CHANNEL, 2)
    H = draw_small_scale(6, 4, rng)
    same = compose_channel(H, np.ones(4))
    assert np.array_equal(same, H)

    H = np.zeros((2, 2), dtype=complex)
    H[0, 0] = 1 + 0j
    G = compose_channel(H, np.array([4.0, 1.0]))
    assert G[0, 0] == 2 + 0j


def test_compose_column_norm_oracle():
    rng = substream(10, STREAM_CHANNEL, 3)
    H = draw_small_scale(100, 5_000, rng)
    G = compose_channel(H, np.full(5_000, 0.5))
    norms = (np.abs(G) ** 2).sum(axis=0)
    assert abs(norms.mean() - 50.0) / 50.0 < 0.01


def test_compose_rejects_mismatch():
    with pytest.raises(InvalidConfigError):
        compose_channel(np.zeros((3, 4)), np.ones(5))


@pytest.mark.parametrize("gains", [[-1.0, np.nan], [1.0, 0.0], [np.inf, 1.0]])
def test_compose_rejects_bad_gains(gains):
    # A bad gain used to come back as a NaN column with only a RuntimeWarning.
    with pytest.raises(InvalidConfigError, match="positive and finite"):
        compose_channel(np.ones((2, 2)), gains)


def test_small_scale_is_reproducible_per_substream():
    a = draw_small_scale(16, 4, substream(7, STREAM_CHANNEL, 11))
    b = draw_small_scale(16, 4, substream(7, STREAM_CHANNEL, 11))
    c = draw_small_scale(16, 4, substream(7, STREAM_CHANNEL, 12))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("shape", [(1, 1), (3, 7), (100, 10)])
def test_small_scale_fills_in_place_as_complex_sum(shape):
    # Filling .real and .imag and scaling in place gives the same bits as
    # forming z[0] + 1j z[1] and scaling a copy, from the same generator state.
    z = substream(4, STREAM_CHANNEL, 2).standard_normal((2, *shape))
    H = draw_small_scale(*shape, substream(4, STREAM_CHANNEL, 2))
    assert H.shape == shape and H.dtype == complex
    assert np.array_equal(H, (z[0] + 1j * z[1]) * (1 / math.sqrt(2)))


@pytest.mark.parametrize("seed", [1.5, 2.0, True, np.True_, "3", None, -1],
                         ids=["fraction", "integral-float", "bool", "numpy-bool", "str", "none",
                              "negative"])
def test_seeds_must_be_nonnegative_integers(seed):
    # int(seed) used to turn 1.5 into seed 1 and True into seed 1.
    config = SystemConfig(M=16, K=4, p_u=1.0, p_r=10.0)
    with pytest.raises(InvalidConfigError, match="seed must be a nonnegative integer"):
        substream(seed, STREAM_CHANNEL, 0)
    with pytest.raises(InvalidConfigError, match="seed must be a nonnegative integer"):
        run_round_noisy(config, np.ones(4), 3, seed)
    with pytest.raises(InvalidConfigError, match="seed must be a nonnegative integer"):
        estimate_link_se(config, np.ones(4), ("proposed",), 8, seed)


def test_numpy_integer_seed_matches_int_seed():
    config = SystemConfig(M=16, K=4, p_u=1.0, p_r=10.0)
    assert np.array_equal(run_round_noisy(config, np.ones(4), 5, np.int64(3)),
                          run_round_noisy(config, np.ones(4), 5, 3))
    assert np.array_equal(draw_small_scale(4, 3, substream(np.uint32(7), STREAM_CHANNEL, 1)),
                          draw_small_scale(4, 3, substream(7, STREAM_CHANNEL, 1)))


def test_large_scale_golden_vector():
    beta = draw_large_scale(GeometryModel(), 10, substream(42, STREAM_PROFILE, 0))
    assert beta.dtype == np.float64 and beta.shape == (10,)
    assert np.allclose(beta, GOLDEN_BETA_SEED42, rtol=1e-8)


def test_large_scale_rejects_zero_users():
    with pytest.raises(InvalidConfigError, match="nonempty 1-D"):
        draw_large_scale(GeometryModel(), 0, substream(42, STREAM_PROFILE, 0))


@pytest.mark.parametrize("K", [2.7, True, np.float64(3.5)])
@pytest.mark.parametrize("draw", [lambda K, rng: draw_large_scale(GeometryModel(), K, rng),
                                  qpsk_frame], ids=["large_scale", "qpsk_frame"])
def test_user_count_not_truncated(draw, K):
    # int(K) used to draw 2 values for K = 2.7 and 1 for K = True.
    rng = substream(42, STREAM_PROFILE, 0)
    state = rng.bit_generator.state
    with pytest.raises(InvalidConfigError, match="user count must be an integer"):
        draw(K, rng)
    assert rng.bit_generator.state == state


def test_large_scale_collapses_at_reference_distance():
    geometry = GeometryModel(cell_radius=100.0 + 1e-9, exclusion_radius=100.0 - 1e-9,
                             shadowing_sigma_db=0.0)
    beta = draw_large_scale(geometry, 50, substream(1, STREAM_PROFILE, 0))
    assert np.allclose(beta, 1.0, atol=1e-7)


def test_large_scale_median_matches_area_integral():
    # With no shadowing, beta = (d/d0)^-nu is monotone in d, so its median
    # is the median distance mapped through the path loss; uniform-in-area
    # placement gives median distance sqrt((r0^2 + R^2) / 2).
    geometry = GeometryModel(shadowing_sigma_db=0.0)
    rng = substream(77, STREAM_PROFILE, 0)
    beta = draw_large_scale(geometry, 100_000, rng)
    d_med = math.sqrt((geometry.exclusion_radius**2 + geometry.cell_radius**2) / 2)
    analytic = (d_med / geometry.reference_distance) ** (-geometry.path_loss_exponent)
    observed = float(np.median(beta))
    assert abs(observed - analytic) / analytic < 0.02


def test_geometry_validation():
    with pytest.raises(InvalidConfigError):
        GeometryModel(exclusion_radius=2000.0)
    with pytest.raises(InvalidConfigError):
        GeometryModel(path_loss_exponent=1.5)
    with pytest.raises(InvalidConfigError):
        GeometryModel(shadowing_sigma_db=-1.0)


@pytest.mark.parametrize("field, bad", [
    ("shadowing_sigma_db", math.nan), ("shadowing_sigma_db", math.inf),
    ("shadowing_sigma_db", True), ("cell_radius", math.inf), ("exclusion_radius", math.nan),
    ("path_loss_exponent", math.inf), ("reference_distance", math.inf),
    ("reference_distance", True), ("cell_radius", "1000"),
])
def test_geometry_rejects_non_finite_and_bool_fields(field, bad):
    # NaN or infinite fields used to construct and fail later as "all
    # large-scale gains must be positive and finite"; True ran as 1.
    with pytest.raises(InvalidConfigError, match=f"^{field} must be "):
        GeometryModel(**{field: bad})


def test_system_config_validation():
    SystemConfig(M=1, K=2, p_u=0.5, p_r=1.0)
    with pytest.raises(InvalidConfigError):
        SystemConfig(M=0, K=2, p_u=1.0, p_r=1.0)
    with pytest.raises(InvalidConfigError, match=r"^antenna count must be an integer >= 1, got 2\.5$"):
        SystemConfig(M=2.5, K=2, p_u=1.0, p_r=1.0)
    with pytest.raises(InvalidConfigError):
        SystemConfig(M=4, K=1, p_u=1.0, p_r=1.0)
    with pytest.raises(InvalidConfigError):
        SystemConfig(M=4, K=2, p_u=0.0, p_r=1.0)
    with pytest.raises(InvalidConfigError):
        SystemConfig(M=4, K=2, p_u=1.0, p_r=-1.0)
    for field in ("M", "K", "p_u", "p_r"):
        for bad in (math.inf, math.nan):
            with pytest.raises(InvalidConfigError):
                SystemConfig(**{"M": 4, "K": 2, "p_u": 1.0, "p_r": 1.0, field: bad})


@pytest.mark.parametrize("field, bad", [
    ("M", True), ("M", np.True_), ("K", np.False_), ("p_u", True), ("p_r", True),
    ("M", "100"), ("K", "4"), ("M", None), ("p_r", "1.0"),
], ids=["M-true", "M-numpy-true", "K-numpy-false", "p_u-true", "p_r-true", "M-str", "K-str",
        "M-none", "p_r-str"])
def test_system_config_rejects_bools_and_non_numbers(field, bad):
    # M=True used to become M=1 and p_r=True stayed a bool; strings and None
    # raised raw TypeErrors from the range checks.
    with pytest.raises(InvalidConfigError, match=f"{field} must be a real number"):
        SystemConfig(**{"M": 4, "K": 2, "p_u": 1.0, "p_r": 1.0, field: bad})


def _same_fields(a, b):
    """Field-by-field equality of two result dataclasses; arrays compare exactly."""
    assert type(a) is type(b)
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y, field.name


@pytest.mark.parametrize("M, K", [(100, 10.0), (100.0, 10), (5.0, 10)])
def test_system_config_integral_float_counts(M, K):
    # Integral float counts used to be kept as floats, which later code
    # rejected with TypeError or IndexError.
    as_float = SystemConfig(M=M, K=K, p_u=1.0, p_r=10.0)
    as_int = SystemConfig(M=int(M), K=int(K), p_u=1.0, p_r=10.0)
    assert type(as_float.M) is int and type(as_float.K) is int
    assert (as_float.M, as_float.K) == (int(M), int(K))
    beta = np.ones(int(K))
    estimates = [estimate_link_se(c, beta, ("conventional", "proposed"), 40, 3)
                 for c in (as_float, as_int)]
    assert list(estimates[0]) == list(estimates[1])
    for scheme in estimates[0]:
        _same_fields(estimates[0][scheme], estimates[1][scheme])
    _same_fields(bound_report(as_float, beta), bound_report(as_int, beta))
    _same_fields(run_round_noiseless(as_float, beta, 4), run_round_noiseless(as_int, beta, 4))


def test_profile_validation_and_unit():
    unit = checked_gains([1, 1, 1], 3)
    assert unit.dtype == np.float64 and np.array_equal(unit, np.ones(3))
    with pytest.raises(InvalidConfigError, match="positive and finite"):
        checked_gains(np.array([1.0, -1.0]))
    with pytest.raises(InvalidConfigError, match="nonempty 1-D"):
        checked_gains(np.array([]))
    with pytest.raises(InvalidConfigError, match="nonempty 1-D"):
        checked_gains(np.ones((2, 2)))
    with pytest.raises(InvalidConfigError, match="beta has 3 gains, expected K=4"):
        checked_gains(np.ones(3), 4)


def test_beta_file_round_trip(tmp_path):
    beta = draw_large_scale(GeometryModel(), 7, substream(3, STREAM_PROFILE, 4))
    path = tmp_path / "beta.txt"
    write_beta_file(path, beta)
    loaded = read_beta_file(path)
    assert loaded.dtype == np.float64
    assert np.array_equal(loaded, beta)
    assert len(path.read_text().strip().splitlines()) == 7


def test_empty_beta_file_rejected(tmp_path):
    path = tmp_path / "beta.txt"
    path.write_text("\n")
    with pytest.raises(InvalidConfigError, match="nonempty 1-D"):
        read_beta_file(path)


def test_beta_file_rejects_bad_gains(tmp_path):
    # Gains that read_beta_file would reject are never written.
    path = tmp_path / "beta.txt"
    with pytest.raises(InvalidConfigError, match="positive and finite"):
        write_beta_file(path, [0.0, -2.0])
    assert not path.exists()


def test_realization_keeps_inputs():
    H = np.ones((2, 3), dtype=complex)
    beta = np.array([1.0, 4.0, 9.0])
    G = compose_channel(H, beta)
    assert np.array_equal(G, [[1.0, 2.0, 3.0]] * 2)
    assert np.array_equal(H, np.ones((2, 3)))
    assert np.array_equal(beta, np.array([1.0, 4.0, 9.0]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 0.0])
def test_profile_rejects_nonfinite_and_zero_gains(bad):
    with pytest.raises(InvalidConfigError, match="positive and finite"):
        checked_gains(np.array([1.0, bad, 1.0]))
