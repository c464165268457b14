import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mamimo.geometry import (
    ArrayLayout,
    MoveRegion,
    array_response,
    load_layout,
    make_compact_upa,
    make_move_regions,
    make_sparse_upa,
    make_staggered_ura,
    min_pairwise_distance,
    save_layout,
    validate_layout,
    wave_vector,
)

LAM = 0.1


angles = st.floats(-np.pi, np.pi, allow_nan=False)
elevations = st.floats(-np.pi / 2, np.pi / 2, allow_nan=False)


class TestWaveVector:
    def test_boresight(self):
        k = wave_vector(0.0, 0.0, LAM)
        np.testing.assert_allclose(k, [2 * np.pi / LAM, 0.0, 0.0], atol=1e-12)

    def test_broadside(self):
        k = wave_vector(np.pi / 2, 0.0, LAM)
        np.testing.assert_allclose(k, [0.0, 2 * np.pi / LAM, 0.0], atol=1e-9)

    def test_oblique(self):
        k = wave_vector(np.pi / 4, np.pi / 6, LAM)
        np.testing.assert_allclose(
            k, 2 * np.pi / LAM * np.array([0.6124, 0.6124, 0.5]), rtol=1e-4
        )

    @given(angles, elevations)
    def test_norm_is_wavenumber(self, az, el):
        k = wave_vector(az, el, LAM)
        assert np.linalg.norm(k) == pytest.approx(2 * np.pi / LAM, rel=1e-12)

    def test_rejects_bad_wavelength(self):
        with pytest.raises(ValueError):
            wave_vector(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            wave_vector(0.0, 0.0, -1.0)
        with pytest.raises(ValueError, match="wavelength must be finite"):
            wave_vector(0.0, 0.0, np.inf)

    def test_vectorized_angles(self):
        k = wave_vector(np.array([0.0, np.pi / 2]), np.array([0.0, 0.0]), LAM)
        assert k.shape == (3, 2)


class TestArrayResponse:
    def test_all_antennas_at_origin(self):
        layout = ArrayLayout(np.zeros((5, 3)), LAM)
        a = array_response(layout, 0.7, -0.2)
        np.testing.assert_allclose(a, np.ones(5))

    def test_half_wavelength_phase(self):
        layout = ArrayLayout(np.array([[0.0, LAM / 2, 0.0]]), LAM)
        a = array_response(layout, np.pi / 2, 0.0)
        np.testing.assert_allclose(a, [-1.0], atol=1e-12)

    @given(angles, elevations, st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_unit_modulus(self, az, el, seed):
        rng = np.random.default_rng(seed)
        layout = ArrayLayout(rng.normal(size=(4, 3)), LAM)
        a = array_response(layout, az, el)
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-12)

    def test_translation_changes_only_common_phase(self):
        rng = np.random.default_rng(3)
        pos = rng.normal(size=(6, 3))
        shift = rng.normal(size=3)
        a = array_response(ArrayLayout(pos, LAM), 0.4, 0.1)
        b = array_response(ArrayLayout(pos + shift, LAM), 0.4, 0.1)
        np.testing.assert_allclose(a * np.conj(a[0]), b * np.conj(b[0]), atol=1e-12)

    def test_empty_layout_rejected(self):
        with pytest.raises(ValueError):
            ArrayLayout(np.zeros((0, 3)), LAM)

    def test_nonfinite_positions_rejected(self):
        with pytest.raises(ValueError):
            ArrayLayout(np.array([[np.nan, 0.0, 0.0]]), LAM)


class TestGenerators:
    def test_compact_upa_16(self):
        layout = make_compact_upa(4, 4, LAM)
        assert layout.antenna_count == 16
        assert min_pairwise_distance(layout.positions) == pytest.approx(LAM / 2, rel=1e-12)

    def test_compact_upa_single(self):
        layout = make_compact_upa(1, 1, LAM)
        np.testing.assert_array_equal(layout.positions, np.zeros((1, 3)))

    def test_compact_upa_2x2_centering(self):
        layout = make_compact_upa(2, 2, 0.1)
        np.testing.assert_allclose(sorted(set(layout.positions[:, 1])), [-0.025, 0.025])
        np.testing.assert_allclose(sorted(set(layout.positions[:, 2])), [-0.025, 0.025])

    def test_sparse_upa_aperture(self):
        layout = make_sparse_upa(4, 4, LAM)
        assert np.ptp(layout.positions[:, 1]) == pytest.approx(20 * LAM, rel=1e-12)
        assert np.ptp(layout.positions[:, 2]) == pytest.approx(20 * LAM, rel=1e-12)

    def test_sparse_upa_default_spacing(self):
        layout = make_sparse_upa(4, 4, 0.1)
        assert min_pairwise_distance(layout.positions) == pytest.approx(0.6667, rel=1e-3)

    def test_sparse_upa_single(self):
        layout = make_sparse_upa(1, 1, LAM)
        np.testing.assert_array_equal(layout.positions, np.zeros((1, 3)))

    def test_staggered_projection_uniform(self):
        layout = make_staggered_ura(4, 4, LAM)
        ys = np.sort(layout.positions[:, 1])
        assert len(np.unique(ys)) == 16
        np.testing.assert_allclose(np.diff(ys), 20 * LAM / 15, rtol=1e-9)

    def test_staggered_same_aperture_as_sparse(self):
        st_layout = make_staggered_ura(4, 4, LAM)
        sp_layout = make_sparse_upa(4, 4, LAM)
        for axis in (1, 2):
            assert st_layout.positions[:, axis].min() == pytest.approx(
                sp_layout.positions[:, axis].min(), rel=1e-12
            )
            assert st_layout.positions[:, axis].max() == pytest.approx(
                sp_layout.positions[:, axis].max(), rel=1e-12
            )

    def test_staggered_single(self):
        layout = make_staggered_ura(1, 1, LAM)
        np.testing.assert_array_equal(layout.positions, np.zeros((1, 3)))

    def test_staggered_nonsquare_projection_still_uniform(self):
        layout = make_staggered_ura(2, 3, LAM)
        ys = np.sort(layout.positions[:, 1])
        assert len(np.unique(np.round(ys, 12))) == 6
        steps = np.diff(ys)
        np.testing.assert_allclose(steps, steps[0], rtol=1e-9)

    @pytest.mark.parametrize("maker", [make_compact_upa, make_sparse_upa, make_staggered_ura])
    def test_zero_dims_rejected(self, maker):
        with pytest.raises(ValueError):
            maker(0, 4, LAM)
        with pytest.raises(ValueError):
            maker(4, 0, LAM)

    @pytest.mark.parametrize(
        "maker", [make_compact_upa, make_sparse_upa, make_staggered_ura]
    )
    def test_generators_pass_spacing_check(self, maker):
        report = validate_layout(maker(4, 4, LAM))
        assert report.spacing_ok


class TestMoveRegions:
    def test_tiling_aperture(self):
        regions = make_move_regions(4, 4, 5 * LAM)
        assert len(regions) == 16
        ys = [r.center_y for r in regions]
        zs = [r.center_z for r in regions]
        assert max(ys) + 2.5 * LAM == pytest.approx(10 * LAM, rel=1e-12)
        assert min(ys) - 2.5 * LAM == pytest.approx(-10 * LAM, rel=1e-12)
        assert max(zs) + 2.5 * LAM == pytest.approx(10 * LAM, rel=1e-12)

    def test_adjacent_centers_differ_by_side(self):
        regions = make_move_regions(2, 3, 0.7)
        assert regions[1].center_y - regions[0].center_y == pytest.approx(0.7, rel=1e-12)
        assert regions[3].center_z - regions[0].center_z == pytest.approx(0.7, rel=1e-12)

    def test_single_region_at_origin(self):
        (region,) = make_move_regions(1, 1, 2.0)
        assert region.center_y == 0.0 and region.center_z == 0.0

    def test_invalid_side_rejected(self):
        with pytest.raises(ValueError):
            make_move_regions(2, 2, 0.0)
        with pytest.raises(ValueError):
            MoveRegion(0.0, 0.0, -1.0)

    def test_zero_dims_rejected(self):
        with pytest.raises(ValueError):
            make_move_regions(0, 2, 1.0)


class TestValidateLayout:
    def test_compact_passes_with_equality(self):
        report = validate_layout(make_compact_upa(4, 4, LAM))
        assert report.spacing_ok
        assert report.min_pairwise_distance == pytest.approx(LAM / 2, rel=1e-12)

    def test_coincident_antennas_flagged(self):
        layout = ArrayLayout(np.zeros((2, 3)), LAM)
        report = validate_layout(layout)
        assert not report.spacing_ok
        assert report.min_pairwise_distance == 0.0

    def test_region_boundary_violation_flagged(self):
        region = MoveRegion(0.0, 0.0, 1.0)
        inside = ArrayLayout(np.array([[0.0, 0.5, 0.0]]), LAM, (region,))
        outside = ArrayLayout(np.array([[0.0, 0.5 + 1e-9, 0.0]]), LAM, (region,))
        assert validate_layout(inside).region_ok == (True,)
        assert validate_layout(outside).region_ok == (False,)
        assert not validate_layout(outside).ok

    def test_region_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ArrayLayout(np.zeros((2, 3)), LAM, (MoveRegion(0, 0, 1.0),))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        layout = make_staggered_ura(3, 2, LAM)
        path = tmp_path / "layout.txt"
        save_layout(layout, path)
        loaded = load_layout(path)
        np.testing.assert_array_equal(loaded.positions, layout.positions)
        assert loaded.wavelength == layout.wavelength

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bare.txt"
        path.write_text("0 0.0 1.0 2.0\n")
        with pytest.raises(ValueError):
            load_layout(path)
