"""Tests for FPGA device models."""

import pytest

from repro.fpga.device import (
    PYNQ_Z1,
    XC7A50T,
    XC7Z020,
    XCZU9EG,
    FpgaDevice,
    get_device,
)
from repro.registry import DEVICES


class TestCatalog:
    def test_contains_all_paper_devices(self):
        assert {"xc7a50t", "xc7z020", "pynq-z1", "xczu9eg"} <= set(DEVICES)

    def test_contains_ddr_variant_pair(self):
        assert {"xc7z020-ddr-wide", "xc7z020-ddr-narrow"} <= set(DEVICES)

    def test_get_device(self):
        assert get_device("pynq-z1") is PYNQ_Z1

    def test_get_device_unknown_lists_names(self):
        with pytest.raises(KeyError, match="unknown FPGA device.*known"):
            get_device("virtex")

    def test_pynq_is_a_7z020(self):
        assert PYNQ_Z1.dsp_slices == XC7Z020.dsp_slices
        assert PYNQ_Z1.bram_kbytes == XC7Z020.bram_kbytes

    def test_low_end_smaller_than_high_end(self):
        assert XC7A50T.dsp_slices < XC7Z020.dsp_slices < XCZU9EG.dsp_slices
        assert XC7A50T.bram_kbytes < XC7Z020.bram_kbytes


class TestValidation:
    @pytest.mark.parametrize("field", [
        "dsp_slices", "bram_kbytes", "bandwidth_gbps", "clock_mhz"
    ])
    def test_rejects_non_positive(self, field):
        kwargs = dict(name="x", dsp_slices=10, bram_kbytes=10,
                      bandwidth_gbps=1.0, clock_mhz=100.0)
        kwargs[field] = 0
        with pytest.raises(ValueError, match=field):
            FpgaDevice(**kwargs)


class TestConversions:
    def test_cycle_time(self):
        dev = FpgaDevice("x", 10, 10, 1.0, clock_mhz=100.0)
        assert dev.cycle_time_us == pytest.approx(0.01)

    def test_cycles_to_ms_at_100mhz(self):
        dev = FpgaDevice("x", 10, 10, 1.0, clock_mhz=100.0)
        assert dev.cycles_to_ms(100_000) == pytest.approx(1.0)

    def test_ms_to_cycles_roundtrip(self):
        dev = PYNQ_Z1
        assert dev.cycles_to_ms(dev.ms_to_cycles(7.5)) == pytest.approx(7.5)

    def test_cycles_to_ms_rejects_negative(self):
        with pytest.raises(ValueError):
            PYNQ_Z1.cycles_to_ms(-1)

    def test_ms_to_cycles_rejects_negative(self):
        with pytest.raises(ValueError):
            PYNQ_Z1.ms_to_cycles(-0.1)

    def test_bram_bytes(self):
        dev = FpgaDevice("x", 10, bram_kbytes=2, bandwidth_gbps=1.0,
                         clock_mhz=100.0)
        assert dev.bram_bytes == 2048

    def test_bytes_per_cycle(self):
        # 8 Gb/s = 1 GB/s; at 100 MHz that is 10 bytes/cycle.
        dev = FpgaDevice("x", 10, 10, bandwidth_gbps=8.0, clock_mhz=100.0)
        assert dev.bytes_per_cycle == pytest.approx(10.0)


class TestScaled:
    def test_scaled_halves_resources(self):
        half = XC7Z020.scaled(0.5)
        assert half.dsp_slices == 110
        assert half.clock_mhz == XC7Z020.clock_mhz

    def test_scaled_names(self):
        assert XC7Z020.scaled(2).name == "xc7z020x2"
        assert XC7Z020.scaled(2, name="big").name == "big"

    def test_scaled_never_drops_to_zero(self):
        tiny = XC7Z020.scaled(1e-9)
        assert tiny.dsp_slices >= 1
        assert tiny.bram_kbytes >= 1

    def test_scaled_rejects_non_positive(self):
        with pytest.raises(ValueError):
            XC7Z020.scaled(0)

    def test_compute_axis_scales_only_dsps(self):
        doubled = XC7Z020.scaled(compute=2)
        assert doubled.dsp_slices == 2 * XC7Z020.dsp_slices
        assert doubled.bram_kbytes == XC7Z020.bram_kbytes
        assert doubled.bandwidth_gbps == XC7Z020.bandwidth_gbps
        assert doubled.clock_mhz == XC7Z020.clock_mhz
        assert doubled.name == "xc7z020xc2"

    def test_memory_axis_scales_bram_and_bandwidth(self):
        halved = XC7Z020.scaled(memory=0.5)
        assert halved.dsp_slices == XC7Z020.dsp_slices
        assert halved.bram_kbytes == XC7Z020.bram_kbytes // 2
        assert halved.bandwidth_gbps == pytest.approx(
            XC7Z020.bandwidth_gbps / 2
        )
        assert halved.name == "xc7z020xm0.5"

    def test_axes_combine(self):
        both = XC7Z020.scaled(compute=2, memory=0.5)
        assert both.dsp_slices == 2 * XC7Z020.dsp_slices
        assert both.bram_kbytes == XC7Z020.bram_kbytes // 2
        assert both.name == "xc7z020xc2m0.5"

    def test_uniform_factor_and_axes_are_exclusive(self):
        with pytest.raises(ValueError):
            XC7Z020.scaled(2, compute=2)
        with pytest.raises(ValueError):
            XC7Z020.scaled()

    def test_dram_is_never_scaled(self):
        """Pinned: scaling must not touch the burst-level DRAM model."""
        from repro.fpga.device import XC7Z020_DDR_NARROW, XC7Z020_DDR_WIDE

        for device in (XC7Z020_DDR_WIDE, XC7Z020_DDR_NARROW):
            for variant in (device.scaled(2), device.scaled(compute=4),
                            device.scaled(memory=0.25)):
                assert variant.dram is device.dram

    def test_paper_devices_have_no_dram(self):
        """Pinned: the seed catalog stays on the flat memory model."""
        for device in (XC7A50T, XC7Z020, PYNQ_Z1, XCZU9EG):
            assert device.dram is None
