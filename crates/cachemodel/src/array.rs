//! The SRAM array model: per-access dynamic energy, leakage power,
//! area and access delay of one homogeneous bitcell array.
//!
//! An array is `rows x cols` bitcells of one [`SizedCell`] type, with
//! `cols_per_access` columns actually sensed/driven per access (column
//! multiplexing). Reads develop a partial swing on every precharged
//! bitline of the activated row; writes drive the selected columns
//! full-swing. This is the same structural decomposition CACTI uses,
//! reduced to the terms that differ across the paper's design points.

use crate::params::TechnologyParams;
use hyvec_sram::SizedCell;

/// One homogeneous SRAM array (e.g. the data array of one cache way).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramArray {
    cell: SizedCell,
    rows: u32,
    cols: u32,
    cols_per_access: u32,
    tech: TechnologyParams,
}

impl SramArray {
    /// Creates an array of `rows x cols` cells of which
    /// `cols_per_access` are sensed or written per access.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `cols_per_access > cols`.
    pub fn new(
        cell: SizedCell,
        rows: u32,
        cols: u32,
        cols_per_access: u32,
        tech: TechnologyParams,
    ) -> Self {
        // hyvec-lint: allow(no-panic, "documented precondition (# Panics): a zero-dimension array is a caller bug")
        assert!(rows > 0 && cols > 0, "array dimensions must be nonzero");
        // hyvec-lint: allow(no-panic, "documented precondition (# Panics): access width must fit the physical row")
        assert!(
            cols_per_access > 0 && cols_per_access <= cols,
            "cols_per_access must be in 1..=cols (got {cols_per_access} of {cols})"
        );
        SramArray {
            cell,
            rows,
            cols,
            cols_per_access,
            tech,
        }
    }

    /// Lays out `bits` storage bits as an array delivering
    /// `word_bits` per access, folding wordlines so that the physical
    /// row width is `fold * word_bits` and the row count stays near the
    /// given target (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not a multiple of `word_bits`.
    pub fn for_bits(
        cell: SizedCell,
        bits: u64,
        word_bits: u32,
        target_rows: u32,
        tech: TechnologyParams,
    ) -> Self {
        // hyvec-lint: allow(no-panic, "documented precondition (# Panics): fractional words cannot be laid out")
        assert!(
            bits.is_multiple_of(u64::from(word_bits)),
            "bits ({bits}) must be a multiple of word_bits ({word_bits})"
        );
        let words = bits / u64::from(word_bits);
        // Choose the fold (words per physical row) bringing the row
        // count closest to the target without exceeding the word count.
        let mut fold = 1u64;
        while words / fold > u64::from(target_rows) && fold < words {
            fold *= 2;
        }
        let rows = (words / fold).max(1) as u32;
        let cols = (fold as u32) * word_bits;
        SramArray::new(cell, rows, cols, word_bits, tech)
    }

    /// The bitcell of the array.
    pub fn cell(&self) -> &SizedCell {
        &self.cell
    }

    /// Number of physical rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of physical columns.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Columns sensed/driven per access.
    pub fn cols_per_access(&self) -> u32 {
        self.cols_per_access
    }

    /// Total bit capacity.
    pub fn bits(&self) -> u64 {
        u64::from(self.rows) * u64::from(self.cols)
    }

    /// Capacitance of one full bitline, fF: the drain load of every
    /// cell on the column plus the wire running the column height.
    pub fn bitline_cap_ff(&self) -> f64 {
        f64::from(self.rows)
            * (self.cell.bitline_cap_ff() + self.tech.wire_cap_ff_per_um * self.cell.height_um())
    }

    /// Capacitance of one wordline, fF.
    pub fn wordline_cap_ff(&self) -> f64 {
        f64::from(self.cols)
            * (self.cell.wordline_cap_ff() + self.tech.wire_cap_ff_per_um * self.cell.width_um())
    }

    fn periphery_energy_fj(&self, vdd: f64) -> f64 {
        let cap = self.tech.decoder_base_ff
            + self.tech.decoder_cap_per_row_ff * f64::from(self.rows)
            + self.tech.precharge_ff_per_col * f64::from(self.cols)
            + (self.tech.sense_amp_ff + self.tech.output_driver_ff)
                * f64::from(self.cols_per_access);
        cap * vdd * vdd
    }

    /// Dynamic energy of one read access at supply `vdd`, in pJ.
    ///
    /// Every column of the activated row develops the cell's read
    /// swing on its `read_bitlines` bitlines; the selected columns
    /// additionally fire sense amps and output drivers.
    pub fn read_energy_pj(&self, vdd: f64) -> f64 {
        let kind = self.cell.kind();
        let swing = kind.read_swing_fraction() * vdd;
        let bitlines = f64::from(self.cols)
            * f64::from(kind.read_bitlines())
            * self.bitline_cap_ff()
            * vdd
            * swing;
        let wordline = self.wordline_cap_ff() * vdd * vdd;
        (bitlines + wordline + self.periphery_energy_fj(vdd)) / 1000.0
    }

    /// Dynamic energy of one write access at supply `vdd`, in pJ.
    ///
    /// Written columns swing full rail on both write bitlines; the
    /// remaining columns of the row still perform a dummy read swing.
    pub fn write_energy_pj(&self, vdd: f64) -> f64 {
        let kind = self.cell.kind();
        let written = f64::from(self.cols_per_access)
            * f64::from(kind.write_bitlines())
            * self.bitline_cap_ff()
            * vdd
            * vdd;
        let dummy = f64::from(self.cols - self.cols_per_access)
            * f64::from(kind.read_bitlines())
            * self.bitline_cap_ff()
            * vdd
            * (kind.read_swing_fraction() * vdd);
        let wordline = self.wordline_cap_ff() * vdd * vdd;
        (written + dummy + wordline + self.periphery_energy_fj(vdd)) / 1000.0
    }

    /// Static leakage power of the whole array at supply `vdd`, watts.
    pub fn leakage_w(&self, vdd: f64) -> f64 {
        self.bits() as f64 * self.cell.leakage_na(vdd) * 1e-9 * vdd
    }

    /// Macro area including periphery, µm².
    pub fn area_um2(&self) -> f64 {
        self.bits() as f64 * self.cell.area_um2() / self.tech.array_efficiency
    }

    /// Access delay at supply `vdd`, ns (decoder + wordline + bitline +
    /// sense, folded into the cell delay factor and a row-count term).
    pub fn access_delay_ns(&self, vdd: f64) -> f64 {
        self.tech.base_delay_ns * self.cell.delay_factor(vdd) * (f64::from(self.rows) / 64.0).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::OperatingPoint;
    use hyvec_sram::CellKind;

    fn tech() -> TechnologyParams {
        TechnologyParams::nm32()
    }

    fn array(kind: CellKind, sizing: f64) -> SramArray {
        SramArray::new(SizedCell::new(kind, sizing), 64, 128, 32, tech())
    }

    #[test]
    fn for_bits_shapes() {
        let cell = SizedCell::new(CellKind::Sram6T, 1.0);
        // 1KB way: 8192 bits of 32-bit words, targeting 64 rows.
        let a = SramArray::for_bits(cell, 8192, 32, 64, tech());
        assert_eq!(a.bits(), 8192);
        assert_eq!(a.rows(), 64);
        assert_eq!(a.cols(), 128);
        assert_eq!(a.cols_per_access(), 32);
        // Tag array: 32 tags of 26 bits, fits in 32 rows directly.
        let t = SramArray::for_bits(cell, 32 * 26, 26, 64, tech());
        assert_eq!(t.rows(), 32);
        assert_eq!(t.cols(), 26);
    }

    #[test]
    #[should_panic(expected = "multiple of word_bits")]
    fn for_bits_rejects_ragged() {
        let cell = SizedCell::new(CellKind::Sram6T, 1.0);
        let _ = SramArray::for_bits(cell, 100, 32, 64, tech());
    }

    #[test]
    fn read_energy_scales_with_voltage() {
        let a = array(CellKind::Sram6T, 1.0);
        let hp = a.read_energy_pj(OperatingPoint::hp().vdd);
        let ule = a.read_energy_pj(OperatingPoint::ule().vdd);
        assert!(hp > 0.0 && ule > 0.0);
        // Energy ~ V^2: 0.35^2 ~ 0.12.
        let ratio = ule / hp;
        assert!(
            ratio > 0.08 && ratio < 0.16,
            "V^2 scaling violated: {ratio}"
        );
    }

    #[test]
    fn ten_t_way_reads_cost_more_than_8t() {
        // The heart of the paper's HP-mode savings: a sized-up 10T way
        // burns more read energy than a modestly sized 8T way.
        let t10 = array(CellKind::Sram10T, 2.15);
        let t8 = array(CellKind::Sram8T, 1.8);
        assert!(
            t10.read_energy_pj(1.0) > 1.5 * t8.read_energy_pj(1.0),
            "10T {} vs 8T {}",
            t10.read_energy_pj(1.0),
            t8.read_energy_pj(1.0)
        );
    }

    #[test]
    fn writes_cost_more_than_reads() {
        let a = array(CellKind::Sram6T, 1.0);
        assert!(a.write_energy_pj(1.0) > a.read_energy_pj(1.0) * 0.5);
        assert!(a.write_energy_pj(1.0) > 0.0);
    }

    #[test]
    fn leakage_tracks_cell_count_and_voltage() {
        let small = SramArray::new(SizedCell::new(CellKind::Sram6T, 1.0), 32, 64, 32, tech());
        let big = SramArray::new(SizedCell::new(CellKind::Sram6T, 1.0), 64, 128, 32, tech());
        assert!((big.leakage_w(1.0) / small.leakage_w(1.0) - 4.0).abs() < 1e-9);
        assert!(big.leakage_w(0.35) < big.leakage_w(1.0));
    }

    #[test]
    fn area_ordering_follows_cells() {
        let a6 = array(CellKind::Sram6T, 1.0);
        let a8 = array(CellKind::Sram8T, 1.0);
        let a10 = array(CellKind::Sram10T, 1.0);
        assert!(a6.area_um2() < a8.area_um2());
        assert!(a8.area_um2() < a10.area_um2());
    }

    #[test]
    fn delay_meets_paper_frequencies() {
        // HP ways (6T, min size) must make 1GHz at 1V.
        let hp_way = array(CellKind::Sram6T, 1.0);
        assert!(hp_way.access_delay_ns(1.0) <= 1.0, "6T must meet 1ns at 1V");
        // ULE way (sized 10T) must make 5MHz at 350mV.
        let ule_way = array(CellKind::Sram10T, 2.15);
        assert!(
            ule_way.access_delay_ns(0.35) <= 200.0,
            "10T must meet 200ns at 350mV: {} ns",
            ule_way.access_delay_ns(0.35)
        );
        // ...but not 1GHz at 350mV.
        assert!(ule_way.access_delay_ns(0.35) > 1.0);
    }

    #[test]
    fn bitline_cap_grows_with_rows_and_sizing() {
        let short = SramArray::new(SizedCell::new(CellKind::Sram8T, 1.0), 32, 64, 32, tech());
        let tall = SramArray::new(SizedCell::new(CellKind::Sram8T, 1.0), 128, 64, 32, tech());
        assert!(tall.bitline_cap_ff() > 3.9 * short.bitline_cap_ff());
        let sized = SramArray::new(SizedCell::new(CellKind::Sram8T, 2.0), 32, 64, 32, tech());
        assert!(sized.bitline_cap_ff() > short.bitline_cap_ff());
    }

    #[test]
    #[should_panic(expected = "cols_per_access")]
    fn rejects_overwide_access() {
        let _ = SramArray::new(SizedCell::new(CellKind::Sram6T, 1.0), 8, 8, 9, tech());
    }
}
