//! Minimal image output for the figure-regeneration binaries: binary PGM
//! (P5) axial slices.

use std::io::Write;
use std::path::Path;

use diffreg_grid::Grid;

/// Extracts axial slice `i0` (a `n1 x n2` plane) from a full-grid array.
pub fn axial_slice(full: &[f64], grid: &Grid, i0: usize) -> Vec<f64> {
    assert_eq!(full.len(), grid.total());
    assert!(i0 < grid.n[0]);
    let plane = grid.n[1] * grid.n[2];
    full[i0 * plane..(i0 + 1) * plane].to_vec()
}

/// Writes a `width x height` scalar plane as an 8-bit binary PGM, linearly
/// mapping `[lo, hi]` to `[0, 255]`.
pub fn write_pgm(
    path: impl AsRef<Path>,
    plane: &[f64],
    width: usize,
    height: usize,
    lo: f64,
    hi: f64,
) -> std::io::Result<()> {
    assert_eq!(plane.len(), width * height);
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "P5\n{width} {height}\n255")?;
    let scale = if hi > lo { 255.0 / (hi - lo) } else { 0.0 };
    let bytes: Vec<u8> =
        plane.iter().map(|&v| (((v - lo) * scale).clamp(0.0, 255.0)) as u8).collect();
    f.write_all(&bytes)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pgm_roundtrip_header() {
        let dir = std::env::temp_dir().join("diffreg_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.pgm");
        let plane = vec![0.0, 0.5, 1.0, 0.25];
        write_pgm(&p, &plane, 2, 2, 0.0, 1.0).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        assert!(bytes.starts_with(b"P5\n2 2\n255\n"));
        let data = &bytes[bytes.len() - 4..];
        assert_eq!(data[0], 0);
        assert_eq!(data[2], 255);
    }

    #[test]
    fn slice_extraction() {
        let grid = Grid::new([3, 2, 2]);
        let vol: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let s = axial_slice(&vol, &grid, 1);
        assert_eq!(s, vec![4.0, 5.0, 6.0, 7.0]);
    }
}
