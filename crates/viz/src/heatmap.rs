//! Heat-map rendering over point data — the paper's headline visual
//! analysis task (Figures 1 and 2).
//!
//! A heat map here is a `W × H` density grid over a bounding box, with a
//! Gaussian-ish splat per point (so sparse samples produce smooth maps,
//! like Tableau's density marks), normalized and color-mapped into an RGB
//! pixel buffer. [`Heatmap::diff`] quantifies how different two maps look
//! — the number the paper's Figure 2 narrative ("SampleFirst misses the
//! airport") makes visually.

use tabula_storage::Point;

/// Heat-map configuration.
#[derive(Debug, Clone, Copy)]
pub struct HeatmapConfig {
    /// Grid width in cells.
    pub width: usize,
    /// Grid height in cells.
    pub height: usize,
    /// Bounding box: min corner.
    pub min: Point,
    /// Bounding box: max corner.
    pub max: Point,
    /// Splat radius in cells (0 = plain binning).
    pub splat_radius: usize,
}

impl Default for HeatmapConfig {
    fn default() -> Self {
        // The unit square used by the synthetic NYC generator.
        HeatmapConfig {
            width: 128,
            height: 128,
            min: Point::new(0.0, 0.0),
            max: Point::new(1.0, 1.0),
            splat_radius: 2,
        }
    }
}

/// Side of the default splat (radius 2), the one with a fixed-width path.
const FAST_SIDE: usize = 5;

/// A rendered heat map: densities plus the rendered pixels.
#[derive(Debug, Clone)]
pub struct Heatmap {
    config: HeatmapConfig,
    /// Accumulated density per cell, row-major, normalized to `[0, 1]`.
    density: Vec<f64>,
}

impl Heatmap {
    /// Render a heat map of `points` under `config`.
    pub fn render(points: &[Point], config: HeatmapConfig) -> Self {
        assert!(config.width > 0 && config.height > 0, "empty grid");
        let mut density = vec![0.0f64; config.width * config.height];
        let span_x = (config.max.x - config.min.x).max(1e-12);
        let span_y = (config.max.y - config.min.y).max(1e-12);
        let (w, h) = (config.width as isize, config.height as isize);
        let r = config.splat_radius as isize;
        // Gaussian falloff with σ ≈ radius/2: one weight per offset of the
        // (2r+1)² splat, shared by every point.
        let sigma = (config.splat_radius as f64 / 2.0).max(0.5);
        let side = 2 * r + 1;
        let stencil: Vec<f64> = (-r..=r)
            .flat_map(|dy| {
                (-r..=r)
                    .map(move |dx| (-((dx * dx + dy * dy) as f64) / (2.0 * sigma * sigma)).exp())
            })
            .collect();
        // The default radius gets its stencil as a fixed 5 × 5 block, so a
        // point whose whole splat is on the grid adds five 5-wide rows with
        // no clipping and one bounds check a row.
        let block: Option<[[f64; FAST_SIDE]; FAST_SIDE]> = (side as usize == FAST_SIDE)
            .then(|| std::array::from_fn(|y| std::array::from_fn(|x| stencil[y * FAST_SIDE + x])));
        // Rows any splat reached: everything outside them is still 0.
        let (mut top, mut bottom) = (h, 0);
        for p in points {
            let fx = (p.x - config.min.x) / span_x * config.width as f64;
            let fy = (p.y - config.min.y) / span_y * config.height as f64;
            // Truncation is `floor` wherever the clamp does not decide: a
            // negative coordinate lands on cell 0 either way (NaN too).
            let cx = (fx as isize).clamp(0, w - 1);
            let cy = (fy as isize).clamp(0, h - 1);
            let (x0, x1) = ((cx - r).max(0), (cx + r).min(w - 1));
            let (y0, y1) = ((cy - r).max(0), (cy + r).min(h - 1));
            (top, bottom) = (top.min(y0), bottom.max(y1 + 1));
            match &block {
                Some(block) if x1 - x0 == 2 * r && y1 - y0 == 2 * r => {
                    for (dy, weights) in block.iter().enumerate() {
                        let at = (y0 as usize + dy) * config.width + x0 as usize;
                        let cells: &mut [f64; FAST_SIDE] =
                            (&mut density[at..at + FAST_SIDE]).try_into().expect("5 cells");
                        for (cell, weight) in cells.iter_mut().zip(weights) {
                            *cell += weight;
                        }
                    }
                }
                // The part of the splat that falls on the grid, row by row.
                _ => {
                    for y in y0..=y1 {
                        let weights = &stencil[((y - cy + r) * side + (x0 - cx + r)) as usize..];
                        let cells = &mut density[(y * w + x0) as usize..=(y * w + x1) as usize];
                        for (cell, weight) in cells.iter_mut().zip(weights) {
                            *cell += weight;
                        }
                    }
                }
            }
        }
        // Normalize to [0, 1] so maps of different sample sizes compare.
        // Densities are sums of positive finite weights, so the maximum is
        // the same in any order: independent lanes, not one 16 384-long
        // dependency chain.
        let touched =
            &mut density[top.min(bottom) as usize * config.width..bottom as usize * config.width];
        let mut lanes = [0.0f64; 8];
        let mut chunks = touched.chunks_exact(8);
        for chunk in &mut chunks {
            for (lane, &d) in lanes.iter_mut().zip(chunk) {
                if d > *lane {
                    *lane = d;
                }
            }
        }
        let max = lanes.iter().chain(chunks.remainder()).cloned().fold(0.0f64, f64::max);
        if max > 0.0 {
            for d in touched {
                *d /= max;
            }
        }
        Heatmap { config, density }
    }

    /// The configuration the map was rendered with.
    pub fn config(&self) -> &HeatmapConfig {
        &self.config
    }

    /// Normalized density at `(x, y)`.
    pub fn density_at(&self, x: usize, y: usize) -> f64 {
        self.density[y * self.config.width + x]
    }

    /// The normalized density grid, row-major.
    pub fn densities(&self) -> &[f64] {
        &self.density
    }

    /// Mean absolute per-cell difference between two maps rendered with
    /// the same configuration, in `[0, 1]`. Two maps of the same
    /// population rendered from a good sample and from the raw data score
    /// near 0; a map missing a cluster scores visibly higher.
    pub fn diff(&self, other: &Heatmap) -> f64 {
        assert_eq!(self.density.len(), other.density.len(), "grid shapes differ");
        let n = self.density.len() as f64;
        self.density.iter().zip(&other.density).map(|(a, b)| (a - b).abs()).sum::<f64>() / n
    }

    /// Fraction of cells that are "hot" (density above `threshold`) in
    /// `self` but cold in `other` — detects missing clusters
    /// specifically.
    pub fn missing_hot_cells(&self, other: &Heatmap, threshold: f64) -> f64 {
        let hot: usize = self.density.iter().filter(|&&d| d > threshold).count();
        if hot == 0 {
            return 0.0;
        }
        let missed = self
            .density
            .iter()
            .zip(&other.density)
            .filter(|(&a, &b)| a > threshold && b <= threshold / 4.0)
            .count();
        missed as f64 / hot as f64
    }

    /// Render to RGB pixels with a perceptual-ish "inferno-like" ramp.
    pub fn to_rgb(&self) -> Vec<[u8; 3]> {
        self.density.iter().map(|&d| colormap(d)).collect()
    }

    /// Serialize as a binary PPM (P6) image.
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.density.len() * 3 + 32);
        out.extend_from_slice(
            format!("P6\n{} {}\n255\n", self.config.width, self.config.height).as_bytes(),
        );
        for px in self.to_rgb() {
            out.extend_from_slice(&px);
        }
        out
    }
}

/// Simple dark-blue → orange → yellow ramp.
fn colormap(v: f64) -> [u8; 3] {
    let v = v.clamp(0.0, 1.0);
    let r = (255.0 * (v * 1.6).min(1.0)) as u8;
    let g = (255.0 * (v * v * 1.2).min(1.0)) as u8;
    let b = (255.0 * (0.3 + 0.4 * (1.0 - v) - 0.3 * v).clamp(0.0, 1.0)) as u8;
    [r, g, b]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(cx: f64, cy: f64, n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let a = i as f64 * 0.618;
                Point::new(cx + 0.01 * a.sin(), cy + 0.01 * a.cos())
            })
            .collect()
    }

    #[test]
    fn density_concentrates_where_points_are() {
        let pts = cluster(0.25, 0.25, 200);
        let hm = Heatmap::render(&pts, HeatmapConfig::default());
        let near = hm.density_at(32, 32); // (0.25, 0.25) in a 128-grid
        let far = hm.density_at(100, 100);
        assert!(near > 0.5, "near {near}");
        assert!(far < 0.05, "far {far}");
    }

    /// `render` before the stencil: σ and the weight recomputed inside
    /// the offset loops, off-grid offsets skipped one by one.
    fn render_per_cell(points: &[Point], config: HeatmapConfig) -> Vec<f64> {
        let mut density = vec![0.0f64; config.width * config.height];
        let span_x = (config.max.x - config.min.x).max(1e-12);
        let span_y = (config.max.y - config.min.y).max(1e-12);
        let r = config.splat_radius as isize;
        for p in points {
            let fx = (p.x - config.min.x) / span_x * config.width as f64;
            let fy = (p.y - config.min.y) / span_y * config.height as f64;
            let cx = (fx.floor() as isize).clamp(0, config.width as isize - 1);
            let cy = (fy.floor() as isize).clamp(0, config.height as isize - 1);
            for dy in -r..=r {
                for dx in -r..=r {
                    let (x, y) = (cx + dx, cy + dy);
                    if x < 0 || y < 0 || x >= config.width as isize || y >= config.height as isize {
                        continue;
                    }
                    let d2 = (dx * dx + dy * dy) as f64;
                    let sigma = (config.splat_radius as f64 / 2.0).max(0.5);
                    let w = (-d2 / (2.0 * sigma * sigma)).exp();
                    density[y as usize * config.width + x as usize] += w;
                }
            }
        }
        let max = density.iter().cloned().fold(0.0f64, f64::max);
        if max > 0.0 {
            for d in &mut density {
                *d /= max;
            }
        }
        density
    }

    #[test]
    fn stencil_render_is_bit_identical_to_per_cell_weights() {
        // Two clusters, a band of rows, every corner and edge (on it, one
        // cell inside, just outside), the centre, points far outside the
        // box (clamped onto the border cells) and coordinates that are not
        // numbers at all.
        let mut mixed = cluster(0.3, 0.6, 150);
        mixed.extend(cluster(0.97, 0.02, 40));
        mixed.extend((0..200).map(|i| Point::new(i as f64 / 200.0, 0.4 + 0.001 * (i % 97) as f64)));
        let border = [0.0, 1e-9, 1.0 / 128.0, 0.02, 0.5, 0.98, 1.0 - 1e-9, 1.0, -1e-9, 1.0 + 1e-9];
        for x in border {
            mixed.extend(border.map(|y| Point::new(x, y)));
        }
        for (x, y) in [(-3.0, 0.4), (0.4, 7.0), (1.5, -0.2), (-1.0, -1.0), (-0.0, 0.5)] {
            mixed.push(Point::new(x, y));
        }
        let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::MAX, f64::MIN, 0.5];
        for x in odd {
            mixed.extend(odd.map(|y| Point::new(x, y)));
        }
        let inputs = [
            ("mixed", mixed),
            ("empty", vec![]),
            ("single point", vec![Point::new(0.37, 0.61)]),
            ("single corner point", vec![Point::new(1.0, 0.0)]),
            ("one cell", vec![Point::new(0.5001, 0.5002); 300]),
            ("one row", (0..128).map(|i| Point::new(i as f64 / 128.0, 0.7)).collect()),
        ];
        let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (name, pts) in &inputs {
            for (width, height) in
                [(128, 128), (64, 200), (200, 64), (7, 3), (3, 7), (5, 5), (1, 1)]
            {
                for splat_radius in [0, 1, 2, 3, 5] {
                    let cfg = HeatmapConfig { width, height, splat_radius, ..Default::default() };
                    let got = Heatmap::render(pts, cfg);
                    let want = render_per_cell(pts, cfg);
                    assert_eq!(
                        bits(got.densities()),
                        bits(&want),
                        "{name} {width}x{height} r={splat_radius}"
                    );
                }
            }
        }
        // A box that is not the unit square, and one with no extent.
        for (min, max) in [
            (Point::new(-2.0, 3.0), Point::new(5.0, 4.5)),
            (Point::new(0.5, 0.5), Point::new(0.5, 0.5)),
        ] {
            let cfg = HeatmapConfig { min, max, ..Default::default() };
            let got = Heatmap::render(&inputs[0].1, cfg);
            assert_eq!(bits(got.densities()), bits(&render_per_cell(&inputs[0].1, cfg)));
        }
    }

    #[test]
    fn identical_point_sets_have_zero_diff() {
        let pts = cluster(0.5, 0.5, 100);
        let a = Heatmap::render(&pts, HeatmapConfig::default());
        let b = Heatmap::render(&pts, HeatmapConfig::default());
        assert_eq!(a.diff(&b), 0.0);
    }

    #[test]
    fn missing_cluster_is_detected() {
        // Full data: two clusters. Bad sample: only one.
        let mut full = cluster(0.2, 0.2, 300);
        full.extend(cluster(0.8, 0.8, 60));
        let bad_sample = cluster(0.2, 0.2, 50);
        let cfg = HeatmapConfig::default();
        let full_map = Heatmap::render(&full, cfg);
        let bad_map = Heatmap::render(&bad_sample, cfg);
        let good_sample: Vec<Point> = full.iter().step_by(2).cloned().collect();
        let good_map = Heatmap::render(&good_sample, cfg);
        assert!(full_map.diff(&bad_map) > full_map.diff(&good_map));
        // The minority cluster normalizes to ~0.2 density (60 vs 300
        // points), so a 0.1 threshold marks it hot; the bad sample misses
        // it entirely while the uniform sample preserves it.
        assert!(
            full_map.missing_hot_cells(&bad_map, 0.1) > full_map.missing_hot_cells(&good_map, 0.1)
        );
    }

    #[test]
    fn empty_input_renders_blank() {
        let hm = Heatmap::render(&[], HeatmapConfig::default());
        assert!(hm.densities().iter().all(|&d| d == 0.0));
    }

    #[test]
    fn out_of_bounds_points_clamp_into_the_grid() {
        let pts = vec![Point::new(-5.0, 0.5), Point::new(5.0, 0.5)];
        let hm = Heatmap::render(&pts, HeatmapConfig::default());
        // Mass lands on the left/right edges rather than vanishing.
        let left: f64 = (0..128).map(|y| hm.density_at(0, y)).sum();
        let right: f64 = (0..128).map(|y| hm.density_at(127, y)).sum();
        assert!(left > 0.0 && right > 0.0);
    }

    #[test]
    fn ppm_header_and_size() {
        let pts = cluster(0.5, 0.5, 10);
        let cfg = HeatmapConfig { width: 16, height: 8, ..Default::default() };
        let ppm = Heatmap::render(&pts, cfg).to_ppm();
        assert!(ppm.starts_with(b"P6\n16 8\n255\n"));
        assert_eq!(ppm.len(), b"P6\n16 8\n255\n".len() + 16 * 8 * 3);
    }

    #[test]
    fn splat_radius_zero_is_plain_binning() {
        let pts = vec![Point::new(0.5, 0.5)];
        let cfg = HeatmapConfig { splat_radius: 0, ..Default::default() };
        let hm = Heatmap::render(&pts, cfg);
        let nonzero = hm.densities().iter().filter(|&&d| d > 0.0).count();
        assert_eq!(nonzero, 1);
    }
}
