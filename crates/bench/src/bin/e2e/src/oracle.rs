//! What every import must return: the closed-form match for its policy,
//! tolerance and export schedule, and the seeded fill every landed array is
//! compared against.

/// A match policy, in the benchmark's own vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Acceptable region `[x - tol, x]`.
    RegL,
    /// Acceptable region `[x, x + tol]`.
    RegU,
    /// Acceptable region `[x - tol, x + tol]`, ties to the earlier export.
    Reg,
}

impl Policy {
    pub fn as_str(self) -> &'static str {
        match self {
            Policy::RegL => "REGL",
            Policy::RegU => "REGU",
            Policy::Reg => "REG",
        }
    }
}

/// An arithmetic timestamp series `t0 + i * dt`, `i < count`. Drivers and
/// oracle both go through [`Series::at`], so they agree to the last bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Series {
    pub t0: f64,
    pub dt: f64,
    pub count: usize,
}

impl Series {
    pub fn at(&self, i: usize) -> f64 {
        self.t0 + i as f64 * self.dt
    }

    /// Largest index whose timestamp is at or below `x`.
    fn last_at_or_below(&self, x: f64) -> Option<usize> {
        if self.count == 0 || self.at(0) > x {
            return None;
        }
        let guess = ((x - self.t0) / self.dt).floor().max(0.0) as usize;
        let mut i = guess.min(self.count - 1);
        while i + 1 < self.count && self.at(i + 1) <= x {
            i += 1;
        }
        while self.at(i) > x {
            i -= 1;
        }
        Some(i)
    }

    /// Smallest index whose timestamp is at or above `x`.
    fn first_at_or_above(&self, x: f64) -> Option<usize> {
        match self.last_at_or_below(x) {
            None => (self.count > 0).then_some(0),
            Some(i) if self.at(i) == x => Some(i),
            Some(i) => (i + 1 < self.count).then_some(i + 1),
        }
    }
}

/// The final collective answer to a request at `x`, given that the exporter
/// runs the whole series (so every request is eventually decided): the
/// in-region export closest to `x`, or `None` for NO MATCH.
pub fn expected_match(policy: Policy, tol: f64, exports: &Series, x: f64) -> Option<f64> {
    let lo = if policy == Policy::RegU { x } else { x - tol };
    let hi = if policy == Policy::RegL { x } else { x + tol };
    let below = exports
        .last_at_or_below(x)
        .map(|i| exports.at(i))
        .filter(|&t| t >= lo);
    let above = exports
        .first_at_or_above(x)
        .map(|i| exports.at(i))
        .filter(|&t| t <= hi);
    match policy {
        Policy::RegL => below,
        Policy::RegU => above,
        Policy::Reg => match (below, above) {
            (Some(b), Some(a)) => Some(if (b - x).abs() <= (a - x).abs() { b } else { a }),
            (b, a) => b.or(a),
        },
    }
}

/// A rectangle of the global grid (rows × cols, row-major).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rect {
    pub row0: usize,
    pub col0: usize,
    pub rows: usize,
    pub cols: usize,
}

impl Rect {
    pub fn cells(&self) -> usize {
        self.rows * self.cols
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The timestamp phase a seed selects: a multiple of 1/64 in `(0, 1)`, so
/// every timestamp built from it is exact in binary.
pub fn seed_phase(seed: u64) -> f64 {
    (1 + splitmix64(seed ^ 0x5EED) % 63) as f64 / 64.0
}

/// The seeded payload. Every cell holds a position-dependent base value;
/// the cells on a sparse lattice (*stamps*) additionally carry the export's
/// timestamp. An exporter fills its piece once and re-stamps it per export
/// (a few hundred stores, so generating data never competes with the
/// framework for the two cores); an importer checks the stamps of every
/// landed array and the whole array on a schedule.
#[derive(Debug, Clone, Copy)]
pub struct Fill {
    seed: u64,
    cols: usize,
    stamp_rows: usize,
    stamp_cols: usize,
}

impl Fill {
    pub fn new(seed: u64, rows: usize, cols: usize) -> Self {
        Fill {
            seed,
            cols,
            stamp_rows: (rows / 32).max(1),
            stamp_cols: (cols / 32).max(1),
        }
    }

    /// Base values are multiples of 2^-20 in `[0, 1)`: adding a timestamp
    /// below 2^32 with 1/64 granularity is exact, so two timestamps never
    /// stamp a cell alike.
    fn base(&self, row: usize, col: usize) -> f64 {
        let h =
            splitmix64(self.seed ^ ((row * self.cols + col) as u64).wrapping_mul(0x1_0000_01B3));
        (h >> 44) as f64 / (1u64 << 20) as f64
    }

    fn stamps(&self, rect: Rect) -> impl Iterator<Item = (usize, usize)> {
        let (sr, sc) = (self.stamp_rows, self.stamp_cols);
        let first = |x0: usize, step: usize| x0.div_ceil(step) * step;
        let (row_end, col_end) = (rect.row0 + rect.rows, rect.col0 + rect.cols);
        (first(rect.row0, sr)..row_end)
            .step_by(sr)
            .flat_map(move |r| {
                (first(rect.col0, sc)..col_end)
                    .step_by(sc)
                    .map(move |c| (r, c))
            })
    }

    /// Writes the base value of every cell of `rect` into `data`.
    pub fn fill(&self, rect: Rect, data: &mut [f64]) {
        assert_eq!(data.len(), rect.cells());
        for r in 0..rect.rows {
            for c in 0..rect.cols {
                data[r * rect.cols + c] = self.base(rect.row0 + r, rect.col0 + c);
            }
        }
    }

    /// Stamps `rect`'s lattice cells with `ts`.
    pub fn stamp(&self, rect: Rect, data: &mut [f64], ts: f64) {
        for (r, c) in self.stamps(rect) {
            data[(r - rect.row0) * rect.cols + (c - rect.col0)] = self.base(r, c) + ts;
        }
    }

    /// Whether every stamp of `rect` carries `ts`. A rect holding no stamp
    /// cannot be checked this way and fails, so workloads must size pieces
    /// above the lattice pitch.
    pub fn stamps_match(&self, rect: Rect, data: &[f64], ts: f64) -> bool {
        let mut seen = false;
        for (r, c) in self.stamps(rect) {
            seen = true;
            if data[(r - rect.row0) * rect.cols + (c - rect.col0)] != self.base(r, c) + ts {
                return false;
            }
        }
        seen
    }

    /// Whether every cell of `rect` holds what an export at `ts` put there.
    pub fn all_match(&self, rect: Rect, data: &[f64], ts: f64) -> bool {
        let (sr, sc) = (self.stamp_rows, self.stamp_cols);
        (0..rect.rows).all(|r| {
            let row = rect.row0 + r;
            (0..rect.cols).all(|c| {
                let col = rect.col0 + c;
                let stamp = row.is_multiple_of(sr) && col.is_multiple_of(sc);
                let want = self.base(row, col) + if stamp { ts } else { 0.0 };
                data[r * rect.cols + c] == want
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter;

    /// The closed form against the program's own matcher, replayed over the
    /// whole export history, for all three policies — including requests
    /// before, between, exactly on and past the exports, and a tolerance
    /// that reaches zero, one or several of them.
    #[test]
    fn closed_form_agrees_with_the_matcher() {
        let series = Series {
            t0: 3.0 + seed_phase(5),
            dt: 0.75,
            count: 40,
        };
        let exports: Vec<f64> = (0..series.count).map(|i| series.at(i)).collect();
        let mut checked = 0;
        for policy in [Policy::RegL, Policy::RegU, Policy::Reg] {
            for tol in [0.0, 0.25, 0.375, 0.75, 2.5] {
                for k in 0..160 {
                    let x = 1.0 + k as f64 * 0.1875;
                    // Only requests the full history decides: the matcher
                    // stays PENDING past the last export.
                    if x + tol >= exports[exports.len() - 1] {
                        continue;
                    }
                    let want = adapter::layers::reference_match(policy, tol, &exports, x)
                        .expect("decided against the full history");
                    assert_eq!(
                        expected_match(policy, tol, &series, x),
                        want,
                        "{policy:?} tol {tol} x {x}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 1500, "the sweep must not be vacuous: {checked}");
    }

    #[test]
    fn exact_requests_match_themselves() {
        let s = Series {
            t0: 1.25,
            dt: 1.0,
            count: 10,
        };
        for p in [Policy::RegL, Policy::RegU, Policy::Reg] {
            assert_eq!(expected_match(p, 0.4, &s, s.at(4)), Some(s.at(4)));
        }
        assert_eq!(expected_match(Policy::RegL, 0.1, &s, 4.0), None);
        // REG tie: 0.5 either side resolves to the earlier export.
        assert_eq!(expected_match(Policy::Reg, 0.5, &s, 4.75), Some(4.25));
    }

    #[test]
    fn fill_detects_wrong_version_wrong_place_and_gaps() {
        let fill = Fill::new(9, 64, 128);
        let rect = Rect {
            row0: 16,
            col0: 32,
            rows: 24,
            cols: 40,
        };
        let mut data = vec![0.0; rect.cells()];
        fill.fill(rect, &mut data);
        fill.stamp(rect, &mut data, 7.5);
        assert!(fill.stamps_match(rect, &data, 7.5));
        assert!(fill.all_match(rect, &data, 7.5));
        assert!(!fill.stamps_match(rect, &data, 8.5), "stale version");
        let shifted = Rect { col0: 33, ..rect };
        assert!(!fill.all_match(shifted, &data, 7.5), "misplaced piece");
        data[5] = f64::NAN;
        assert!(!fill.all_match(rect, &data, 7.5), "unwritten cell");
    }

    #[test]
    fn phase_is_exact_and_inside_the_unit_interval() {
        for seed in 0..200 {
            let p = seed_phase(seed);
            assert!(p > 0.0 && p < 1.0);
            assert_eq!((p * 64.0).fract(), 0.0);
        }
    }
}
