//! Seeded synthetic NYC taxi-trip generator.
//!
//! ## Spatial model
//!
//! Pickup locations live in a normalized `[0, 1]²` square covering a
//! ~62.5 km × 62.5 km region (so the paper's 250 m heat-map loss threshold
//! equals `0.004` in normalized units — the same normalization the paper
//! quotes under Figure 11). Locations are drawn from a mixture of Gaussian
//! clusters:
//!
//! * a dense Manhattan band (several overlapping clusters),
//! * tight JFK and LGA airport clusters,
//! * a diffuse outer-borough component.
//!
//! ## Why icebergs arise
//!
//! The mixture weights depend on the categorical attributes:
//!
//! * `rate_code = "jfk"` trips almost always start at JFK (and carry the
//!   historical $52 flat fare), so their spatial and fare distributions
//!   deviate hard from the global ones;
//! * `payment_type = "dispute"` trips are airport-heavy;
//! * `payment_type = "cash"` trips are Manhattan-heavy but keep a small
//!   airport sub-cluster — the pattern a pre-built random sample misses
//!   (the paper's Figure 2 red circle);
//! * tips are ≈20 % of fare for credit trips and unrecorded (0) for cash,
//!   so per-cell regression lines differ from the global one.
//!
//! Every deviation above makes the corresponding cube cells fail the
//! "global sample is good enough" test for tight thresholds, which is
//! exactly the workload the sampling cube exists to serve.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rand_distr_shim::sample_normal;
use tabula_storage::{ColumnType, Field, Point, Schema, Table, TableBuilder, Value};

/// Side length of the normalized unit square, in kilometres. 250 m ≈ 0.004
/// normalized — matching the paper's quoted normalization.
pub const EXTENT_KM: f64 = 62.5;

/// Convert metres to normalized units.
pub fn meters_to_norm(m: f64) -> f64 {
    m / (EXTENT_KM * 1000.0)
}

/// Convert normalized units to metres.
pub fn norm_to_meters(n: f64) -> f64 {
    n * EXTENT_KM * 1000.0
}

/// The seven categorical attributes used in the paper's experiments, in
/// the order the paper uses them ("we use the first 4, 5, 6, 7 attributes
/// in the predicates of data-system queries").
pub const CUBED_ATTRIBUTES: [&str; 7] = [
    "vendor_name",
    "pickup_weekday",
    "passenger_count",
    "payment_type",
    "rate_code",
    "store_and_fwd",
    "dropoff_weekday",
];

const VENDORS: [&str; 2] = ["CMT", "VTS"];
const WEEKDAYS: [&str; 7] = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"];
const PAYMENTS: [&str; 4] = ["cash", "credit", "dispute", "no_charge"];
const RATE_CODES: [&str; 5] = ["standard", "jfk", "newark", "nassau", "negotiated"];
const STORE_FWD: [&str; 2] = ["N", "Y"];

/// Configuration of the generator.
#[derive(Debug, Clone)]
pub struct TaxiConfig {
    /// Number of rows to generate.
    pub rows: usize,
    /// RNG seed; equal seeds produce identical tables.
    pub seed: u64,
}

impl Default for TaxiConfig {
    fn default() -> Self {
        TaxiConfig { rows: 100_000, seed: 42 }
    }
}

impl TaxiConfig {
    /// Config with `rows` rows and the default seed.
    pub fn with_rows(rows: usize) -> Self {
        TaxiConfig { rows, ..Default::default() }
    }
}

/// A named spatial cluster of the mixture model.
#[derive(Debug, Clone, Copy)]
struct Cluster {
    cx: f64,
    cy: f64,
    sigma: f64,
}

/// Manhattan band: overlapping clusters along a NE-pointing diagonal.
const MANHATTAN: [Cluster; 4] = [
    Cluster { cx: 0.42, cy: 0.50, sigma: 0.018 },
    Cluster { cx: 0.45, cy: 0.55, sigma: 0.020 },
    Cluster { cx: 0.48, cy: 0.61, sigma: 0.022 },
    Cluster { cx: 0.51, cy: 0.67, sigma: 0.025 },
];
/// JFK airport: tight, far to the south-east.
const JFK: Cluster = Cluster { cx: 0.78, cy: 0.22, sigma: 0.006 };
/// LaGuardia airport.
const LGA: Cluster = Cluster { cx: 0.62, cy: 0.58, sigma: 0.005 };
/// Outer-borough neighbourhoods: several moderate clusters rather than a
/// single diffuse blob — matching how trips actually concentrate around
/// commercial strips, and keeping the per-cell greedy sample sizes in the
/// ~10²-tuple regime the paper reports for its 250 m threshold.
const OUTER: [Cluster; 4] = [
    Cluster { cx: 0.58, cy: 0.40, sigma: 0.035 }, // Brooklyn
    Cluster { cx: 0.66, cy: 0.50, sigma: 0.040 }, // Queens
    Cluster { cx: 0.44, cy: 0.74, sigma: 0.030 }, // Bronx
    Cluster { cx: 0.30, cy: 0.35, sigma: 0.045 }, // Staten Island
];

/// Minimal inline normal sampling (Box–Muller). Kept local to avoid a
/// dependency on `rand_distr`, which is not on the allowed crate list.
mod rand_distr_shim {
    use rand::Rng;

    /// One sample of `N(mean, sigma²)`.
    pub fn sample_normal<R: Rng>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
        // Box–Muller transform; one of the pair is discarded for
        // simplicity (throughput is not a concern at these scales).
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + sigma * z
    }
}

/// The generator. Create with a [`TaxiConfig`], call [`TaxiGenerator::generate`].
#[derive(Debug, Clone)]
pub struct TaxiGenerator {
    config: TaxiConfig,
}

impl TaxiGenerator {
    /// A generator for `config`.
    pub fn new(config: TaxiConfig) -> Self {
        TaxiGenerator { config }
    }

    /// The schema of the generated table.
    pub fn schema() -> Schema {
        Schema::new(vec![
            Field::new("vendor_name", ColumnType::Str),
            Field::new("pickup_weekday", ColumnType::Str),
            Field::new("passenger_count", ColumnType::Int64),
            Field::new("payment_type", ColumnType::Str),
            Field::new("rate_code", ColumnType::Str),
            Field::new("store_and_fwd", ColumnType::Str),
            Field::new("dropoff_weekday", ColumnType::Str),
            Field::new("trip_distance", ColumnType::Float64),
            Field::new("fare_amount", ColumnType::Float64),
            Field::new("tip_amount", ColumnType::Float64),
            Field::new("pickup", ColumnType::Point),
        ])
    }

    /// Generate the table.
    pub fn generate(&self) -> Table {
        let mut rng = SmallRng::seed_from_u64(self.config.seed);
        let mut b = TableBuilder::with_capacity(Self::schema(), self.config.rows);
        for _ in 0..self.config.rows {
            let row = self.generate_row(&mut rng);
            // The generator always produces schema-conformant rows.
            b.push_row(&row).expect("generated row conforms to schema");
        }
        b.finish()
    }

    fn generate_row(&self, rng: &mut SmallRng) -> Vec<Value> {
        let vendor = VENDORS[rng.gen_range(0..VENDORS.len())];
        let pickup_weekday = WEEKDAYS[weighted_weekday(rng)];
        let passenger_count: i64 = weighted_passengers(rng);
        let payment = weighted_payment(rng);
        let rate_code = weighted_rate_code(rng);
        let store_fwd = if rng.gen_bool(0.05) { STORE_FWD[1] } else { STORE_FWD[0] };
        // Most trips end the same day; a few cross midnight.
        let dropoff_weekday = if rng.gen_bool(0.93) {
            pickup_weekday
        } else {
            WEEKDAYS[rng.gen_range(0..WEEKDAYS.len())]
        };

        let pickup = self.sample_pickup(rng, payment, rate_code);
        let trip_distance = sample_distance(rng, rate_code);
        let fare = sample_fare(rng, rate_code, trip_distance);
        let tip = sample_tip(rng, payment, fare);

        vec![
            vendor.into(),
            pickup_weekday.into(),
            passenger_count.into(),
            payment.into(),
            rate_code.into(),
            store_fwd.into(),
            dropoff_weekday.into(),
            trip_distance.into(),
            fare.into(),
            tip.into(),
            pickup.into(),
        ]
    }

    /// Sample a pickup location given the attributes that skew it.
    fn sample_pickup(&self, rng: &mut SmallRng, payment: &str, rate_code: &str) -> Point {
        // (manhattan, jfk, lga, outer) mixture weights.
        let weights: [f64; 4] = if rate_code == "jfk" {
            [0.05, 0.90, 0.0, 0.05]
        } else if rate_code == "newark" {
            // Modelled as outer-borough heavy (Newark itself is off-map).
            [0.10, 0.0, 0.10, 0.80]
        } else {
            match payment {
                "dispute" => [0.25, 0.40, 0.20, 0.15],
                "cash" => [0.62, 0.05, 0.05, 0.28],
                "no_charge" => [0.40, 0.10, 0.10, 0.40],
                // credit
                _ => [0.68, 0.08, 0.08, 0.16],
            }
        };
        let total: f64 = weights.iter().sum();
        let mut pick = rng.gen_range(0.0..total);
        let cluster = 'sel: {
            for (i, w) in weights.iter().enumerate() {
                if pick < *w {
                    break 'sel i;
                }
                pick -= w;
            }
            3
        };
        let c = match cluster {
            0 => MANHATTAN[rng.gen_range(0..MANHATTAN.len())],
            1 => JFK,
            2 => LGA,
            _ => OUTER[rng.gen_range(0..OUTER.len())],
        };
        let x = sample_normal(rng, c.cx, c.sigma).clamp(0.0, 1.0);
        let y = sample_normal(rng, c.cy, c.sigma).clamp(0.0, 1.0);
        Point::new(x, y)
    }
}

fn weighted_weekday(rng: &mut SmallRng) -> usize {
    // Fri/Sat are busier.
    const W: [f64; 7] = [0.13, 0.13, 0.13, 0.14, 0.17, 0.17, 0.13];
    weighted_index(rng, &W)
}

fn weighted_passengers(rng: &mut SmallRng) -> i64 {
    const W: [f64; 6] = [0.70, 0.13, 0.06, 0.04, 0.04, 0.03];
    weighted_index(rng, &W) as i64 + 1
}

fn weighted_payment(rng: &mut SmallRng) -> &'static str {
    const W: [f64; 4] = [0.38, 0.58, 0.02, 0.02];
    PAYMENTS[weighted_index(rng, &W)]
}

fn weighted_rate_code(rng: &mut SmallRng) -> &'static str {
    const W: [f64; 5] = [0.90, 0.05, 0.01, 0.01, 0.03];
    RATE_CODES[weighted_index(rng, &W)]
}

fn weighted_index(rng: &mut SmallRng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    let mut pick = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if pick < *w {
            return i;
        }
        pick -= w;
    }
    weights.len() - 1
}

fn sample_distance(rng: &mut SmallRng, rate_code: &str) -> f64 {
    match rate_code {
        // Airport runs are long.
        "jfk" => (sample_normal(rng, 17.0, 3.0)).clamp(8.0, 35.0),
        "newark" => (sample_normal(rng, 16.0, 4.0)).clamp(8.0, 35.0),
        _ => {
            // Log-normal-ish body of short city trips.
            let z = sample_normal(rng, 0.8, 0.7);
            z.exp().clamp(0.2, 40.0)
        }
    }
}

fn sample_fare(rng: &mut SmallRng, rate_code: &str, distance: f64) -> f64 {
    match rate_code {
        // Historical JFK flat fare.
        "jfk" => 52.0 + sample_normal(rng, 0.0, 1.5),
        _ => {
            let base = 2.5 + 2.5 * distance + sample_normal(rng, 0.0, 1.0);
            base.clamp(2.5, 250.0)
        }
    }
}

fn sample_tip(rng: &mut SmallRng, payment: &str, fare: f64) -> f64 {
    match payment {
        // Cash tips are not recorded in the real TLC data.
        "cash" => 0.0,
        "dispute" | "no_charge" => 0.0,
        _ => {
            let frac = sample_normal(rng, 0.20, 0.05).clamp(0.0, 0.5);
            (fare * frac).max(0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabula_storage::Predicate;

    fn small() -> Table {
        TaxiGenerator::new(TaxiConfig { rows: 20_000, seed: 7 }).generate()
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let a = TaxiGenerator::new(TaxiConfig { rows: 500, seed: 9 }).generate();
        let b = TaxiGenerator::new(TaxiConfig { rows: 500, seed: 9 }).generate();
        for row in [0usize, 100, 499] {
            assert_eq!(a.row(row), b.row(row));
        }
        let c = TaxiGenerator::new(TaxiConfig { rows: 500, seed: 10 }).generate();
        assert_ne!(a.row(0), c.row(0));
    }

    #[test]
    fn schema_matches_cubed_attribute_names() {
        let schema = TaxiGenerator::schema();
        for name in CUBED_ATTRIBUTES {
            assert!(schema.index_of(name).is_ok(), "missing {name}");
        }
        assert_eq!(schema.index_of("pickup").unwrap(), 10);
    }

    #[test]
    fn categorical_cardinalities_are_as_designed() {
        let t = small();
        let card = |name: &str| {
            let idx = t.schema().index_of(name).unwrap();
            t.cat(idx).unwrap().cardinality()
        };
        assert_eq!(card("vendor_name"), 2);
        assert_eq!(card("pickup_weekday"), 7);
        assert_eq!(card("passenger_count"), 6);
        assert_eq!(card("payment_type"), 4);
        assert_eq!(card("rate_code"), 5);
        assert_eq!(card("store_and_fwd"), 2);
        assert_eq!(card("dropoff_weekday"), 7);
    }

    #[test]
    fn jfk_rate_code_concentrates_at_airport() {
        let t = small();
        let rows = Predicate::eq("rate_code", "jfk").filter(&t).unwrap();
        assert!(rows.len() > 200, "expected a real jfk population");
        let pickups = t.column_by_name("pickup").unwrap().as_point_slice().unwrap();
        let near_jfk = rows
            .iter()
            .filter(|&&r| {
                let p = pickups[r as usize];
                (p.x - 0.78).hypot(p.y - 0.22) < 0.05
            })
            .count();
        assert!(
            near_jfk as f64 > 0.8 * rows.len() as f64,
            "jfk trips should start at JFK ({near_jfk}/{})",
            rows.len()
        );
    }

    #[test]
    fn cash_tips_are_zero_credit_tips_track_fare() {
        let t = small();
        let fares = t.column_by_name("fare_amount").unwrap().as_f64_slice().unwrap();
        let tips = t.column_by_name("tip_amount").unwrap().as_f64_slice().unwrap();
        let cash = Predicate::eq("payment_type", "cash").filter(&t).unwrap();
        assert!(cash.iter().all(|&r| tips[r as usize] == 0.0));
        let credit = Predicate::eq("payment_type", "credit").filter(&t).unwrap();
        let (mut sum_ratio, mut n) = (0.0, 0u32);
        for &r in &credit {
            if fares[r as usize] > 0.0 {
                sum_ratio += tips[r as usize] / fares[r as usize];
                n += 1;
            }
        }
        let avg = sum_ratio / n as f64;
        assert!((avg - 0.20).abs() < 0.02, "credit tip fraction ≈ 20%, got {avg}");
    }

    #[test]
    fn jfk_fares_deviate_from_global_mean() {
        let t = small();
        let fares = t.column_by_name("fare_amount").unwrap().as_f64_slice().unwrap();
        let global: f64 = fares.iter().sum::<f64>() / fares.len() as f64;
        let jfk = Predicate::eq("rate_code", "jfk").filter(&t).unwrap();
        let jfk_mean: f64 = jfk.iter().map(|&r| fares[r as usize]).sum::<f64>() / jfk.len() as f64;
        assert!((jfk_mean - 52.0).abs() < 2.0);
        assert!(jfk_mean > 2.0 * global, "JFK fares must be an outlier population");
    }

    #[test]
    fn spatial_distribution_is_manhattan_heavy() {
        let t = small();
        let pickups = t.column_by_name("pickup").unwrap().as_point_slice().unwrap();
        let manhattan_center = Point::new(0.465, 0.58);
        let near = pickups
            .iter()
            .filter(|p| (p.x - manhattan_center.x).hypot(p.y - manhattan_center.y) < 0.12)
            .count();
        let frac = near as f64 / pickups.len() as f64;
        assert!(frac > 0.45, "Manhattan share too low: {frac}");
    }

    #[test]
    fn unit_conversions_round_trip() {
        assert!((meters_to_norm(250.0) - 0.004).abs() < 1e-12);
        assert!((norm_to_meters(meters_to_norm(1234.0)) - 1234.0).abs() < 1e-9);
    }

    #[test]
    fn points_stay_in_unit_square() {
        let t = small();
        let pickups = t.column_by_name("pickup").unwrap().as_point_slice().unwrap();
        assert!(pickups.iter().all(|p| (0.0..=1.0).contains(&p.x) && (0.0..=1.0).contains(&p.y)));
    }
}
