//! A seeded random walk of session statements for twin tests: two sessions
//! over one context, one with the answer cache and one with `SET cache =
//! off`, take the same steps and must give the same answers, whatever the
//! cache holds.
//!
//! The walk runs over a `sales (id, price, city)` table the caller
//! registers (prices in [0, 100), ten cities `city_0` … `city_9`), after
//! [`SETUP`].  It is plain `std`, so the server's end-to-end tests include
//! this file too (`#[path]`) and replay the same steps over the wire.

/// One step of the walk.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// A statement both sessions run; their answers are compared.
    Both(String),
    /// A statement that changes shared state (rows, scrambles), run once on
    /// session `on` (0 or 1): a scramble built twice would be two different
    /// random samples.
    Once { sql: String, on: usize },
    /// The load-shedding level (0–3) both sessions run under from now on
    /// (in process only: a server picks the tier from its queue depth).
    Shed(u8),
}

/// Statements run once before the walk; no scramble exists yet, so the
/// walk's first answers are exact ones.
pub const SETUP: &[&str] = &[
    "BYPASS CREATE TABLE cities AS SELECT city, count(*) AS w FROM sales GROUP BY city",
    "BYPASS CREATE TABLE sales_batch AS SELECT * FROM sales WHERE id < 200",
];

/// `SET` names and values: every option but `cache`, which tells the twins
/// apart.  A deadline stays far away, so no stream is cut by the clock.
const SETS: &[(&str, &[&str])] = &[
    ("target_error", &["0.05", "0.5", "0.0001", "default"]),
    ("max_relative_error", &["0.1", "default"]),
    ("confidence", &["0.8", "0.99", "default"]),
    ("parallelism", &["1", "3", "default"]),
    ("bypass", &["on", "off", "default"]),
    ("error_columns", &["on", "off", "default"]),
    ("include_error_columns", &["off", "default"]),
    ("io_budget", &["0.05", "0.5", "default"]),
    ("sampling_ratio", &["0.05", "0.2", "default"]),
    ("stream_block_rows", &["300", "5000", "default"]),
    ("deadline_ms", &["60000", "default"]),
    ("slow_query_ms", &["1", "default"]),
];

const CREATES: &[&str] = &[
    "CREATE SCRAMBLE s_u FROM sales METHOD uniform RATIO 0.1",
    "CREATE SCRAMBLE s_u2 FROM sales METHOD uniform RATIO 0.2",
    "CREATE SCRAMBLE s_st FROM sales METHOD stratified ON city RATIO 0.2",
    "CREATE SCRAMBLE s_h FROM sales METHOD hashed ON id RATIO 0.1",
    "CREATE SCRAMBLE s_def FROM sales",
    "CREATE SCRAMBLES sales",
];

const DROPS: &[&str] = &[
    "DROP SCRAMBLE IF EXISTS s_u",
    "DROP SCRAMBLE IF EXISTS s_u2",
    "DROP SCRAMBLE IF EXISTS s_st",
    "DROP SCRAMBLE IF EXISTS s_h",
    "DROP SCRAMBLE IF EXISTS s_def",
    "DROP SCRAMBLES IF EXISTS sales",
];

const WRITES: &[&str] = &[
    "INSERT INTO sales SELECT * FROM sales_batch",
    "INSERT INTO sales SELECT * FROM sales WHERE id < 20",
];

const REFRESHES: &[&str] = &[
    "REFRESH SCRAMBLES sales",
    "REFRESH SCRAMBLES sales FROM sales_batch",
];

/// SplitMix64: a seeded, dependency-free generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// `steps` steps of the walk drawn from `seed`.
pub fn walk(seed: u64, steps: usize) -> Vec<Step> {
    let mut rng = Rng::new(seed);
    (0..steps).map(|_| step(&mut rng)).collect()
}

fn step(rng: &mut Rng) -> Step {
    let shared = match rng.below(100) {
        0..=59 => return Step::Both(query(rng)),
        60..=63 => return Step::Both(format!("BYPASS {}", query(rng))),
        64..=67 => return Step::Both(format!("STREAM {}", query(rng))),
        68..=71 => return Step::Both(format!("EXPLAIN {}", query(rng))),
        72..=81 => {
            let (name, values) = rng.pick(SETS);
            return Step::Both(format!("SET {name} = {}", rng.pick(values)));
        }
        82..=84 => return Step::Shed(rng.below(4) as u8),
        85..=86 => WRITES,
        87..=88 => REFRESHES,
        89..=94 => CREATES,
        _ => DROPS,
    };
    Step::Once {
        sql: rng.pick(shared).to_string(),
        on: rng.below(2),
    }
}

/// A dashboard SELECT in one of four spellings: eight shapes, the first
/// ones the most frequent, each with at most three parameter values.  Every
/// spelling (keyword and identifier case, blanks, a closing `;`) must be
/// answered like any other of the same statement.
fn query(rng: &mut Rng) -> String {
    let skewed = |rng: &mut Rng, n: usize| rng.below(n).min(rng.below(n));
    let p = 10 + 40 * skewed(rng, 2);
    let n = [50, 400][skewed(rng, 2)];
    let sql = match skewed(rng, 8) {
        0 => format!(
            "SELECT city , count(*) AS n , avg(price) AS ap FROM sales \
             WHERE price > {p} GROUP BY city ORDER BY city"
        ),
        1 => format!(
            "SELECT count(*) AS n , avg(price) AS ap , sum(price) AS sp FROM sales \
             WHERE price BETWEEN {p} AND {}",
            p + 40
        ),
        2 => "SELECT city , sum(price) AS sp FROM sales GROUP BY city ORDER BY city".into(),
        3 => format!(
            "SELECT count(*) AS n FROM sales WHERE city = 'city_{}'",
            skewed(rng, 3)
        ),
        4 => format!(
            "SELECT city , max(price) AS hi , min(price) AS lo FROM sales \
             WHERE id < {n} GROUP BY city ORDER BY city"
        ),
        5 => "SELECT count(DISTINCT city) AS c FROM sales".into(),
        6 => format!(
            "SELECT city , avg(price) AS ap FROM sales GROUP BY city \
             HAVING count(*) > {n} ORDER BY ap DESC LIMIT 3"
        ),
        _ => "SELECT c.w , count(*) AS n FROM sales s INNER JOIN cities c \
              ON s.city = c.city GROUP BY c.w ORDER BY c.w"
            .into(),
    };
    respell(&sql, rng.below(4) as u64)
}

/// Spelling `variant` of `sql` (0: as written); a string literal keeps its
/// case.
fn respell(sql: &str, variant: u64) -> String {
    if variant == 0 {
        return sql.to_string();
    }
    let mut rng = Rng::new(variant);
    let mut out = String::new();
    for (i, token) in sql.split(' ').enumerate() {
        if i > 0 {
            out.push_str(" ".repeat(1 + rng.below(3)).as_str());
        }
        match rng.below(3) {
            _ if token.starts_with('\'') => out.push_str(token),
            0 => out.push_str(&token.to_ascii_lowercase()),
            1 => out.push_str(&token.to_ascii_uppercase()),
            _ => out.push_str(token),
        }
    }
    if variant == 3 {
        out.push(';');
    }
    out
}
