//! Seeded generators for the workload inputs: a SplitMix64 stream, a
//! Fisher–Yates shuffle, a Zipf sampler, and the SQL spelling mangler.
//!
//! The request stream the benchmark sends is a pure function of `--seed`;
//! the product itself never sees the seed, only the generated inputs.  Its
//! own sampling seed is the fixed `spec::SAMPLING_SEED`.

/// SplitMix64: small, fast, and every seed (including 0) gives a full stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one purpose (`stream` names the purpose),
    /// so adding a consumer never shifts the draws of another.
    pub fn fork(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Zipf(s) over ranks `0..n`: rank `r` has weight `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Words that may change case inside the top-level select list, where a
/// bare column's spelling names the output column and is left alone.
const SELECT_LIST_KEYWORDS: [&str; 10] = [
    "as", "distinct", "case", "when", "then", "else", "end", "and", "or", "not",
];

/// Respells a statement without changing what it means to the product:
/// keyword and identifier case is flipped word by word and every run of
/// blanks becomes one to three spaces or tabs, so `canonical_sql` has real
/// folding to do.  Three things are left alone because the product treats
/// them as significant: the contents of quoted strings, the word right after
/// `AS` (a projection alias), and a bare column in the top-level select list
/// (its spelling is part of the cache key, like an alias).
pub fn mangle(sql: &str, rng: &mut Rng) -> String {
    let mut out = String::with_capacity(sql.len() + 16);
    let chars: Vec<char> = sql.chars().collect();
    let mut i = 0;
    let mut after_as = false;
    let mut depth = 0usize;
    let mut in_select_list = false;
    while i < chars.len() {
        let c = chars[i];
        if c == '\'' {
            let start = i;
            i += 1;
            while i < chars.len() && chars[i] != '\'' {
                i += 1;
            }
            i = (i + 1).min(chars.len());
            out.extend(&chars[start..i]);
            after_as = false;
        } else if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let word: String = chars[start..i].iter().collect();
            let lower = word.to_ascii_lowercase();
            if depth == 0 && lower == "from" {
                in_select_list = false;
            }
            let names_output = in_select_list
                && depth == 0
                && chars.get(i) != Some(&'(')
                && !SELECT_LIST_KEYWORDS.contains(&lower.as_str());
            let style = if after_as || names_output {
                0
            } else {
                rng.below(3)
            };
            after_as = lower == "as";
            if depth == 0 && lower == "select" {
                in_select_list = true;
            }
            match style {
                1 => out.push_str(&word.to_ascii_uppercase()),
                2 => out.push_str(&lower),
                _ => out.push_str(&word),
            }
        } else if c.is_ascii_whitespace() {
            while i < chars.len() && chars[i].is_ascii_whitespace() {
                i += 1;
            }
            for _ in 0..1 + rng.below(3) {
                out.push(if rng.below(4) == 0 { '\t' } else { ' ' });
            }
        } else {
            match c {
                '(' => depth += 1,
                ')' => depth = depth.saturating_sub(1),
                _ => {}
            }
            out.push(c);
            i += 1;
            if c == ',' {
                for _ in 0..rng.below(3) {
                    out.push(' ');
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        let draw = |seed| {
            let mut rng = Rng::fork(seed, 7);
            let zipf = Zipf::new(64, 1.1);
            let mut order: Vec<usize> = (0..29).collect();
            rng.shuffle(&mut order);
            let ranks: Vec<usize> = (0..100).map(|_| zipf.sample(&mut rng)).collect();
            let text = mangle(
                "SELECT city, count(*) AS n FROM orders GROUP BY city",
                &mut rng,
            );
            (order, ranks, text)
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..100).collect();
        Rng::new(9).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(v, sorted);
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(64, 1.1);
        let mut rng = Rng::new(1);
        let mut hits = [0u32; 64];
        for _ in 0..20_000 {
            hits[zipf.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[7] && hits[7] > hits[63]);
        assert!(hits[63] > 0);
    }

    #[test]
    fn mangling_keeps_the_canonical_form() {
        let sql = "SELECT city, o.order_dow, count(*) AS n, avg(price * (1 - discount)) AS avg_price \
                   FROM orders o WHERE city <> 'City_07  x' GROUP BY city, o.order_dow ORDER BY n DESC";
        let canon = verdict_sql::canonical_sql(sql).unwrap();
        let mut rng = Rng::new(42);
        let mut distinct = std::collections::BTreeSet::new();
        for _ in 0..50 {
            let m = mangle(sql, &mut rng);
            assert!(m.contains("'City_07  x'"), "literal changed: {m}");
            assert!(
                m.contains("avg_price") && m.contains("order_dow"),
                "output name changed: {m}"
            );
            assert_eq!(verdict_sql::canonical_sql(&m).unwrap(), canon, "{m}");
            distinct.insert(m);
        }
        assert!(distinct.len() > 40);
    }
}
