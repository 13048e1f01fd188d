//! Scalar SQL functions.
//!
//! VerdictDB requires the underlying database to support `rand()`, a hash
//! function, window functions, and `CREATE TABLE AS SELECT` (§2.1).  This
//! module implements `rand()`, the hash family (`verdict_hash`, `fnv_hash`,
//! `hash`, `crc32`), and the usual arithmetic/string helpers that appear in
//! rewritten queries (`floor`, `round`, `sqrt`, `case` arithmetic, …).
//!
//! Functions evaluate over typed [`Column`]s: the numeric and hash families
//! run typed loops; the variadic/conditional helpers (`coalesce`, `if`, …)
//! use the `Value` compatibility shim since they are inherently dynamic.

use crate::column::{Column, ColumnData};
use crate::error::{EngineError, EngineResult};
use crate::value::Value;
use rand::Rng;

/// A stable 64-bit FNV-1a hash of a value's canonical byte representation.
///
/// Hashed ("universe") samples only need a *uniform* deterministic hash; the
/// exact algorithm the paper used (md5 / crc32 / fnv) is irrelevant to the
/// statistics, so a fast FNV-1a is a faithful substitute.
pub fn fnv1a_hash_value(v: &Value) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    let mut feed = |bytes: &[u8]| {
        for b in bytes {
            h ^= *b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    match v {
        Value::Null => feed(b"\0null"),
        Value::Int(i) => feed(&i.to_le_bytes()),
        Value::Float(f) => {
            // canonicalise integral floats so Int(5) and Float(5.0) hash alike
            if f.fract() == 0.0 && f.abs() < 9.0e18 {
                feed(&(*f as i64).to_le_bytes())
            } else {
                feed(&f.to_bits().to_le_bytes())
            }
        }
        Value::Str(s) => feed(s.as_bytes()),
        Value::Bool(b) => feed(&[*b as u8]),
    }
    h
}

/// Typed FNV-1a hashing of a whole column (NULL rows yield `None`), matching
/// [`fnv1a_hash_value`] bit-for-bit without materialising values.
pub(crate) fn fnv_hash_column_raw(col: &Column) -> Vec<Option<u64>> {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    #[inline]
    fn feed(mut h: u64, bytes: &[u8]) -> u64 {
        for b in bytes {
            h ^= *b as u64;
            h = h.wrapping_mul(PRIME);
        }
        h
    }
    let n = col.len();
    let mut out = Vec::with_capacity(n);
    match col.data() {
        ColumnData::Int64(v) => {
            for i in 0..n {
                out.push(col.is_valid(i).then(|| feed(OFFSET, &v[i].to_le_bytes())));
            }
        }
        ColumnData::Float64(v) => {
            for i in 0..n {
                out.push(col.is_valid(i).then(|| {
                    let f = v[i];
                    if f.fract() == 0.0 && f.abs() < 9.0e18 {
                        feed(OFFSET, &(f as i64).to_le_bytes())
                    } else {
                        feed(OFFSET, &f.to_bits().to_le_bytes())
                    }
                }));
            }
        }
        ColumnData::Utf8(v) => {
            for i in 0..n {
                out.push(col.is_valid(i).then(|| feed(OFFSET, v[i].as_bytes())));
            }
        }
        ColumnData::Bool(v) => {
            for i in 0..n {
                out.push(col.is_valid(i).then(|| feed(OFFSET, &[v[i] as u8])));
            }
        }
    }
    out
}

/// Returns true when `name` is a scalar function this module can evaluate.
pub fn is_scalar_function(name: &str) -> bool {
    const NAMES: &[&str] = &[
        "rand",
        "floor",
        "ceil",
        "ceiling",
        "abs",
        "round",
        "sqrt",
        "ln",
        "log",
        "exp",
        "power",
        "pow",
        "mod",
        "pmod",
        "verdict_hash",
        "fnv_hash",
        "hash",
        "crc32",
        "strtol",
        "substr",
        "substring",
        "upper",
        "lower",
        "length",
        "concat",
        "coalesce",
        "least",
        "greatest",
        "if",
        "nullif",
        "sign",
    ];
    let lower = name.to_ascii_lowercase();
    NAMES.contains(&lower.as_str())
}

/// True for the scalar functions whose result column is typed by the values
/// it ends up holding (`Column::from_values`): one row's value can then
/// depend on which other rows are evaluated with it (`coalesce(a, s)` over
/// rows where `a` is never NULL is an integer column, over the others text).
pub(crate) fn types_by_values(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    matches!(
        lower.as_str(),
        "coalesce" | "least" | "greatest" | "if" | "nullif"
    )
}

/// Evaluates a scalar function over already-evaluated argument columns.
///
/// `num_rows` is required because zero-argument functions (`rand()`) must
/// still produce one value per row.
pub fn eval_scalar_function(
    name: &str,
    args: &[Column],
    num_rows: usize,
    rng: &mut dyn FnMut() -> f64,
) -> EngineResult<Column> {
    let lower = name.to_ascii_lowercase();
    match lower.as_str() {
        "rand" => Ok(Column::from_f64((0..num_rows).map(|_| rng()).collect())),
        "floor" => unary_numeric(&lower, args, |x| x.floor()),
        "ceil" | "ceiling" => unary_numeric(&lower, args, |x| x.ceil()),
        "abs" => unary_numeric(&lower, args, |x| x.abs()),
        "sqrt" => unary_numeric(&lower, args, |x| x.sqrt()),
        "ln" | "log" => unary_numeric(&lower, args, |x| x.ln()),
        "exp" => unary_numeric(&lower, args, |x| x.exp()),
        "sign" => unary_numeric(&lower, args, |x| x.signum()),
        "round" => {
            expect_args(&lower, args, &[1, 2])?;
            let col = &args[0];
            let n = col.len();
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let digits = if args.len() == 2 {
                    args[1].f64_at(i).unwrap_or(0.0)
                } else {
                    0.0
                };
                out.push(col.f64_at(i).map(|x| {
                    let scale = 10f64.powi(digits as i32);
                    (x * scale).round() / scale
                }));
            }
            Ok(Column::from_opt_f64(out))
        }
        "power" | "pow" => binary_numeric(&lower, args, |a, b| a.powf(b)),
        "mod" => binary_numeric(&lower, args, |a, b| if b == 0.0 { f64::NAN } else { a % b }),
        "pmod" => binary_numeric(&lower, args, |a, b| {
            if b == 0.0 {
                f64::NAN
            } else {
                ((a % b) + b) % b
            }
        }),
        "verdict_hash" => {
            expect_args(&lower, args, &[2])?;
            let hashes = fnv_hash_column_raw(&args[0]);
            let out: Vec<Option<i64>> = hashes
                .iter()
                .enumerate()
                .map(|(i, h)| {
                    h.map(|h| {
                        let modulus = args[1].value_at(i).as_i64().unwrap_or(1).max(1) as u64;
                        (h % modulus) as i64
                    })
                })
                .collect();
            Ok(Column::from_opt_i64(out))
        }
        "fnv_hash" | "hash" | "crc32" => {
            expect_args(&lower, args, &[1])?;
            let out: Vec<Option<i64>> = fnv_hash_column_raw(&args[0])
                .into_iter()
                // keep the result positive and within i64
                .map(|h| h.map(|h| (h >> 1) as i64))
                .collect();
            Ok(Column::from_opt_i64(out))
        }
        "strtol" => {
            // strtol(string, base) — Redshift idiom; our hash already returns
            // integers so this is effectively a cast.
            expect_args(&lower, args, &[2])?;
            let out: Vec<Option<i64>> = (0..args[0].len())
                .map(|i| {
                    let v = args[0].value_at(i);
                    match v.as_i64() {
                        Some(x) => Some(x),
                        None => v
                            .as_str_lossy()
                            .and_then(|s| i64::from_str_radix(s.trim(), 16).ok()),
                    }
                })
                .collect();
            Ok(Column::from_opt_i64(out))
        }
        "substr" | "substring" => {
            expect_args(&lower, args, &[2, 3])?;
            let n = args[0].len();
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let s = args[0].value_at(i).as_str_lossy();
                let start = args[1].value_at(i).as_i64().unwrap_or(1).max(1) as usize;
                let len = if args.len() == 3 {
                    args[2].value_at(i).as_i64().unwrap_or(0).max(0) as usize
                } else {
                    usize::MAX
                };
                out.push(s.map(|s| {
                    let chars: Vec<char> = s.chars().collect();
                    let begin = (start - 1).min(chars.len());
                    let end = begin.saturating_add(len).min(chars.len());
                    chars[begin..end].iter().collect::<String>()
                }));
            }
            Ok(Column::from_opt_str(out))
        }
        "upper" => unary_string(&lower, args, |s| s.to_uppercase()),
        "lower" => unary_string(&lower, args, |s| s.to_lowercase()),
        "length" => {
            expect_args(&lower, args, &[1])?;
            let out: Vec<Option<i64>> = (0..args[0].len())
                .map(|i| {
                    args[0]
                        .value_at(i)
                        .as_str_lossy()
                        .map(|s| s.chars().count() as i64)
                })
                .collect();
            Ok(Column::from_opt_i64(out))
        }
        "concat" => {
            if args.is_empty() {
                return Err(EngineError::Execution("concat requires arguments".into()));
            }
            let n = args[0].len();
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let mut s = String::new();
                let mut null = false;
                for a in args {
                    match a.value_at(i).as_str_lossy() {
                        Some(part) => s.push_str(&part),
                        None => null = true,
                    }
                }
                out.push(if null { None } else { Some(s) });
            }
            Ok(Column::from_opt_str(out))
        }
        "coalesce" => {
            if args.is_empty() {
                return Err(EngineError::Execution("coalesce requires arguments".into()));
            }
            let n = args[0].len();
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let v = args
                    .iter()
                    .map(|a| a.value_at(i))
                    .find(|v| !v.is_null())
                    .unwrap_or(Value::Null);
                out.push(v);
            }
            Ok(Column::from_values(&out))
        }
        "least" | "greatest" => {
            if args.is_empty() {
                return Err(EngineError::Execution(format!(
                    "{lower} requires arguments"
                )));
            }
            let n = args[0].len();
            let want_min = lower == "least";
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let mut best: Option<Value> = None;
                for a in args {
                    let v = a.value_at(i);
                    if v.is_null() {
                        continue;
                    }
                    best = Some(match best {
                        None => v,
                        Some(b) => {
                            let keep_new = match v.sql_cmp(&b) {
                                Some(std::cmp::Ordering::Less) => want_min,
                                Some(std::cmp::Ordering::Greater) => !want_min,
                                _ => false,
                            };
                            if keep_new {
                                v
                            } else {
                                b
                            }
                        }
                    });
                }
                out.push(best.unwrap_or(Value::Null));
            }
            Ok(Column::from_values(&out))
        }
        "if" => {
            expect_args(&lower, args, &[3])?;
            let out: Vec<Value> = (0..args[0].len())
                .map(|i| {
                    if args[0].bool_at(i).unwrap_or(false) {
                        args[1].value_at(i)
                    } else {
                        args[2].value_at(i)
                    }
                })
                .collect();
            Ok(Column::from_values(&out))
        }
        "nullif" => {
            expect_args(&lower, args, &[2])?;
            let out: Vec<Value> = (0..args[0].len())
                .map(|i| {
                    let a = args[0].value_at(i);
                    if a == args[1].value_at(i) {
                        Value::Null
                    } else {
                        a
                    }
                })
                .collect();
            Ok(Column::from_values(&out))
        }
        other => Err(EngineError::Unsupported(format!("scalar function {other}"))),
    }
}

fn expect_args(name: &str, args: &[Column], allowed: &[usize]) -> EngineResult<()> {
    if allowed.contains(&args.len()) {
        Ok(())
    } else {
        Err(EngineError::Execution(format!(
            "{name} expects {allowed:?} arguments, got {}",
            args.len()
        )))
    }
}

fn binary_numeric(
    name: &str,
    args: &[Column],
    f: impl Fn(f64, f64) -> f64,
) -> EngineResult<Column> {
    expect_args(name, args, &[2])?;
    let n = args[0].len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(match (args[0].f64_at(i), args[1].f64_at(i)) {
            (Some(x), Some(y)) => {
                let r = f(x, y);
                if r.is_nan() {
                    None
                } else {
                    Some(r)
                }
            }
            _ => None,
        });
    }
    Ok(Column::from_opt_f64(out))
}

fn unary_numeric(name: &str, args: &[Column], f: impl Fn(f64) -> f64) -> EngineResult<Column> {
    expect_args(name, args, &[1])?;
    let col = &args[0];
    let n = col.len();
    // typed fast paths: apply f over the slice, masking with the validity
    match (col.data(), col.validity()) {
        (ColumnData::Float64(v), bm) => Ok(Column::from_parts(
            ColumnData::Float64(v.iter().map(|&x| f(x)).collect()),
            bm.cloned(),
        )),
        (ColumnData::Int64(v), bm) => Ok(Column::from_parts(
            ColumnData::Float64(v.iter().map(|&x| f(x as f64)).collect()),
            bm.cloned(),
        )),
        _ => {
            let out: Vec<Option<f64>> = (0..n).map(|i| col.f64_at(i).map(&f)).collect();
            Ok(Column::from_opt_f64(out))
        }
    }
}

fn unary_string(name: &str, args: &[Column], f: impl Fn(&str) -> String) -> EngineResult<Column> {
    expect_args(name, args, &[1])?;
    let col = &args[0];
    let n = col.len();
    if let Some(strs) = col.as_strs() {
        let out: Vec<Option<String>> = (0..n)
            .map(|i| col.is_valid(i).then(|| f(&strs[i])))
            .collect();
        return Ok(Column::from_opt_str(out));
    }
    let out: Vec<Option<String>> = (0..n)
        .map(|i| col.value_at(i).as_str_lossy().map(|s| f(&s)))
        .collect();
    Ok(Column::from_opt_str(out))
}

/// Evaluates a SQL `LIKE` pattern against a string: `%` matches any run of
/// chars, `_` exactly one char.
///
/// A two-pointer walk that allocates nothing: on a mismatch it backtracks
/// to the last `%` seen and lets that `%` swallow one more text char.
/// Backtracking to an earlier `%` is never needed, because whatever the
/// earlier one could match the later one can too.
pub fn like_match(text: &str, pattern: &str) -> bool {
    let (mut t, mut p) = (text.chars(), pattern.chars());
    // Where matching resumes after the last `%`: the pattern just past it,
    // and the first text char that `%` has not swallowed yet.
    let mut star: Option<(std::str::Chars<'_>, std::str::Chars<'_>)> = None;
    loop {
        let tc = t.clone().next();
        match p.clone().next() {
            Some('%') => {
                p.next();
                star = Some((p.clone(), t.clone()));
                continue;
            }
            Some(pc) if tc.is_some_and(|tc| pc == '_' || pc == tc) => {
                p.next();
                t.next();
                continue;
            }
            None if tc.is_none() => return true,
            _ => {}
        }
        let Some((star_p, star_t)) = &mut star else {
            return false;
        };
        if star_t.next().is_none() {
            return false;
        }
        (p, t) = (star_p.clone(), star_t.clone());
    }
}

/// A deterministic uniform random generator seeded per query execution, used
/// when reproducible plans are required (tests, experiments).
pub fn seeded_uniform(seed: u64) -> impl FnMut() -> f64 {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    move || rng.gen::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(v: &[i64]) -> Column {
        Column::from_i64(v.to_vec())
    }

    #[test]
    fn rand_produces_unit_interval_values() {
        let mut r = seeded_uniform(42);
        let col = eval_scalar_function("rand", &[], 1000, &mut r).unwrap();
        assert_eq!(col.len(), 1000);
        assert!(col.iter().all(|v| {
            let x = v.as_f64().unwrap();
            (0.0..1.0).contains(&x)
        }));
    }

    #[test]
    fn floor_and_round() {
        let mut r = seeded_uniform(0);
        let col = eval_scalar_function(
            "floor",
            &[Column::from_opt_f64(vec![Some(3.7), None])],
            2,
            &mut r,
        )
        .unwrap();
        assert_eq!(col.value_at(0), Value::Float(3.0));
        assert!(col.value_at(1).is_null());

        let col = eval_scalar_function(
            "round",
            &[Column::from_f64(vec![1.23456]), ints(&[2])],
            1,
            &mut r,
        )
        .unwrap();
        assert_eq!(col.value_at(0), Value::Float(1.23));
    }

    #[test]
    fn verdict_hash_is_deterministic_and_bounded() {
        let mut r = seeded_uniform(0);
        let col = eval_scalar_function(
            "verdict_hash",
            &[ints(&[1, 2, 3, 1]), ints(&[100, 100, 100, 100])],
            4,
            &mut r,
        )
        .unwrap();
        assert_eq!(col.value_at(0), col.value_at(3));
        assert!(col.iter().all(|v| (0..100).contains(&v.as_i64().unwrap())));
    }

    #[test]
    fn typed_hash_matches_value_hash() {
        let col = Column::from_values(&[
            Value::Int(42),
            Value::Float(5.0),
            Value::Float(2.5),
            Value::Null,
        ]);
        let typed = fnv_hash_column_raw(&col);
        for (i, h) in typed.iter().enumerate() {
            let v = col.value_at(i);
            if v.is_null() {
                assert!(h.is_none());
            } else {
                assert_eq!(h.unwrap(), fnv1a_hash_value(&v));
            }
        }
        // string column path
        let col = Column::from_str(vec!["abc".into(), "".into()]);
        let typed = fnv_hash_column_raw(&col);
        assert_eq!(
            typed[0].unwrap(),
            fnv1a_hash_value(&Value::Str("abc".into()))
        );
        assert_eq!(
            typed[1].unwrap(),
            fnv1a_hash_value(&Value::Str(String::new()))
        );
    }

    #[test]
    fn hash_uniformity_rough_check() {
        // hash 10k integers into 10 buckets; each bucket should get roughly 1000
        let n = 10_000i64;
        let mut buckets = [0usize; 10];
        for i in 0..n {
            let h = fnv1a_hash_value(&Value::Int(i)) % 10;
            buckets[h as usize] += 1;
        }
        for b in buckets {
            assert!((800..1200).contains(&b), "bucket count {b} too skewed");
        }
    }

    #[test]
    fn like_matching() {
        assert!(like_match("promotional items", "%promo%"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("anything", "%"));
        assert!(!like_match("", "_"));
    }

    /// The dynamic-programming matcher [`like_match`] replaced, kept as its
    /// oracle.
    fn like_match_dp(text: &str, pattern: &str) -> bool {
        let t: Vec<char> = text.chars().collect();
        let p: Vec<char> = pattern.chars().collect();
        let mut dp = vec![vec![false; p.len() + 1]; t.len() + 1];
        dp[0][0] = true;
        for j in 1..=p.len() {
            if p[j - 1] == '%' {
                dp[0][j] = dp[0][j - 1];
            }
        }
        for i in 1..=t.len() {
            for j in 1..=p.len() {
                dp[i][j] = match p[j - 1] {
                    '%' => dp[i - 1][j] || dp[i][j - 1],
                    '_' => dp[i - 1][j - 1],
                    c => dp[i - 1][j - 1] && t[i - 1] == c,
                };
            }
        }
        dp[t.len()][p.len()]
    }

    /// Every string of up to `max_len` chars over `alphabet`.
    fn strings_over(alphabet: &[char], max_len: usize) -> Vec<String> {
        let mut out = vec![String::new()];
        let mut last = vec![String::new()];
        for _ in 0..max_len {
            last = last
                .iter()
                .flat_map(|s| alphabet.iter().map(move |&c| format!("{s}{c}")))
                .collect();
            out.extend(last.iter().cloned());
        }
        out
    }

    #[test]
    fn like_match_agrees_with_the_dynamic_programming_oracle() {
        let check = |text: &str, pattern: &str| {
            assert_eq!(
                like_match(text, pattern),
                like_match_dp(text, pattern),
                "{text:?} LIKE {pattern:?}"
            );
        };
        // Exhaustive over short ASCII and multibyte texts and patterns
        // (`%%`, `_%_`, trailing `%`, empty text and pattern included).
        let texts = strings_over(&['a', 'b', 'é'], 4);
        let patterns = strings_over(&['a', '日', '%', '_'], 4);
        for text in texts.iter().chain([&"日a日".to_string()]) {
            for pattern in &patterns {
                check(text, pattern);
            }
        }
        // Longer generated pairs: texts over a few chars, patterns drawn
        // from the same chars plus wildcards, from a fixed seed.
        let mut rng = seeded_uniform(7);
        let mut draw = |alphabet: &[char], max_len: f64| -> String {
            let len = (rng() * max_len) as usize;
            (0..len)
                .map(|_| alphabet[(rng() * alphabet.len() as f64) as usize])
                .collect()
        };
        for _ in 0..20_000 {
            let text = draw(&['x', 'y', 'ü'], 14.0);
            let pattern = draw(&['x', 'y', 'ü', '%', '%', '_'], 8.0);
            check(&text, &pattern);
        }
    }

    #[test]
    fn coalesce_and_nullif() {
        let mut r = seeded_uniform(0);
        let col = eval_scalar_function(
            "coalesce",
            &[
                Column::from_opt_i64(vec![None, Some(1)]),
                Column::from_opt_i64(vec![Some(9), Some(2)]),
            ],
            2,
            &mut r,
        )
        .unwrap();
        assert_eq!(col.to_values(), vec![Value::Int(9), Value::Int(1)]);

        let col =
            eval_scalar_function("nullif", &[ints(&[1, 2]), ints(&[1, 3])], 2, &mut r).unwrap();
        assert!(col.value_at(0).is_null());
        assert_eq!(col.value_at(1), Value::Int(2));
    }

    #[test]
    fn string_functions() {
        let mut r = seeded_uniform(0);
        let s = Column::from_str(vec!["VerdictDB".into()]);
        let col = eval_scalar_function("lower", std::slice::from_ref(&s), 1, &mut r).unwrap();
        assert_eq!(col.value_at(0), Value::Str("verdictdb".into()));
        let col = eval_scalar_function("substr", &[s, ints(&[1]), ints(&[7])], 1, &mut r).unwrap();
        assert_eq!(col.value_at(0), Value::Str("Verdict".into()));
    }

    #[test]
    fn unknown_function_is_reported() {
        let mut r = seeded_uniform(0);
        let err = eval_scalar_function("frobnicate", &[], 1, &mut r).unwrap_err();
        assert!(matches!(err, EngineError::Unsupported(_)));
    }
}
