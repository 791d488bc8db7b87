//! Source lines of code counting for Table 4.
//!
//! The paper's Table 4 compares benchmark implementation sizes across
//! Phoenix, Mars, and GPMR (excluding setup, including boilerplate). The
//! harness counts the real line counts of this repository's benchmark
//! implementations the same way: non-blank, non-comment lines, tests
//! excluded.

use std::path::{Path, PathBuf};

/// The product code of a Rust source file: its lines, trimmed, up to the
/// first one that *is* `#[cfg(test)]`, minus blank lines and `//` comment
/// lines. A line that only mentions the attribute, like this one, does
/// not end the product code.
pub fn product_code(src: &str) -> impl Iterator<Item = &str> {
    src.lines()
        .map(str::trim)
        .take_while(|l| *l != "#[cfg(test)]")
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
}

/// Locate the repository's `crates/` directory from this crate's
/// manifest directory.
pub fn crates_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("bench crate lives under crates/")
        .to_path_buf()
}

/// Count the effective lines of a repository source file, given its path
/// relative to `crates/`.
pub fn count_file(rel: &str) -> std::io::Result<usize> {
    let src = std::fs::read_to_string(crates_dir().join(rel))?;
    Ok(product_code(&src).count())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_skip_comments_blanks_and_tests() {
        let src = "// comment\n\nfn a() {}\n  // indented comment\nfn b() {}\n#[cfg(test)]\nmod tests { fn c() {} }\n";
        assert_eq!(product_code(src).count(), 2);
        // `product_code`'s doc comment names the attribute above every fn.
        let own: Vec<&str> = product_code(include_str!("loc.rs")).collect();
        assert!(own.contains(&"pub fn crates_dir() -> PathBuf {"));
        assert!(!own.contains(&"mod tests {"));
    }

    #[test]
    fn counts_real_app_files() {
        for f in [
            "apps/src/mm.rs",
            "apps/src/kmc.rs",
            "apps/src/wo.rs",
            "apps/src/sio.rs",
            "apps/src/lr.rs",
        ] {
            let n = count_file(f).unwrap();
            assert!(n > 50, "{f} suspiciously small: {n}");
        }
    }
}
