//! The release profile every build in the checkout shares lives in
//! `.cargo/config.toml`. Deleting or weakening it brings back the
//! codegen-unit term in every speed figure (DESIGN.md §14.1), and no
//! other test would notice, so this one reads the file.

use std::collections::BTreeMap;

/// The `key = value` lines of `[profile.release]`, values unquoted.
fn release_profile(config: &str) -> BTreeMap<&str, &str> {
    let mut in_release = false;
    let mut settings = BTreeMap::new();
    for line in config.lines().map(|l| l.split('#').next().unwrap().trim()) {
        if line.starts_with('[') {
            in_release = line == "[profile.release]";
        } else if let (true, Some((key, value))) = (in_release, line.split_once('=')) {
            settings.insert(key.trim(), value.trim().trim_matches('"'));
        }
    }
    settings
}

#[test]
fn the_release_profile_is_one_codegen_unit_with_fat_lto() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/.cargo/config.toml");
    let config = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let profile = release_profile(&config);
    let get = |key: &str| profile.get(key).copied();
    assert_eq!(get("codegen-units"), Some("1"), "{path}: {profile:?}");
    assert_eq!(get("lto"), Some("fat"), "{path}: {profile:?}");
    // Unwinding stays (cargo's default): worker threads hand their panics
    // back to the joining thread, which reports them.
    assert_ne!(get("panic"), Some("abort"), "{path}: {profile:?}");
}
