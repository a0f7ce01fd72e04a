// path: crates/trace/src/example.rs
/// Production half of the file.
pub fn double(x: u64) -> u64 {
    x * 2
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_narrow_and_build_configs_by_hand() {
        let narrow = 7u64 as u32;
        let cfg = SimConfig { trace: true };
        assert_eq!(narrow, 7);
        assert!(cfg.trace);
    }
}
