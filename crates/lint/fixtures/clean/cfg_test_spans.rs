// path: crates/trace/src/example.rs
/// Production half of the file.
pub fn double(x: u64) -> u64 {
    x * 2
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_narrow() {
        let narrow = 7u64 as u32;
        assert_eq!(narrow, 7);
    }
}
