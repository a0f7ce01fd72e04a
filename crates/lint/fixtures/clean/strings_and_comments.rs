// path: crates/trace/src/example.rs
// A comment may mention `x as u32`, `SimConfig { .. }` and `base_ps + adj_ns`.
/// Returns documentation text mentioning banned constructs.
pub fn describe() -> &'static str {
    "total as u32, SimConfig { trace: true } and base_ps + adj_ns in a \
     string literal are data, not code"
}
