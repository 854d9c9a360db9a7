//@ path: crates/comm/src/fixture_allow.rs
fn f(o: Option<u32>, x: f64) -> u32 {
    // diffreg-allow(no-unwrap-in-lib): fixture demonstrates site suppression
    let v = o.unwrap();
    // diffreg-allow(float-eq): exact sentinel comparison is intentional here
    if x == 0.0 {
        return 0;
    }
    // diffreg-allow(float-eq): stale, nothing below fires
    v
}
// diffreg-allow(pub-fn-missing-docs): names a lint rustc took over, so it is unknown here
pub fn g() {}
