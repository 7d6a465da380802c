// lint-fixture: as=crates/sim/src/fixture.rs
//! Fixture: exactly one `det-thread-id` finding — thread-identity-derived
//! logic in library code.

pub fn shard() -> std::thread::ThreadId {
    std::thread::current().id()
}
