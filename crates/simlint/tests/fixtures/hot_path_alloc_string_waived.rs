//! The same seeded violation, released by a justified line waiver.
// simlint: hot-path — fixture sampling tick
pub fn sample(flow: u32, sink: &mut Sink) {
    let name = format!("cwnd.{flow}"); // simlint: allow(hot-path-alloc): fixture — demonstrates waiver silencing
    sink.record(&name);
}
