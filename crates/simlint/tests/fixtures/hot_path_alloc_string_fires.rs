//! Seeded violation: a series name formatted once per sample inside a
//! marked region — string building is a heap allocation too.
// simlint: hot-path — fixture sampling tick
pub fn sample(flow: u32, sink: &mut Sink) {
    let name = format!("cwnd.{flow}");
    sink.record(&name);
}
