//! The wire layer as the benchmark sees it: a counting, timing and
//! capturing `Write` adapter for the agent's socket, and the codec
//! replay that turns captured bytes into per-frame costs.

use crate::layers::WireTotals;
use crate::trace::Tracer;
use std::io::{self, Write};
use std::time::Instant;
use vigil_agents::AgentEvent;
use vigil_wire::{emit_frame, parse_frame, FrameWriter, WireFrame};

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Wraps the agent's socket: copies every byte written, times the
/// writes (backpressure included), and timestamps each flush. The
/// agent flushes once per `EpochDone` barrier, so flush stamps mark
/// window ends.
pub struct CaptureWriter<W> {
    inner: W,
    /// Every byte that reached the socket, in order.
    pub bytes: Vec<u8>,
    /// Time inside the socket's `write` calls.
    pub write_ns: u64,
    /// When each flush returned.
    pub flushes: Vec<Instant>,
}

impl<W: Write> CaptureWriter<W> {
    /// Wraps `inner`, capturing into `bytes` (cleared first; reusing a
    /// buffer keeps its growth out of later runs' peak memory).
    pub fn new(inner: W, mut bytes: Vec<u8>) -> Self {
        bytes.clear();
        Self {
            inner,
            bytes,
            write_ns: 0,
            flushes: Vec::new(),
        }
    }

    /// Milliseconds between consecutive window ends, first window
    /// (which also pays for the agent's set-up) excluded.
    pub fn window_ms(&self) -> Vec<f64> {
        self.flushes
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
            .collect()
    }
}

impl<W: Write> Write for CaptureWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let t = Instant::now();
        let n = self.inner.write(buf)?;
        self.write_ns += ns_since(t);
        self.bytes.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        let t = Instant::now();
        self.inner.flush()?;
        self.write_ns += ns_since(t);
        self.flushes.push(Instant::now());
        Ok(())
    }
}

/// Decodes a captured byte stream frame by frame with `parse_frame`,
/// handing each frame to `sink`. Returns the frame count and the
/// decode time; any trailing or corrupt byte is an error.
pub fn decode_each(bytes: &[u8], mut sink: impl FnMut(WireFrame)) -> Result<(u64, u64), String> {
    let mut count = 0u64;
    let mut off = 0usize;
    let t = Instant::now();
    while off < bytes.len() {
        let (frame, used) =
            parse_frame(&bytes[off..]).map_err(|e| format!("frame at byte {off}: {e}"))?;
        sink(frame);
        count += 1;
        off += used;
    }
    Ok((count, ns_since(t)))
}

/// [`decode_each`], keeping the frames.
pub fn decode_all(bytes: &[u8]) -> Result<(Vec<WireFrame>, u64), String> {
    let mut frames = Vec::new();
    let (_, ns) = decode_each(bytes, |f| frames.push(f))?;
    Ok((frames, ns))
}

/// Re-encodes `frames` with `emit_frame`; returns the bytes and the
/// encode time.
pub fn encode_all(frames: &[WireFrame]) -> (Vec<u8>, u64) {
    let mut out = Vec::new();
    let t = Instant::now();
    for f in frames {
        emit_frame(f, &mut out);
    }
    (out, ns_since(t))
}

/// Frames one window's hub events as the agent would put them on the
/// wire (each event, then the `EpochDone` barrier) and adds the codec
/// and in-memory write costs to `totals`. For workloads that keep
/// their evidence in process, this is the wire layer's cost on their
/// own event stream.
pub fn frame_window(events: Vec<AgentEvent>, epoch: u64, totals: &mut WireTotals, tr: &mut Tracer) {
    let count = events.len() as u64;
    let mut frames: Vec<WireFrame> = events.into_iter().map(WireFrame::Event).collect();
    frames.push(WireFrame::EpochDone {
        epoch,
        events: count,
    });
    let t = Instant::now();
    let (bytes, encode_ns) = encode_all(&frames);
    tr.record("wire.encode.off_path", t, Instant::now(), None, epoch);
    let t = Instant::now();
    let (decoded, decode_ns) = decode_all(&bytes).expect("freshly encoded frames decode");
    tr.record("wire.decode.off_path", t, Instant::now(), None, epoch);
    assert_eq!(decoded.len(), frames.len(), "codec round trip lost frames");
    let mut sink = FrameWriter::new(Vec::with_capacity(bytes.len()));
    let t = Instant::now();
    for f in &frames {
        sink.write_frame(f).expect("writing to memory cannot fail");
    }
    tr.record("wire.write.off_path", t, Instant::now(), None, epoch);
    totals.write_ns += ns_since(t);
    totals.windows += 1;
    totals.frames += frames.len() as u64;
    totals.bytes += bytes.len() as u64;
    totals.encode_ns += encode_ns;
    totals.decode_ns += decode_ns;
}
