//! `archpredict-worker` — the child side of the distributed simulation
//! oracle's pipe protocol (see `archpredict::distributed`).
//!
//! Lifecycle: echo the 8-byte magic+version handshake, receive one
//! `CONFIG` frame describing the evaluator to build, then loop over
//! `EVAL` spans — answering each index with a flushed `RESULT` frame the
//! moment it finishes (streamed replies are what let the coordinator
//! blame exactly the in-flight index when this process dies) and closing
//! each span with `SPAN_DONE`. Exits 0 on `SHUTDOWN` or stdin EOF,
//! nonzero on any protocol violation so the coordinator sees a crash,
//! never a silent wedge.

use archpredict::distributed::{proto, WorkerSpec, FP_WORKER_EVAL};
use archpredict::failpoint;
use archpredict::simulate::{PointEvaluator, SimError};
use archpredict::telemetry;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::process::ExitCode;

fn run() -> io::Result<()> {
    // The pool hands its failpoint plan over through the environment: an
    // `abort` clause on the eval site is a real, deterministic death.
    let plan = failpoint::Plan::from_env().map_err(io::Error::other)?;
    let _plan = failpoint::enter(plan);
    // Trace context arrives two ways: the JSONL sink path through the
    // inherited ARCHPREDICT_TRACE variable, and the per-span trace ID on
    // each EVAL frame. One shared file collects the whole process tree.
    telemetry::install_trace_from_env()?;
    let stdin = io::stdin().lock();
    let mut input = BufReader::new(stdin);
    let stdout = io::stdout().lock();
    let mut output = BufWriter::new(stdout);

    // Version handshake: read the coordinator's 8 bytes, verify, echo.
    // A mismatch means a stale binary or a foreign parent — die loudly
    // before anything tries to parse frames.
    let mut hello = [0u8; 8];
    input.read_exact(&mut hello)?;
    if hello != proto::handshake() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "handshake mismatch: coordinator and worker disagree on magic/version",
        ));
    }
    output.write_all(&hello)?;
    output.flush()?;

    // One CONFIG frame, exactly once, before any EVAL.
    let config = proto::read_frame(&mut input)?;
    let spec = match config.split_first() {
        Some((&proto::OP_CONFIG, body)) => WorkerSpec::decode(body)?,
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "expected CONFIG as the first frame",
            ))
        }
    };
    let evaluator = spec.evaluator();
    let space = spec.space();

    loop {
        let frame = match proto::read_frame(&mut input) {
            Ok(frame) => frame,
            // EOF between frames: the coordinator closed our stdin
            // (normal teardown). Mid-frame truncation is a real error.
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        match frame.split_first() {
            Some((&proto::OP_EVAL, body)) => {
                let (trace, indices) = proto::decode_eval(body)?;
                // Adopt the coordinator's trace for this span: the span
                // event and every RESULT echo carry it, so one grep of
                // the shared event log crosses the process boundary.
                let _trace_scope = telemetry::set_trace(trace);
                let span_event = telemetry::span("worker.span");
                for index in &indices {
                    if let Some(failure) = failpoint::check(FP_WORKER_EVAL) {
                        // `abort`/`exit` died inside check; a returnable
                        // failure exits nonzero so the coordinator sees
                        // a crash blamed on exactly this index.
                        return Err(failure.into_io_error(FP_WORKER_EVAL));
                    }
                    let point = space.try_point(*index as usize).map_err(|e| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("index {index} out of range: {e}"),
                        )
                    })?;
                    let result = evaluator.try_evaluate(&point);
                    if result == Err(SimError::Crashed) {
                        // Die hard, as a segfaulting simulator would;
                        // the coordinator blames this index.
                        std::process::abort();
                    }
                    proto::write_frame(&mut output, &proto::encode_result(trace, *index, &result))?;
                    // Flush per result, not per span: the coordinator's
                    // crash blame depends on seeing every completed
                    // reply before this process can die.
                    output.flush()?;
                }
                // Emit the span before SPAN_DONE goes out: the moment the
                // coordinator sees the span complete it may tear the pool
                // down (kill, not drain), and the event must already be
                // appended by then.
                drop(span_event);
                proto::write_frame(
                    &mut output,
                    &proto::encode_span_done(trace, indices.len() as u32),
                )?;
                output.flush()?;
            }
            Some((&proto::OP_SHUTDOWN, _)) => return Ok(()),
            Some((&op, _)) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected opcode {op:#04x}"),
                ))
            }
            None => return Err(io::Error::new(io::ErrorKind::InvalidData, "empty frame")),
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // A broken pipe means the coordinator went away mid-write;
            // that is its problem, not a protocol violation on our side.
            if e.kind() == io::ErrorKind::BrokenPipe {
                return ExitCode::SUCCESS;
            }
            eprintln!("archpredict-worker: {e}");
            ExitCode::FAILURE
        }
    }
}
