//! Crash-safe training checkpoints.
//!
//! One file per training run, rewritten at the end of every epoch via
//! temp-file + rename, so the file on disk is always a *complete* epoch
//! state: either the rename happened and the new epoch is fully there, or
//! it did not and the previous epoch's file is untouched. The framing
//! mirrors `dataset::checkpoint` v3 — a versioned header and one
//! ` #<crc:016x>` FNV-1a checksum per line — so corruption detection
//! behaves identically across both checkpoint formats.
//!
//! Every float (parameters, ADAM moments, loss history, best loss) is
//! serialized as its IEEE-754 bit pattern in hex. Training resumed from a
//! checkpoint must produce **bit-identical** parameters to an uninterrupted
//! run, and a shortest-round-trip decimal rendering would already be exact
//! for f64 — but bit patterns make the intent auditable and the comparison
//! trivial.
//!
//! A checkpoint is only valid for the exact training run that wrote it:
//! the `fingerprint` line hashes every hyper-parameter that feeds the
//! update sequence (a trajectory-semantics version tag, seed, lr, batch
//! size, tolerance, patience, epoch cap, training-set size, parameter
//! shapes). `jobs` and the gradient engine are deliberately excluded —
//! parallel and batched gradient accumulation are bit-identical to the
//! serial per-instance reference (DESIGN.md §6d/§10), so a run checkpointed
//! at `--jobs 8` may resume at `--jobs 1` and an engine switch is equally
//! safe. The version tag (`v2` since the partial-final-batch weighting fix)
//! changes whenever the update rule itself changes, so checkpoints written
//! under older trajectory semantics are refused loudly instead of silently
//! continuing on a different loss surface.

use crate::trainer::TrainConfig;
use faults::{fnv1a, FNV_OFFSET};
use std::io::Write as _;
use std::path::Path;
use tensor::Matrix;

const MAGIC: &str = "# icnet-train-ckpt v1";

/// Full end-of-epoch training state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TrainCheckpoint {
    /// Hash of the hyper-parameters and shapes this state belongs to.
    pub fingerprint: u64,
    /// Epochs fully completed (the resume point).
    pub epochs_done: usize,
    /// Whether the tolerance criterion fired on the final epoch.
    pub converged: bool,
    /// Consecutive sub-tolerance epochs at checkpoint time.
    pub stall: usize,
    /// Best (lowest) epoch loss seen, as tracked by the loop.
    pub best: f64,
    /// Per-epoch mean training loss so far.
    pub history: Vec<f64>,
    /// Model parameters after `epochs_done` epochs.
    pub params: Vec<Matrix>,
    /// ADAM step count.
    pub adam_t: u64,
    /// ADAM first moments (empty iff no step has run).
    pub adam_m: Vec<Matrix>,
    /// ADAM second moments.
    pub adam_v: Vec<Matrix>,
}

/// Hash of everything that determines the parameter trajectory: the
/// hyper-parameters, the training-set size, and the parameter shapes.
pub(crate) fn fingerprint(config: &TrainConfig, num_instances: usize, params: &[Matrix]) -> u64 {
    let mut text = format!(
        "v2;seed={};lr={:016x};batch={};tol={:016x};patience={};max_epochs={};n={}",
        config.seed,
        config.lr.to_bits(),
        config.batch_size,
        config.tol.to_bits(),
        config.patience,
        config.max_epochs,
        num_instances,
    );
    for p in params {
        text.push_str(&format!(";{}x{}", p.rows(), p.cols()));
    }
    fnv1a(FNV_OFFSET, text.as_bytes())
}

fn push_line(out: &mut String, body: &str) {
    out.push_str(body);
    out.push_str(&format!(" #{:016x}\n", fnv1a(FNV_OFFSET, body.as_bytes())));
}

fn matrix_body(tag: &str, index: usize, m: &Matrix) -> String {
    let mut body = format!("{tag} {index} {} {}", m.rows(), m.cols());
    for v in m.as_slice() {
        body.push_str(&format!(" {:016x}", v.to_bits()));
    }
    body
}

fn render(ckpt: &TrainCheckpoint) -> String {
    let mut out = String::new();
    push_line(&mut out, MAGIC);
    push_line(&mut out, &format!("fingerprint {:016x}", ckpt.fingerprint));
    push_line(
        &mut out,
        &format!(
            "epoch {} {} {} {:016x}",
            ckpt.epochs_done,
            u8::from(ckpt.converged),
            ckpt.stall,
            ckpt.best.to_bits()
        ),
    );
    let mut history = String::from("history");
    for v in &ckpt.history {
        history.push_str(&format!(" {:016x}", v.to_bits()));
    }
    push_line(&mut out, &history);
    for (i, p) in ckpt.params.iter().enumerate() {
        push_line(&mut out, &matrix_body("param", i, p));
    }
    push_line(&mut out, &format!("adam {}", ckpt.adam_t));
    for (i, m) in ckpt.adam_m.iter().enumerate() {
        push_line(&mut out, &matrix_body("adam_m", i, m));
    }
    for (i, v) in ckpt.adam_v.iter().enumerate() {
        push_line(&mut out, &matrix_body("adam_v", i, v));
    }
    out
}

/// Durably replaces the checkpoint at `path` with `ckpt`: full rewrite to a
/// sibling temp file, `fsync`, then atomic rename. The data reaches the
/// disk before the rename can, so a crash or power loss at any point leaves
/// either the previous checkpoint or the new one, never a mix.
///
/// # Errors
///
/// Returns a one-line message; the previous checkpoint (if any) survives.
pub(crate) fn save(path: &str, ckpt: &TrainCheckpoint) -> Result<(), String> {
    let describe = |e: std::io::Error| format!("writing training checkpoint `{path}`: {e}");
    let contents = render(ckpt);
    let injected = faults::inject("train.checkpoint");
    if let Some(fault) = &injected {
        match fault.action {
            faults::Action::Io => {
                return Err(format!(
                    "injected fault: train.checkpoint io (occurrence {})",
                    fault.occurrence
                ));
            }
            faults::Action::Torn | faults::Action::Short => {}
            _ => fault.unsupported("train.checkpoint"),
        }
    }
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(describe)?;
        }
    }
    let tmp = format!("{path}.tmp.{}", std::process::id());
    let mut file = std::fs::File::create(&tmp).map_err(describe)?;
    if let Some(fault) = &injected {
        // Simulated crash mid-write: a prefix of the temp file reaches disk
        // and the rename never happens, so the previous checkpoint stays
        // authoritative — this is the torn-write case atomicity exists for.
        let written = match fault.action {
            faults::Action::Torn => contents.len() / 2,
            _ => contents.len().saturating_sub(4),
        };
        file.write_all(&contents.as_bytes()[..written])
            .and_then(|()| file.flush())
            .map_err(describe)?;
        return Err(format!(
            "injected fault: train.checkpoint {} after {written} of {} bytes \
             (occurrence {})",
            fault.action,
            contents.len(),
            fault.occurrence
        ));
    }
    file.write_all(contents.as_bytes()).map_err(describe)?;
    file.sync_all().map_err(describe)?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(describe)
}

/// Loads the checkpoint at `path`. `Ok(None)` when the file does not exist
/// (a fresh run); `Err` when it exists but is unusable — truncated,
/// corrupted, or from a different format version. There is no silent
/// partial recovery here: unlike the append-only dataset log, this file is
/// replaced atomically, so *any* damage means something outside the trainer
/// touched it and resuming from it could silently diverge.
pub(crate) fn load(path: &str) -> Result<Option<TrainCheckpoint>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("reading training checkpoint `{path}`: {e}")),
    };
    parse(&text).map(Some)
}

fn parse(text: &str) -> Result<TrainCheckpoint, String> {
    if !text.ends_with('\n') {
        return Err("truncated file (no final newline)".into());
    }
    let mut bodies = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let (body, crc_field) = line
            .rsplit_once(" #")
            .ok_or_else(|| format!("line {lineno}: missing checksum"))?;
        let crc = u64::from_str_radix(crc_field, 16)
            .map_err(|_| format!("line {lineno}: bad checksum field `{crc_field}`"))?;
        let actual = fnv1a(FNV_OFFSET, body.as_bytes());
        if actual != crc {
            return Err(format!(
                "line {lineno}: checksum mismatch (record says {crc:016x}, \
                 contents hash to {actual:016x})"
            ));
        }
        bodies.push((lineno, body));
    }
    let mut lines = bodies.into_iter();
    let (_, header) = lines.next().ok_or("empty file")?;
    if header != MAGIC {
        return Err(format!("expected header `{MAGIC}`, found `{header}`"));
    }

    let mut fingerprint = None;
    let mut epoch = None;
    let mut history = None;
    let mut adam_t = None;
    let mut params: Vec<Matrix> = Vec::new();
    let mut adam_m: Vec<Matrix> = Vec::new();
    let mut adam_v: Vec<Matrix> = Vec::new();
    for (lineno, body) in lines {
        let at = |msg: String| format!("line {lineno}: {msg}");
        let (tag, rest) = body.split_once(' ').unwrap_or((body, ""));
        match tag {
            "fingerprint" => {
                fingerprint = Some(
                    u64::from_str_radix(rest, 16)
                        .map_err(|_| at(format!("bad fingerprint `{rest}`")))?,
                );
            }
            "epoch" => {
                let fields: Vec<&str> = rest.split(' ').collect();
                if fields.len() != 4 {
                    return Err(at(format!(
                        "epoch line needs 4 fields, has {}",
                        fields.len()
                    )));
                }
                let epochs_done: usize = fields[0]
                    .parse()
                    .map_err(|_| at(format!("bad epoch count `{}`", fields[0])))?;
                let converged = match fields[1] {
                    "0" => false,
                    "1" => true,
                    other => return Err(at(format!("bad converged flag `{other}`"))),
                };
                let stall: usize = fields[2]
                    .parse()
                    .map_err(|_| at(format!("bad stall count `{}`", fields[2])))?;
                let best = f64::from_bits(
                    u64::from_str_radix(fields[3], 16)
                        .map_err(|_| at(format!("bad best-loss bits `{}`", fields[3])))?,
                );
                epoch = Some((epochs_done, converged, stall, best));
            }
            "history" => {
                let values = rest
                    .split(' ')
                    .filter(|f| !f.is_empty())
                    .map(|f| {
                        u64::from_str_radix(f, 16)
                            .map(f64::from_bits)
                            .map_err(|_| at(format!("bad history bits `{f}`")))
                    })
                    .collect::<Result<Vec<f64>, String>>()?;
                history = Some(values);
            }
            "adam" => {
                adam_t = Some(
                    rest.parse::<u64>()
                        .map_err(|_| at(format!("bad adam step count `{rest}`")))?,
                );
            }
            "param" | "adam_m" | "adam_v" => {
                let (index, matrix) = parse_matrix(rest).map_err(at)?;
                let list = match tag {
                    "param" => &mut params,
                    "adam_m" => &mut adam_m,
                    _ => &mut adam_v,
                };
                if index != list.len() {
                    return Err(at(format!(
                        "{tag} index {index} out of order (expected {})",
                        list.len()
                    )));
                }
                list.push(matrix);
            }
            other => return Err(at(format!("unknown record tag `{other}`"))),
        }
    }

    let fingerprint = fingerprint.ok_or("missing fingerprint record")?;
    let (epochs_done, converged, stall, best) = epoch.ok_or("missing epoch record")?;
    let history = history.ok_or("missing history record")?;
    let adam_t = adam_t.ok_or("missing adam record")?;
    if params.is_empty() {
        return Err("missing param records".into());
    }
    if adam_m.len() != adam_v.len() {
        return Err(format!(
            "adam moment count mismatch: {} first vs {} second",
            adam_m.len(),
            adam_v.len()
        ));
    }
    Ok(TrainCheckpoint {
        fingerprint,
        epochs_done,
        converged,
        stall,
        best,
        history,
        params,
        adam_t,
        adam_m,
        adam_v,
    })
}

fn parse_matrix(rest: &str) -> Result<(usize, Matrix), String> {
    let mut fields = rest.split(' ').filter(|f| !f.is_empty());
    let mut num = |name: &str| -> Result<usize, String> {
        let field = fields.next().ok_or_else(|| format!("missing {name}"))?;
        field.parse().map_err(|_| format!("bad {name} `{field}`"))
    };
    let index = num("matrix index")?;
    let rows = num("row count")?;
    let cols = num("column count")?;
    let data = fields
        .map(|f| {
            u64::from_str_radix(f, 16)
                .map(f64::from_bits)
                .map_err(|_| format!("bad value bits `{f}`"))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    if data.len() != rows * cols {
        return Err(format!(
            "matrix {index} has {} values for a {rows}x{cols} shape",
            data.len()
        ));
    }
    Ok((index, Matrix::from_vec(rows, cols, data)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrainCheckpoint {
        TrainCheckpoint {
            fingerprint: 0xDEAD_BEEF,
            epochs_done: 7,
            converged: false,
            stall: 2,
            best: 0.125,
            history: vec![1.5, 0.5, 0.125],
            params: vec![
                Matrix::from_vec(2, 2, vec![1.0, -2.5, 0.0, f64::MIN_POSITIVE]),
                Matrix::from_vec(1, 3, vec![3.0, 4.0, 5.0]),
            ],
            adam_t: 21,
            adam_m: vec![
                Matrix::from_vec(2, 2, vec![0.1, 0.2, 0.3, 0.4]),
                Matrix::from_vec(1, 3, vec![0.5, 0.6, 0.7]),
            ],
            adam_v: vec![
                Matrix::from_vec(2, 2, vec![0.01, 0.02, 0.03, 0.04]),
                Matrix::from_vec(1, 3, vec![0.05, 0.06, 0.07]),
            ],
        }
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("icnet_train_ckpt_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path.display().to_string()
    }

    #[test]
    fn round_trips_bit_exactly() {
        let path = tmp("roundtrip.ckpt");
        let ckpt = sample();
        save(&path, &ckpt).unwrap();
        let loaded = load(&path).unwrap().expect("file exists");
        assert_eq!(loaded, ckpt);
    }

    #[test]
    fn absent_file_is_a_fresh_run() {
        assert_eq!(load(&tmp("absent.ckpt")).unwrap(), None);
    }

    #[test]
    fn save_replaces_atomically() {
        let path = tmp("replace.ckpt");
        let mut ckpt = sample();
        save(&path, &ckpt).unwrap();
        ckpt.epochs_done = 8;
        ckpt.history.push(0.1);
        save(&path, &ckpt).unwrap();
        assert_eq!(load(&path).unwrap().unwrap().epochs_done, 8);
    }

    #[test]
    fn non_finite_floats_survive_the_round_trip() {
        let path = tmp("nonfinite.ckpt");
        let mut ckpt = sample();
        ckpt.best = f64::INFINITY;
        save(&path, &ckpt).unwrap();
        assert_eq!(load(&path).unwrap().unwrap().best, f64::INFINITY);
    }

    #[test]
    fn flipped_byte_is_loudly_rejected() {
        let path = tmp("flipped.ckpt");
        save(&path, &sample()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a digit inside the epoch record's body.
        let text = String::from_utf8(bytes.clone()).unwrap();
        let target = text.find("epoch ").unwrap() + 6;
        bytes[target] = if bytes[target] == b'7' { b'8' } else { b'7' };
        std::fs::write(&path, bytes).unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn truncation_is_loudly_rejected() {
        let path = tmp("truncated.ckpt");
        save(&path, &sample()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 9]).unwrap();
        assert!(load(&path).is_err());
    }

    #[test]
    fn wrong_header_is_rejected() {
        let path = tmp("header.ckpt");
        let body = "# some-other-format v9";
        std::fs::write(
            &path,
            format!("{body} #{:016x}\n", fnv1a(FNV_OFFSET, body.as_bytes())),
        )
        .unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.contains("expected header"), "{err}");
    }

    #[test]
    fn fingerprint_tracks_hypers_and_shapes_but_not_jobs() {
        let config = TrainConfig::quick();
        let params = sample().params;
        let base = fingerprint(&config, 32, &params);
        assert_eq!(base, fingerprint(&config, 32, &params), "deterministic");

        let mut jobs = config.clone();
        jobs.jobs = 8;
        assert_eq!(
            base,
            fingerprint(&jobs, 32, &params),
            "parallel training is bit-identical to serial, so jobs must not invalidate"
        );

        let mut engine = config.clone();
        engine.engine = crate::trainer::GradEngine::PerInstance;
        assert_eq!(
            base,
            fingerprint(&engine, 32, &params),
            "the engines are bit-identical, so switching must not invalidate"
        );

        let mut seeded = config.clone();
        seeded.seed += 1;
        assert_ne!(base, fingerprint(&seeded, 32, &params));
        let mut lr = config.clone();
        lr.lr *= 2.0;
        assert_ne!(base, fingerprint(&lr, 32, &params));
        assert_ne!(base, fingerprint(&config, 33, &params));
        assert_ne!(base, fingerprint(&config, 32, &params[..1]));
    }
}
