//! Output checks: byte counts against the format spec, and a statistical
//! comparison of SymPhase's formatted output against the `frame` engine.

use std::io::{self, Write};

use symphase::prelude::{RecordSource, SampleFormat, ShotSpec};

use crate::report::Tally;

/// An `io::Write` that counts and discards (the benchmark's output sink).
#[derive(Default)]
pub struct Discard {
    pub bytes: u64,
}

impl Write for Discard {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes += buf.len() as u64;
        Ok(std::hint::black_box(buf).len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Bytes `format` must emit per shot of `source` (the spec in
/// `docs/formats.md`): `b8` packs `⌈rows/8⌉` bytes; `01` writes one char a
/// record, a space between detector and observable groups, and a newline.
pub fn bytes_per_shot(format: SampleFormat, source: RecordSource, spec: &ShotSpec) -> u64 {
    let rows = source.rows(spec) as u64;
    match format {
        SampleFormat::B8 => rows.div_ceil(8),
        SampleFormat::Plain01 => {
            let split = source == RecordSource::DetectorsAndObservables
                && spec.num_detectors > 0
                && spec.num_observables > 0;
            rows + split as u64 + 1
        }
        other => panic!("the benchmark does not use the {} format", other.name()),
    }
}

/// An `io::Write` decoding a `b8` or `01` stream back into per-record
/// counts: how often each record is 1, and how often records `r` and
/// `r + 1` differ. Holds at most one partial shot.
pub struct RecordTally {
    b8: bool,
    rows: usize,
    pending: Vec<u8>,
    bits: Vec<u8>,
    pub shots: u64,
    pub ones: Vec<u64>,
    pub flips: Vec<u64>,
}

impl RecordTally {
    pub fn new(format: SampleFormat, rows: usize) -> Self {
        Self {
            b8: format == SampleFormat::B8,
            rows,
            pending: Vec::new(),
            bits: Vec::with_capacity(rows),
            shots: 0,
            ones: vec![0; rows],
            flips: vec![0; rows.saturating_sub(1)],
        }
    }

    fn tally_shot(&mut self, shot: &[u8]) -> io::Result<()> {
        self.bits.clear();
        if self.b8 {
            self.bits
                .extend((0..self.rows).map(|r| (shot[r / 8] >> (r % 8)) & 1));
        } else {
            self.bits.extend(
                shot.iter()
                    .filter(|&&c| c != b' ')
                    .map(|&c| c.wrapping_sub(b'0')),
            );
        }
        if self.bits.len() != self.rows || self.bits.iter().any(|&b| b > 1) {
            return Err(io::Error::other(format!(
                "shot {} does not decode to {} records",
                self.shots, self.rows
            )));
        }
        for (r, &b) in self.bits.iter().enumerate() {
            self.ones[r] += b as u64;
        }
        for (r, w) in self.bits.windows(2).enumerate() {
            self.flips[r] += (w[0] ^ w[1]) as u64;
        }
        self.shots += 1;
        Ok(())
    }
}

impl Write for RecordTally {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.pending.extend_from_slice(buf);
        let mut pending = std::mem::take(&mut self.pending);
        let mut used = 0;
        loop {
            let rest = &pending[used..];
            let len = if self.b8 {
                let n = self.rows.div_ceil(8);
                (rest.len() >= n && n > 0).then_some(n)
            } else {
                rest.iter().position(|&c| c == b'\n')
            };
            let Some(len) = len else { break };
            self.tally_shot(&rest[..len])?;
            used += len + usize::from(!self.b8);
        }
        pending.drain(..used);
        self.pending = pending;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Whether two binomial counts over `n` shots each agree within 5σ
/// (pooled variance). Equal counts always agree, so deterministic records
/// must match exactly.
fn agree(a: u64, b: u64, n: u64) -> bool {
    let n = n as f64;
    let p = (a + b) as f64 / (2.0 * n);
    let sigma = (p * (1.0 - p) * 2.0 / n).sqrt();
    ((a as f64 - b as f64) / n).abs() <= 5.0 * sigma + 1e-12
}

/// Per record: marginal and adjacent-XOR rates of `ours` against
/// `reference`, each one check.
pub fn compare(ours: &RecordTally, reference: &RecordTally, tally: &mut Tally) {
    let n = ours.shots;
    tally.check(n > 0 && n == reference.shots, || {
        format!("shot counts differ: {n} vs {}", reference.shots)
    });
    for (r, (&a, &b)) in ours.ones.iter().zip(&reference.ones).enumerate() {
        tally.check(agree(a, b, n), || {
            format!("record {r} marginal {a}/{n} vs frame {b}/{n}")
        });
    }
    for (r, (&a, &b)) in ours.flips.iter().zip(&reference.flips).enumerate() {
        tally.check(agree(a, b, n), || {
            format!("records {r}^{} rate {a}/{n} vs frame {b}/{n}", r + 1)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_decodes_both_formats() {
        let mut t = RecordTally::new(SampleFormat::Plain01, 3);
        t.write_all(b"101\n1").unwrap();
        t.write_all(b"10\n").unwrap();
        assert_eq!(
            (t.shots, t.ones.clone(), t.flips.clone()),
            (2, vec![2, 1, 1], vec![1, 2])
        );
        let mut t = RecordTally::new(SampleFormat::B8, 9);
        t.write_all(&[0b0000_0011, 0b1, 0, 0]).unwrap();
        assert_eq!(t.shots, 2);
        assert_eq!(t.ones, vec![1, 1, 0, 0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn agreement_is_five_sigma() {
        assert!(agree(0, 0, 100));
        assert!(!agree(0, 100, 100));
        assert!(agree(5000, 5100, 10_000));
        assert!(!agree(5000, 5600, 10_000));
    }
}
